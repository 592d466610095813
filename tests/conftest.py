"""Shared oracles and instance builders for the test suite."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np
import pytest

from diskpack import (EPS, CellCopies, Circle, DepthWitness, DiskSet, InputError,
                      LoeschianColouring, MCEstimate, OffsetSampling, ONE_COLOUR_SIDE, Point,
                      SplitMix64, SquareLattice, THREE_COLOUR_SIDE, TWO_COLOUR_SIDE,
                      TriLattice, VerificationError, alpha_k,
                      circle_polygon_intersection_area, gen_clustered, gen_random,
                      gen_spirograph, max_distinct_translate_depth, translate_to_cell)
from diskpack.arrangement import (_CHUNK_BYTES, _cell_sweep_candidates, _distinct_counts,
                                  _pair_intersections)
from diskpack.geometry import TWO_PI, _sorted_runs, require_finite
from diskpack.lattice import Lattice, LatticePoint
from diskpack.prng import double_block
from diskpack.selector import (_PAIR_BYTES, LatticeInfo, _empty_result, _finish, _select_at,
                               _select_cells)


def grid_depth_oracle(circles, resolution=900, bbox=None):
    """Max coverage depth over a dense grid (closed disks, same EPS)."""
    centers = np.array([c.center for c in circles], dtype=float)
    radii = np.array([c.radius for c in circles], dtype=float)
    if bbox is None:
        xmin = (centers[:, 0] - radii).min()
        xmax = (centers[:, 0] + radii).max()
        ymin = (centers[:, 1] - radii).min()
        ymax = (centers[:, 1] + radii).max()
    else:
        xmin, ymin, xmax, ymax = bbox
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    best = 0
    lim2 = (radii + EPS) ** 2
    for y in ys:
        d2 = (xs[:, None] - centers[None, :, 0]) ** 2 + (y - centers[None, :, 1]) ** 2
        best = max(best, int((d2 <= lim2[None, :]).sum(axis=1).max()))
    return best


def _memberships(cands: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """(base, memb) blocks of closed-disk membership, 256 candidates at a
    time, in the library's elementwise formula:
    d^2 = (qx - cx)^2 + (qy - cy)^2 <= (r + EPS)^2."""
    lim = (radii + EPS) ** 2
    for base in range(0, len(cands), 256):
        q = cands[base:base + 256]
        yield base, (q[:, :1] - centers[:, 0]) ** 2 + (q[:, 1:] - centers[:, 1]) ** 2 <= lim


def max_depth(circles: Sequence[Circle]) -> tuple[Point, int]:
    """Point of maximum coverage depth over a plain set of circles: every
    pairwise intersection and centre, scored by closed-disk membership."""
    if not circles:
        raise InputError("max_depth needs at least one circle")
    centers = np.array([c.center for c in circles], dtype=float)
    radii = np.array([c.radius for c in circles], dtype=float)
    verts = _pair_intersections(centers, radii)
    cands = np.concatenate([verts, centers]) if len(verts) else centers
    counts = np.empty(len(cands), dtype=np.int64)
    for base, memb in _memberships(cands, centers, radii):
        counts[base:base + len(memb)] = memb.sum(axis=1)
    best = int(counts.max())
    at_best = cands[counts == best]
    k = np.lexsort((at_best[:, 1], at_best[:, 0]))[0]
    return Point(float(at_best[k, 0]), float(at_best[k, 1])), best


def grid_distinct_oracle(copies: CellCopies, lattice, resolution=800):
    """Max distinct-translate count over a grid covering the fundamental cell."""
    centers = copies.centers
    radii = copies.radii
    copy_ids = [tuple(t) for t in copies.ids.tolist()]
    ids = sorted(set(copy_ids))
    id_index = {t: k for k, t in enumerate(ids)}
    groups = np.array([id_index[t] for t in copy_ids])
    lim2 = (radii + EPS) ** 2
    best = 0
    n_groups = len(ids)
    group_cols = [np.nonzero(groups == g)[0] for g in range(n_groups)]
    aa = np.linspace(0.0, 1.0, resolution, endpoint=False)
    ox, oy = lattice.offset
    ux, uy = lattice.u
    vx, vy = lattice.v
    for b in aa:
        px = ox + aa * ux + b * vx
        py = oy + aa * uy + b * vy
        d2 = ((px[:, None] - centers[None, :, 0]) ** 2
              + (py[:, None] - centers[None, :, 1]) ** 2)
        memb = d2 <= lim2[None, :]
        counts = np.zeros(resolution, dtype=np.int64)
        for cols in group_cols:
            counts += memb[:, cols].any(axis=1)
        best = max(best, int(counts.max()))
    return best


def quick_corpus(count=40, max_n=40, seed=1000):
    """Small deterministic mix of random, clustered and spirograph instances."""
    out = []
    rng = SplitMix64(seed)
    for k in range(count):
        kind = k % 5
        if kind == 4:
            n = 3 + rng.randrange(30)
            eps = 0.3 * rng.next_double() + 0.005
            out.append(gen_spirograph(n, eps))
        elif kind == 3:
            n = 2 + rng.randrange(max_n - 1)
            out.append(gen_clustered(n, 1 + rng.randrange(4),
                                     4.0 + 10.0 * rng.next_double(),
                                     0.5 + 2.0 * rng.next_double(),
                                     seed + k))
        else:
            n = 1 + rng.randrange(max_n)
            box = max(3.0, 1.8 * math.sqrt(n) * (0.7 + rng.next_double()))
            out.append(gen_random(n, box, seed + k))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return quick_corpus()


def cell_copies(rows) -> CellCopies:
    """CellCopies from (center, radius, translate id, source disk) rows."""
    centers, radii, ids, source = zip(*rows)
    return CellCopies(np.array(centers, dtype=float), np.array(radii, dtype=float),
                      np.array(ids, dtype=np.int64), np.array(source, dtype=np.intp))


def same_copies(a: CellCopies, b: CellCopies) -> bool:
    """Equal fields, value for value and dtype for dtype."""
    return all(x.dtype == y.dtype and np.array_equal(x, y)
               for x, y in ((a.centers, b.centers), (a.radii, b.radii),
                            (a.ids, b.ids), (a.source, b.source)))


# Scalar reference implementations of the arrangement layer.  The array code in
# diskpack.arrangement must reproduce them bit for bit.

def _frac(a: float) -> tuple[int, float]:
    i = math.floor(a)
    f = a - i
    if f >= 1.0:  # guard against floating fold-over
        i += 1
        f -= 1.0
    return i, f


def reference_wrap_to_cell(lattice: Lattice, p: Point) -> tuple[Point, tuple[int, int]]:
    """Scalar form of ``Lattice.wrap_to_cell``: p = cell_point + i*u + j*v."""
    require_finite(p[0], p[1])
    a, b = lattice.affine(p[0], p[1])
    i, fa = _frac(a)
    j, fb = _frac(b)
    return lattice.point(fa, fb), (i, j)


def squared_distance(p, q) -> float:
    """Squared distance between p and q, squared as x * x like diskpack."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def _segment_distance2(px, py, ax, ay, bx, by):
    dx = bx - ax
    dy = by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    qx = ax + t * dx
    qy = ay + t * dy
    return squared_distance((px, py), (qx, qy)), qx, qy


def _cell_closest_point(lattice: Lattice, di: int, dj: int, p: Point):
    """Distance from p to the closed cell translate (di, dj), and the closest point."""
    a, b = lattice.affine(p[0], p[1])
    ra = a - di
    rb = b - dj
    if 0.0 <= ra <= 1.0 and 0.0 <= rb <= 1.0:
        return 0.0, p
    ox, oy = lattice.point(di, dj)
    ux, uy = lattice.u
    vx, vy = lattice.v
    corners = ((ox, oy), (ox + ux, oy + uy), (ox + ux + vx, oy + uy + vy), (ox + vx, oy + vy))
    best = None
    for k in range(4):
        ax, ay = corners[k]
        bx, by = corners[(k + 1) % 4]
        d2, qx, qy = _segment_distance2(p[0], p[1], ax, ay, bx, by)
        if best is None or d2 < best[0]:
            best = (d2, qx, qy)
    return math.sqrt(best[0]), Point(best[1], best[2])


def reference_translate_to_cell(disks: DiskSet, lattice: Lattice) -> CellCopies:
    """Scalar per-disk, per-translate loop that ``translate_to_cell`` replaced."""
    if abs(disks.radius - 1.0) > 1e-9:
        raise InputError("translate_to_cell expects unit disks")
    r = disks.radius
    ux, uy = lattice.u
    vx, vy = lattice.v
    out = []
    for idx, c in enumerate(disks.centers):
        base, (i0, j0) = reference_wrap_to_cell(lattice, c)
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                d, closest = _cell_closest_point(lattice, di, dj, base)
                if d > r + 1e-12:
                    continue
                if d > r - 1e-12 and d > 0.0:
                    # tangent contact: include only when the touch point
                    # belongs to the half-open cell
                    ca, cb = lattice.affine(closest[0], closest[1])
                    if not (di <= ca < di + 1.0 and dj <= cb < dj + 1.0):
                        continue
                center = Point(base[0] - di * ux - dj * vx, base[1] - di * uy - dj * vy)
                out.append((center, r, (i0 + di, j0 + dj), idx))
    return cell_copies(out)


def reference_sweep_candidates(centers: np.ndarray, radii: np.ndarray,
                               groups: np.ndarray, n_groups: int,
                               lattice: Lattice) -> list[tuple[float, float]]:
    """Per-circle Python event loop that ``_cell_sweep_candidates`` replaced.

    Best point per circle boundary by angular sweep, restricted to the cell.

    Walking just inside each circle visits every arrangement face adjacent to
    it from the inside, which is where the distinct-translate count attains
    its maximum; cell-edge crossings are added as arc splits so that every
    evaluated arc midpoint lies in the half-open cell.
    """
    two_pi = 2.0 * math.pi
    k = len(centers)
    dx = centers[:, 0][None, :] - centers[:, 0][:, None]
    dy = centers[:, 1][None, :] - centers[:, 1][:, None]
    dmat = np.hypot(dx, dy)
    ox, oy = lattice.offset
    a0, b0 = lattice.affine(ox, oy)
    a_dx, b_dx = lattice.affine(ox + 1.0, oy)
    a_dy, b_dy = lattice.affine(ox, oy + 1.0)
    gax, gay = a_dx - a0, a_dy - a0
    gbx, gby = b_dx - b0, b_dy - b0
    grad_a = math.hypot(gax, gay)
    grad_b = math.hypot(gbx, gby)
    psi_a = math.atan2(gay, gax)
    psi_b = math.atan2(gby, gbx)

    out: list[tuple[float, float]] = []
    for i in range(k):
        ri = radii[i]
        di = dmat[i]
        coincident = (di == 0.0)
        near = np.nonzero((di > 0.0) & (di < ri + radii))[0]
        base = np.bincount(groups[coincident], minlength=n_groups)

        cosv = (ri * ri + di[near] ** 2 - radii[near] ** 2) / (2.0 * ri * di[near])
        covered_all = cosv < -1.0
        base = base + np.bincount(groups[near[covered_all]], minlength=n_groups)
        sel = (cosv >= -1.0) & (cosv <= 1.0)
        near = near[sel]
        cosv = cosv[sel]
        alpha = np.arctan2(dy[i, near], dx[i, near])
        beta = np.arccos(cosv)
        ngroups = groups[near]

        # cell-edge crossings split arcs; they carry no count change
        splits = []
        ai, bi = lattice.affine(centers[i, 0], centers[i, 1])
        for val, lim0, grad, psi in ((ai, 0.0, ri * grad_a, psi_a),
                                     (bi, 0.0, ri * grad_b, psi_b)):
            for t in (0.0, 1.0):
                arg = (t - val) / grad
                if -1.0 <= arg <= 1.0:
                    da = math.acos(arg)
                    splits.append((psi + da) % two_pi)
                    splits.append((psi - da) % two_pi)

        ev_ang = np.concatenate([np.mod(alpha - beta, two_pi),
                                 np.mod(alpha + beta, two_pi),
                                 np.array(splits, dtype=float)])
        ev_grp = np.concatenate([ngroups, ngroups,
                                 np.full(len(splits), -1, dtype=ngroups.dtype)])
        ev_delta = np.concatenate([np.ones(len(near), dtype=np.int8),
                                   -np.ones(len(near), dtype=np.int8),
                                   np.zeros(len(splits), dtype=np.int8)])
        order = np.argsort(ev_ang, kind="stable")
        angles = ev_ang[order].tolist()
        grp = ev_grp[order].tolist()
        delta = ev_delta[order].tolist()

        counts = base.copy()
        start_cover = np.cos(alpha) >= cosv  # membership at angle 0
        np.add.at(counts, ngroups[start_cover], 1)
        cnt = counts.tolist()
        c = sum(1 for v in cnt if v > 0)

        best_c = -1
        best_pt = None
        cx, cy = centers[i]
        prev = 0.0
        for idx in range(len(angles) + 1):
            ang = angles[idx] if idx < len(angles) else two_pi
            if c > best_c and ang - prev > 1e-15:
                mid = 0.5 * (prev + ang)
                px = cx + ri * math.cos(mid)
                py = cy + ri * math.sin(mid)
                a, b = lattice.affine(px, py)
                if 0.0 <= a < 1.0 and 0.0 <= b < 1.0:
                    best_c = c
                    best_pt = (px, py)
            if idx == len(angles):
                break
            g = grp[idx]
            d = delta[idx]
            if d == 1:
                if cnt[g] == 0:
                    c += 1
                cnt[g] += 1
            elif d == -1:
                cnt[g] -= 1
                if cnt[g] == 0:
                    c -= 1
            prev = ang
        if best_pt is not None:
            out.append(best_pt)
    return out


def reference_sweep_inputs(copies: CellCopies):
    """Circles sorted by translate id, as (centers, radii, ids, group_starts, groups)."""
    centers = copies.centers
    radii = copies.radii
    ids = [tuple(t) for t in copies.ids.tolist()]

    # group circles by translate id for the distinct count
    order = sorted(range(len(ids)), key=lambda t: ids[t])
    centers = centers[order]
    radii = radii[order]
    ids = [ids[t] for t in order]
    group_starts = [0]
    for t in range(1, len(ids)):
        if ids[t] != ids[t - 1]:
            group_starts.append(t)
    group_starts = np.array(group_starts, dtype=np.intp)
    groups = np.empty(len(ids), dtype=np.int64)
    g = -1
    for t in range(len(ids)):
        if t == 0 or ids[t] != ids[t - 1]:
            g += 1
        groups[t] = g
    return centers, radii, ids, group_starts, groups


def reference_max_distinct_translate_depth(copies: CellCopies,
                                           lattice: Lattice) -> DepthWitness:
    """Scalar grouping and wrapping that ``max_distinct_translate_depth`` replaced."""
    if len(copies) == 0:
        raise InputError("max_distinct_translate_depth needs at least one circle")
    centers, radii, ids, group_starts, groups = reference_sweep_inputs(copies)

    sweep_pts = reference_sweep_candidates(centers, radii, groups, len(group_starts), lattice)
    wrapped = [reference_wrap_to_cell(lattice, Point(x, y))[0] for x, y in centers]
    cands = np.array(sweep_pts + [(p[0], p[1]) for p in wrapped], dtype=float)

    counts = _distinct_counts(cands, centers, radii, group_starts)
    best = int(counts.max())
    at_best = cands[counts == best]
    k = np.lexsort((at_best[:, 1], at_best[:, 0]))[0]
    point = Point(float(at_best[k, 0]), float(at_best[k, 1]))

    per: dict[tuple[int, int], int] = {}
    lim2 = (radii + EPS) ** 2
    d2 = (centers[:, 0] - point[0]) ** 2 + (centers[:, 1] - point[1]) ** 2
    for t in np.nonzero(d2 <= lim2)[0]:
        per[ids[t]] = per.get(ids[t], 0) + 1
    return DepthWitness(point, best, per)


# The array witness before the branch and bound: every circle swept against
# all copies and every wrapped centre recounted, with the cumulative-sum
# distinct count.  The pruned search must return the same witness.

def reference_distinct_counts(cands: np.ndarray, centers: np.ndarray, radii: np.ndarray,
                              group_starts: np.ndarray) -> np.ndarray:
    """Distinct-group count per candidate from per-row cumulative sums."""
    k = len(centers)
    ends = np.concatenate([group_starts[1:], [k]]) - 1
    counts = np.empty(len(cands), dtype=np.int64)
    for base, memb in _memberships(cands, centers, radii):
        cs = np.cumsum(memb, axis=1, dtype=np.int32)
        seg_end = cs[:, ends]
        seg_before = np.zeros_like(seg_end)
        if len(group_starts) > 1:
            seg_before[:, 1:] = cs[:, group_starts[1:] - 1]
        counts[base:base + len(cs)] = ((seg_end - seg_before) > 0).sum(axis=1)
    return counts


def full_sweep_max_distinct_translate_depth(copies: CellCopies,
                                            lattice: Lattice) -> DepthWitness:
    """``max_distinct_translate_depth`` without pruning or deduplication."""
    if len(copies) == 0:
        raise InputError("max_distinct_translate_depth needs at least one circle")
    order = np.lexsort((copies.ids[:, 1], copies.ids[:, 0]))
    centers = copies.centers[order]
    radii = copies.radii[order]
    ids = copies.ids[order]
    new_group = np.ones(len(ids), dtype=bool)
    new_group[1:] = (ids[1:] != ids[:-1]).any(axis=1)
    group_starts = np.flatnonzero(new_group)
    groups = np.cumsum(new_group) - 1

    sweep_pts = _cell_sweep_candidates(centers, radii, groups, len(group_starts), lattice)
    wx, wy, _, _ = lattice.wrap_to_cell(centers[:, 0], centers[:, 1])
    cands = np.concatenate([np.array(sweep_pts, dtype=float).reshape(-1, 2),
                            np.stack([wx, wy], axis=1)])

    counts = reference_distinct_counts(cands, centers, radii, group_starts)
    best = int(counts.max())
    at_best = cands[counts == best]
    k = np.lexsort((at_best[:, 1], at_best[:, 0]))[0]
    point = Point(float(at_best[k, 0]), float(at_best[k, 1]))

    per: dict[tuple[int, int], int] = {}
    lim2 = (radii + EPS) ** 2
    d2 = (centers[:, 0] - point[0]) ** 2 + (centers[:, 1] - point[1]) ** 2
    for i, j in ids[d2 <= lim2].tolist():
        per[(i, j)] = per.get((i, j), 0) + 1
    return DepthWitness(point, best, per)


# Scalar reference implementations of the selection step: the per-point scan
# over ``points_in_box`` that ``diskpack.selector._select_cells`` replaced.
# The array routine must reproduce them bit for bit.

def reference_covering_disks(disks: DiskSet, p: Point) -> list[int]:
    lim = (disks.radius + EPS) * (disks.radius + EPS)
    return [i for i, c in enumerate(disks.centers) if squared_distance(c, p) <= lim]


def reference_select_by_cell_overlap(disks: DiskSet, lattice, points: Sequence[LatticePoint],
                                     cell_polygon: Callable[[LatticePoint], Sequence[Point]],
                                     colour_of: Callable[[LatticePoint], int]):
    """Pick, for every lattice point inside the union, the containing disk with
    the largest intersection with the point's cell (lowest index on ties)."""
    labels: list[Optional[int]] = [None] * len(disks)
    hits = 0
    cell_sum = 0.0
    for lp in points:
        cover = reference_covering_disks(disks, lp.position)
        if not cover:
            continue
        hits += 1
        poly = cell_polygon(lp)
        best_idx = -1
        best_area = -1.0
        for i in cover:
            area = circle_polygon_intersection_area(
                Circle(disks.centers[i], disks.radius), poly)
            if area > best_area + 1e-12:
                best_area = area
                best_idx = i
        labels[best_idx] = colour_of(lp)
        cell_sum += best_area
    return labels, hits, cell_sum


def reference_weight_at_offset(disks: DiskSet, offset: Point,
                               bbox) -> tuple[float, list[tuple[LatticePoint, int, float]]]:
    """Total cell-overlap weight of the lattice at this offset, with the
    chosen disk and its overlap for every in-union lattice point."""
    lat = TriLattice(THREE_COLOUR_SIDE, offset=offset)
    total = 0.0
    picks: list[tuple[LatticePoint, int, float]] = []
    for lp in lat.points_in_box(bbox):
        cover = reference_covering_disks(disks, lp.position)
        if not cover:
            continue
        poly = lat.cell_polygon(lp.i, lp.j)
        best_idx = -1
        best_area = -1.0
        for i in cover:
            area = circle_polygon_intersection_area(
                Circle(disks.centers[i], disks.radius), poly)
            if area > best_area + 1e-12:
                best_area = area
                best_idx = i
        total += best_area
        picks.append((lp, best_idx, best_area))
    return total, picks


def reference_select_at(disks: DiskSet, lat: Lattice, colour_fn):
    """(labels, hits, cell_sum) of the scalar scan with the lattice as given."""
    points = lat.points_in_box(disks.bbox(pad=EPS))
    return reference_select_by_cell_overlap(disks, lat, points,
                                            lambda lp: lat.cell_polygon(lp.i, lp.j),
                                            lambda lp: colour_fn(lp.i, lp.j))


REFERENCE_POSITIONED = {
    "basic3": (TriLattice(THREE_COLOUR_SIDE), 3, lambda i, j: (i - j) % 3),
    "rado1": (TriLattice(ONE_COLOUR_SIDE, colours=1), 1, lambda i, j: 0),
    "square2": (SquareLattice(TWO_COLOUR_SIDE), 2, lambda i, j: (i + j) % 2),
}


def reference_solve_positioned(disks: DiskSet, method: str):
    """basic3, rado1 or square2 with the scalar selection scan."""
    base, k, colour_fn = REFERENCE_POSITIONED[method]
    if len(disks) == 0:
        return _empty_result(method, k)
    copies = translate_to_cell(disks, base)
    witness = max_distinct_translate_depth(copies, base)
    labels, hits, cell_sum = reference_select_at(disks, base.at(*witness.point), colour_fn)
    info = LatticeInfo(base.kind, base.side, witness.point)
    return _finish(disks, labels, hits, cell_sum, method, k, info,
                   depth=witness.distinct_translates)


def reference_solve_weighted(disks: DiskSet, sampling: OffsetSampling):
    """The weighted solver's serial per-offset loop over the scalar scan."""
    if len(disks) == 0:
        return _empty_result("weighted3", 3)
    base = TriLattice(THREE_COLOUR_SIDE)
    copies = translate_to_cell(disks, base)
    witness = max_distinct_translate_depth(copies, base)

    offsets: list[Point] = [witness.point]
    centers = copies.centers
    verts = _pair_intersections(centers, copies.radii)
    for x, y in verts:
        a, b = base.affine(x, y)
        if 0.0 <= a < 1.0 and 0.0 <= b < 1.0:
            offsets.append(Point(float(x), float(y)))
    for x, y in centers:
        offsets.append(reference_wrap_to_cell(base, Point(float(x), float(y)))[0])
    g = sampling.grid_resolution
    for jj in range(g):
        for ii in range(g):
            offsets.append(base.point((ii + 0.5) / g, (jj + 0.5) / g))

    bbox = disks.bbox(pad=EPS)
    weights = [reference_weight_at_offset(disks, o, bbox)[0] for o in offsets]
    best = max(range(len(offsets)),
               key=lambda t: (weights[t], -offsets[t][0], -offsets[t][1]))
    best_offset = offsets[best]

    total, picks = reference_weight_at_offset(disks, best_offset, bbox)
    labels: list[Optional[int]] = [None] * len(disks)
    for lp, idx, _ in picks:
        labels[idx] = (lp.i - lp.j) % 3
    info = LatticeInfo("triangular", THREE_COLOUR_SIDE, best_offset)
    return _finish(disks, labels, len(picks), total, "weighted3", 3, info)


def full_search_solve_weighted(disks: DiskSet, sampling: OffsetSampling):
    """The weighted solver with the exact ``_select_cells`` on every
    candidate offset, in row chunks, and no screen."""
    if len(disks) == 0:
        return _empty_result("weighted3", 3)
    base = TriLattice(THREE_COLOUR_SIDE)
    copies = translate_to_cell(disks, base)
    witness = max_distinct_translate_depth(copies, base)

    verts = _pair_intersections(copies.centers, copies.radii)
    a, b = base.affine(verts[:, 0], verts[:, 1])
    inside = (0.0 <= a) & (a < 1.0) & (0.0 <= b) & (b < 1.0)
    wx, wy, _, _ = base.wrap_to_cell(copies.centers[:, 0], copies.centers[:, 1])
    g = sampling.grid_resolution
    grid = (np.arange(g) + 0.5) / g
    ga, gb = np.meshgrid(grid, grid)
    gx, gy = base.point(ga.ravel(), gb.ravel())
    ox = np.concatenate([[witness.point[0]], verts[inside, 0], wx, gx])
    oy = np.concatenate([[witness.point[1]], verts[inside, 1], wy, gy])

    rows = max(1, _CHUNK_BYTES // (_PAIR_BYTES * len(disks)))
    weights = np.concatenate([
        _select_cells(disks, base, ox[s:s + rows], oy[s:s + rows]).weights
        for s in range(0, len(ox), rows)]).tolist()
    oxs = ox.tolist()
    oys = oy.tolist()
    best = max(range(len(weights)), key=lambda t: (weights[t], -oxs[t], -oys[t]))
    best_offset = Point(oxs[best], oys[best])

    labels, hits, total = _select_at(disks, base.at(*best_offset))
    info = LatticeInfo(base.kind, base.side, best_offset)
    return _finish(disks, labels, hits, total, "weighted3", 3, info)


# Scalar reference implementations of the union-area layer, the same-colour
# check of verify() and the k-colour cell assignment.  The array code in
# diskpack must reproduce them bit for bit.

def _reference_uncovered_arcs(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Complement on the circle of a union of (start, length) angle intervals.

    Returns (phi1, phi2) arcs with phi2 > phi1; phi2 may exceed 2*pi for the
    single arc that wraps through zero.
    """
    if not intervals:
        return [(0.0, TWO_PI)]
    parts: list[list[float]] = []
    for s, length in intervals:
        s = s % TWO_PI
        e = s + length
        if e <= TWO_PI:
            parts.append([s, e])
        else:
            parts.append([s, TWO_PI])
            parts.append([0.0, e - TWO_PI])
    parts.sort()
    merged = [parts[0]]
    for s, e in parts[1:]:
        if s <= merged[-1][1] + 1e-15:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    gaps = []
    for (s0, e0), (s1, e1) in zip(merged, merged[1:]):
        if s1 - e0 > 1e-15:
            gaps.append((e0, s1))
    wrap = (TWO_PI - merged[-1][1]) + merged[0][0]
    if wrap > 1e-15:
        gaps.append((merged[-1][1], merged[0][0] + TWO_PI))
    return gaps


def _reference_arc_contribution(cx: float, cy: float, r: float, p1: float, p2: float) -> float:
    return 0.5 * (r * r * (p2 - p1)
                  + r * (cx * (math.sin(p2) - math.sin(p1))
                         - cy * (math.cos(p2) - math.cos(p1))))


def reference_exact_union_area(disks: DiskSet) -> float:
    """Exact area of the union by the per-circle loop; empty input gives 0."""
    if len(disks) == 0:
        return 0.0
    r = disks.radius
    centers = sorted(set(disks.centers))  # coincident circles collapse
    n = len(centers)
    if n == 1:
        return math.pi * r * r
    pts = np.array(centers, dtype=float)
    total = 0.0
    for i in range(n):
        dx = pts[:, 0] - pts[i, 0]
        dy = pts[:, 1] - pts[i, 1]
        d = np.hypot(dx, dy)
        near = np.nonzero((d > 0.0) & (d < 2.0 * r))[0]
        if near.size == 0:
            total += math.pi * r * r
            continue
        alpha = np.arctan2(dy[near], dx[near])
        beta = np.arccos(np.clip(d[near] / (2.0 * r), -1.0, 1.0))
        intervals = [(float(a - b), float(2.0 * b)) for a, b in zip(alpha, beta)]
        arcs = _reference_uncovered_arcs(intervals)
        if not arcs:
            continue
        # midpoint classification: drop arcs strictly inside some other disk
        mids = np.array([(0.5 * (p1 + p2)) for p1, p2 in arcs])
        mx = pts[i, 0] + r * np.cos(mids)
        my = pts[i, 1] + r * np.sin(mids)
        dist2 = (mx[:, None] - pts[None, :, 0]) ** 2 + (my[:, None] - pts[None, :, 1]) ** 2
        dist2[:, i] = np.inf
        covered = (dist2 < (r - EPS) * (r - EPS)).any(axis=1)
        for keep, (p1, p2) in zip(~covered, arcs):
            if keep:
                total += _reference_arc_contribution(pts[i, 0], pts[i, 1], r, p1, p2)
    return float(total)


def reference_monte_carlo_union_area(disks: DiskSet, samples: int, seed: int) -> MCEstimate:
    """The hit-or-miss estimate with (samples x 64-disk) distance blocks."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    if len(disks) == 0:
        return MCEstimate(0.0, 0.0)
    xmin, ymin, xmax, ymax = disks.bbox()
    w = xmax - xmin
    h = ymax - ymin
    box = w * h
    pts = disks.centers_array()
    r2 = disks.radius * disks.radius
    hits = 0
    chunk = 1 << 17
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        u = double_block(seed, 2 * done, 2 * m)
        xs = xmin + w * u[0::2]
        ys = ymin + h * u[1::2]
        covered = np.zeros(m, dtype=bool)
        for base in range(0, len(pts), 64):
            blk = pts[base:base + 64]
            d2 = (xs[:, None] - blk[None, :, 0]) ** 2 + (ys[:, None] - blk[None, :, 1]) ** 2
            covered |= (d2 <= r2).any(axis=1)
        hits += int(covered.sum())
        done += m
    p = hits / samples
    return MCEstimate(box * p, box * math.sqrt(max(p * (1.0 - p), 0.0) / samples))


def reference_near_pairs(x: np.ndarray, y: np.ndarray, reach: float, block_pairs: int):
    """``_near_pairs`` by nine lookups per cell: the same grid, the same
    (column, row) runs, and for each cell the cells (c + dc, r + dr) in the
    order dc = -1, 0, 1, then dr = -1, 0, 1, each found by one search for its
    exact complex key; blocks of about ``block_pairs`` directed pairs."""
    n = len(x)
    if n == 0:
        return
    side = reach + max(float(np.abs(x).max()), float(np.abs(y).max())) * 2.0 ** -50
    col = np.floor(x / side)
    row = np.floor(y / side)
    order, starts = _sorted_runs(row, col)
    counts = np.diff(starts, append=n)
    cell_of = np.empty(n, dtype=np.intp)
    cell_of[order] = np.repeat(np.arange(len(starts)), counts)
    keys = col[order[starts]] + 1j * row[order[starts]]
    near_start = np.zeros((len(starts), 9), dtype=np.intp)
    near_count = np.zeros((len(starts), 9), dtype=np.intp)
    around = [(dc, dr) for dc in (-1, 0, 1) for dr in (-1, 0, 1)]
    for k, (dc, dr) in enumerate(around):
        wanted = keys + complex(dc, dr)
        cell = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit = keys[cell] == wanted
        near_start[hit, k] = starts[cell[hit]]
        near_count[hit, k] = counts[cell[hit]]
    per_point = near_count[cell_of].sum(axis=1)
    before = np.cumsum(per_point) - per_point
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + block_pairs)))
        cnt = near_count[cell_of[lo:hi]].ravel()
        first = np.repeat(near_start[cell_of[lo:hi]].ravel() - (np.cumsum(cnt) - cnt), cnt)
        j = order[first + np.arange(len(first))]
        i = np.repeat(np.arange(lo, hi), per_point[lo:hi])
        other = j != i
        yield lo, hi, i[other], j[other]
        lo = hi


def reference_same_colour_check(disks: DiskSet, labels) -> None:
    """verify()'s pairwise scan: raise for the first overlapping pair of one
    colour, colours in order of first appearance, then by (i, j)."""
    by_colour: dict[int, list[int]] = {}
    for i, c in enumerate(labels):
        if c is not None:
            by_colour.setdefault(c, []).append(i)
    threshold = 2.0 * disks.radius - 1e-8
    for c, idxs in by_colour.items():
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                p, q = disks.centers[i], disks.centers[j]
                if math.hypot(p[0] - q[0], p[1] - q[1]) < threshold:
                    raise VerificationError(
                        f"disks {i} and {j} share colour {c} but overlap")


def nearest(lat: Lattice, p: Point) -> tuple[int, int]:
    """Index of the lattice point nearest to p; ties broken by smallest (i, j)."""
    a, b = lat.affine(p[0], p[1])
    i0 = math.floor(a)
    j0 = math.floor(b)
    best = None
    for j in range(j0 - 1, j0 + 3):
        for i in range(i0 - 1, i0 + 3):
            key = (squared_distance(p, lat.point(i, j)), i, j)
            if best is None or key < best:
                best = key
    return best[1], best[2]


def reference_kcolour_labels(disks: DiskSet, k: int) -> list[Optional[int]]:
    """solve_kcolour's labels by the scalar nearest-point loop."""
    lat = TriLattice(alpha_k(k))
    colouring = LoeschianColouring(k)
    cells: dict[tuple[int, int], int] = {}
    for idx, c in enumerate(disks.centers):
        ij = nearest(lat, c)
        cur = cells.get(ij)
        if cur is None:
            cells[ij] = idx
        else:
            q = lat.point(*ij)
            d_new = squared_distance(c, q)
            d_cur = squared_distance(disks.centers[cur], q)
            if d_new < d_cur - 1e-15:
                cells[ij] = idx
    labels: list[Optional[int]] = [None] * len(disks)
    for (i, j), idx in cells.items():
        labels[idx] = colouring.colour(i, j)
    return labels
