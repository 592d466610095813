"""Circle-arrangement machinery over the fundamental cell.

``translate_to_cell`` wraps every disk into the half-open fundamental cell,
one copy per cell translate the disk meets (at most 4 for the lattices used
here).  ``max_distinct_translate_depth`` then finds a cell point covered by
the largest number of distinct translates; repositioning the lattice so that
point becomes a lattice point yields at least that many lattice points inside
the union of the disks.

Candidate points are, per copy, the best in-cell point just inside its
boundary found by an angular sweep (``_cell_sweep_candidates``), plus every
copy's wrapped center; each candidate is scored by an exact closed-disk
recount, which makes the result independent of sweep bookkeeping and of
degeneracies such as tangencies.  Every arrangement face inside the cell is
bounded by a generated copy, and an intersection-free circle attains its
maximum at its (wrapped) center, so this candidate set is complete.

Most circles cannot reach the best count, so a branch and bound over a
quadtree of the cell (``_surviving_squares``) comes first: each square gets
an exact lower bound at its centre and an upper bound from the disks grown by
its half-diagonal, and only circles whose boundary meets a square that can
still hold the best count are swept, each against all k copies.  On random
instances that is a few percent of the circles (under 1 % for k ~ 7000).
The work is an O(k) count for each of roughly k squares plus O(k log k) per
swept circle: still quadratic, but in membership tests rather than in the
sorted events of sweeping every circle.  Below ``_BRANCH_MIN_COPIES`` copies
every circle is swept outright, which is then faster.

The sweep and the recount are NumPy code over chunks of rows (circles or
candidates) against all k copies.  A chunk's row count comes from the fixed
byte budget ``_CHUNK_BYTES``, so memory is O(k * chunk) rather than O(k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InputError
from .geometry import EPS, Point, _sorted_runs
from .lattice import Lattice
from .union_area import DiskSet

# byte budget of one row chunk of the sweep, the recount and the weighted
# solver's offset search: it keeps peak memory below the old k x k matrices'
# even at k ~ 200, and larger budgets were not faster for k = 700..7400
_CHUNK_BYTES = 2_000_000
# bytes of sweep temporaries alive at once per (row, event column)
_SWEEP_BYTES_PER_EVENT = 64
# arc midpoints within this affine distance of a cell edge are re-tested
# with the scalar expression
_EDGE_BAND = 1e-9
# deepest quadtree level of the depth search's branch and bound (side 2**-30
# of the cell, near EPS for the cells used here)
_MAX_LEVEL = 30
# the depth search refines its quadtree while the next level bounds fewer than
# this many squares per circle left to sweep; of 4, 8, 16 and 32, 8 ran
# fastest at n = 200 and within 10 % of the fastest at n = 1000 and 2000
_ROW_SQUARES = 8
# below this many copies every circle is swept without the branch and bound,
# whose fixed cost per level then outweighs what it prunes: on gen_random
# ladders the two cost the same between 100 and 135 copies on all three
# lattices (BENCH_weighted.json)
_BRANCH_MIN_COPIES = 120


@dataclass(frozen=True, eq=False)
class CellCopies:
    """Disk copies wrapped into the fundamental cell, one row per copy:
    ``centers`` (k, 2), ``radii`` (k,), int64 translate ``ids`` (k, 2) and
    the index of the ``source`` disk (k,)."""

    centers: np.ndarray
    radii: np.ndarray
    ids: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return len(self.radii)


@dataclass(frozen=True)
class DepthWitness:
    point: Point
    distinct_translates: int
    per_translate_counts: Mapping[tuple[int, int], int]


def translate_to_cell(disks: DiskSet, lattice: Lattice) -> CellCopies:
    """One copy of each disk per (half-open) cell translate it intersects.

    Copies are listed disk by disk, each disk's translates in (dj, di) order.
    All disks are tested against the nine translates around their own cell
    at once; the arithmetic is the per-disk scalar arithmetic, element-wise.
    """
    if abs(disks.radius - 1.0) > 1e-9:
        raise InputError("translate_to_cell expects unit disks")
    r = disks.radius
    pts = disks.centers_array()
    px, py, i0, j0 = lattice.wrap_to_cell(pts[:, 0], pts[:, 1])
    a, b = lattice.affine(px, py)
    ux, uy = lattice.u
    vx, vy = lattice.v
    shifts = [(di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1)]
    keep = np.empty((len(pts), len(shifts)), dtype=bool)
    for col, (di, dj) in enumerate(shifts):
        # distance to the closed cell translate (di, dj) and the closest point
        ox, oy = lattice.point(di, dj)
        corners = ((ox, oy), (ox + ux, oy + uy), (ox + ux + vx, oy + uy + vy), (ox + vx, oy + vy))
        best_d2 = best_qx = best_qy = None
        for e in range(4):
            ax, ay = corners[e]
            bx, by = corners[(e + 1) % 4]
            ex = bx - ax
            ey = by - ay
            t = ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey)
            t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
            qx = ax + t * ex
            qy = ay + t * ey
            # float_power calls C pow like Python's ** does; x*x can differ by an ulp
            d2 = np.float_power(px - qx, 2.0) + np.float_power(py - qy, 2.0)
            if best_d2 is None:
                best_d2, best_qx, best_qy = d2, qx, qy
            else:
                closer = d2 < best_d2
                best_d2 = np.where(closer, d2, best_d2)
                best_qx = np.where(closer, qx, best_qx)
                best_qy = np.where(closer, qy, best_qy)
        inside = (0.0 <= a - di) & (a - di <= 1.0) & (0.0 <= b - dj) & (b - dj <= 1.0)
        d = np.where(inside, 0.0, np.sqrt(best_d2))
        # tangent contact: include only when the touch point belongs to the
        # half-open cell
        ca, cb = lattice.affine(best_qx, best_qy)
        touch_in = (di <= ca) & (ca < di + 1.0) & (dj <= cb) & (cb < dj + 1.0)
        tangent = (d > r - 1e-12) & (d > 0.0)
        keep[:, col] = (d <= r + 1e-12) & (~tangent | touch_in)
    rows, cols = np.nonzero(keep)
    di, dj = np.array(shifts, dtype=np.int64)[cols].T
    cx = px[rows] - di * ux - dj * vx
    cy = py[rows] - di * uy - dj * vy
    ids = []
    for cell, step in ((i0[rows], di), (j0[rows], dj)):
        # the id cell + step must lie in [-2**63, 2**63); near either end
        # these float differences are exact
        if not ((cell + 2.0 ** 63 >= -step) & (2.0 ** 63 - cell > step)).all():
            raise InputError("translate id does not fit in 64 bits")
        ids.append(cell.astype(np.int64) + step)
    return CellCopies(np.stack([cx, cy], axis=1), np.full(len(rows), r),
                      np.stack(ids, axis=1), rows)


def _pair_intersections(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Intersection points of every crossing or tangent circle pair, as (M, 2)."""
    n = len(centers)
    if n < 2:
        return np.empty((0, 2), dtype=float)
    ii, jj = np.triu_indices(n, k=1)
    dx = centers[jj, 0] - centers[ii, 0]
    dy = centers[jj, 1] - centers[ii, 1]
    d = np.hypot(dx, dy)
    ri = radii[ii]
    rj = radii[jj]
    mask = (d > 0.0) & (d <= ri + rj) & (d >= np.abs(ri - rj))
    if not mask.any():
        return np.empty((0, 2), dtype=float)
    ii, jj, dx, dy, d, ri, rj = ii[mask], jj[mask], dx[mask], dy[mask], d[mask], ri[mask], rj[mask]
    a = (d * d + ri * ri - rj * rj) / (2.0 * d)
    h = np.sqrt(np.maximum(ri * ri - a * a, 0.0))
    bx = centers[ii, 0] + a * dx / d
    by = centers[ii, 1] + a * dy / d
    px = -dy / d * h
    py = dx / d * h
    pts = np.concatenate([np.stack([bx + px, by + py], axis=1),
                          np.stack([bx - px, by - py], axis=1)])
    return pts


def _membership_chunks(cands: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """Yield (base, memb) bool blocks of the closed-disk membership matrix;
    each block is valid until the next one is yielded.

    Uses |q - c|^2 = |q|^2 - 2 q.c + |c|^2 with a BLAS product for the cross
    term; coordinates are re-centered first so the expansion stays well
    conditioned at the tolerance used.
    """
    mid = centers.mean(axis=0)
    c = centers - mid
    q_all = cands - mid
    col = (c * c).sum(axis=1) - (radii + EPS) ** 2
    k = max(len(centers), 1)
    # two float blocks and the bool block, 17 bytes a pair, serve every
    # chunk: fresh blocks this large cost page faults chunk after chunk
    chunk = max(2, _CHUNK_BYTES // (32 * k))
    cross = np.empty((max(2, min(chunk, len(cands))), len(centers)))
    rhs = np.empty_like(cross)
    memb = np.empty(cross.shape, dtype=bool)
    for base in range(0, len(cands), chunk):
        q = q_all[base:base + chunk]
        m = len(q)
        # a one-row product runs BLAS's gemv, which rounds differently from
        # gemm: a last single row is doubled, so that a count does not
        # depend on the chunk it falls in
        np.matmul(q if m > 1 else q[[0, 0]], c.T, out=cross[:max(m, 2)])
        np.multiply(cross[:m], 2.0, out=cross[:m])
        np.add((q * q).sum(axis=1)[:, None], col, out=rhs[:m])
        yield base, np.greater_equal(cross[:m], rhs[:m], out=memb[:m])


def _distinct_counts(cands: np.ndarray, centers: np.ndarray, radii: np.ndarray,
                     group_starts: np.ndarray) -> np.ndarray:
    """Number of translate groups covering each candidate (closed disks)."""
    counts = np.empty(len(cands), dtype=np.int64)
    for base, memb in _membership_chunks(cands, centers, radii):
        covered = np.logical_or.reduceat(memb, group_starts, axis=1)
        counts[base:base + len(memb)] = np.count_nonzero(covered, axis=1)
    return counts


def _cell_sweep_candidates(centers: np.ndarray, radii: np.ndarray,
                           groups: np.ndarray, n_groups: int, lattice: Lattice,
                           rows: np.ndarray | None = None) -> list[tuple[float, float]]:
    """Best point per circle boundary by angular sweep, restricted to the cell,
    for the circles ``rows`` (default: all).

    Walking just inside each circle visits every arrangement face adjacent to
    it from the inside, which is where the distinct-translate count attains
    its maximum; cell-edge crossings are added as arc splits so that every
    evaluated arc midpoint lies in the half-open cell.

    The sweep is array code over chunks of circles (rows) against all k
    copies, with the row count set by ``_CHUNK_BYTES``, so memory is
    O(k * chunk) rather than O(k^2).  A row's point does not depend on the
    other rows, so any subset of the circles may be swept.  Per row, the
    events (two crossing angles per crossed circle, plus the splits) are
    sorted by angle; a stable sort on the translate group then gives each
    group's running count as a segmented cumulative sum, whose 0 -> 1 and
    1 -> 0 transitions are the +-1 steps of the distinct count on the arcs.
    The first in-cell arc of largest count gives the row's point.  Equal
    angles may be taken in any order: the count after a set of events does
    not depend on it, and zero-length arcs are skipped.
    """
    k = len(centers)
    ox, oy = lattice.offset
    a0, b0 = lattice.affine(ox, oy)
    a_dx, b_dx = lattice.affine(ox + 1.0, oy)
    a_dy, b_dy = lattice.affine(ox, oy + 1.0)
    gax, gay = a_dx - a0, a_dy - a0
    gbx, gby = b_dx - b0, b_dy - b0
    edges = (math.hypot(gax, gay), math.atan2(gay, gax),
             math.hypot(gbx, gby), math.atan2(gby, gbx))
    if rows is None:
        rows = np.arange(k)
    chunk = max(1, _CHUNK_BYTES // (_SWEEP_BYTES_PER_EVENT * (2 * k + 8)))
    out: list[tuple[float, float]] = []
    for lo in range(0, len(rows), chunk):
        out += _sweep_rows(centers, radii, groups, n_groups, lattice, edges,
                           rows[lo:lo + chunk])
    return out


def _sweep_rows(centers, radii, groups, n_groups, lattice, edges, rows):
    """``_cell_sweep_candidates`` for the circles ``rows``."""
    two_pi = 2.0 * math.pi
    k = len(centers)
    nrow = len(rows)
    cx = centers[rows, 0]
    cy = centers[rows, 1]
    ri = radii[rows, None]
    dx = centers[:, 0][None, :] - cx[:, None]
    dy = centers[:, 1][None, :] - cy[:, None]
    d = np.hypot(dx, dy)
    near = (d > 0.0) & (d < ri + radii)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosv = (ri * ri + d ** 2 - radii ** 2) / (2.0 * ri * d)
    # coincident circles and circles containing this one cover every angle
    full_r, full_c = np.divmod(np.flatnonzero((d == 0.0) | (near & (cosv < -1.0))), k)
    cross = np.flatnonzero(near & (cosv >= -1.0) & (cosv <= 1.0))
    cross_r, cross_c = np.divmod(cross, k)
    cv = np.take(cosv, cross)
    alpha = np.arctan2(np.take(dy, cross), np.take(dx, cross))
    beta = np.arccos(cv)
    del dx, dy, d, near, cosv

    # per (row, group) counts at angle 0; column n_groups collects the
    # events that carry no count (splits and padding)
    width = n_groups + 1
    at_zero = np.cos(alpha) >= cv
    init = np.bincount(np.concatenate([full_r, cross_r[at_zero]]) * width
                       + groups[np.concatenate([full_c, cross_c[at_zero]])],
                       minlength=nrow * width).reshape(nrow, width)

    # event columns: circle c enters at column c and leaves at k + c; the
    # last 8 columns hold the cell-edge splits; +inf marks no event
    ang = np.full((nrow, 2 * k + 8), np.inf)
    enter = cross_r * (2 * k + 8) + cross_c
    np.put(ang, enter, _mod_two_pi(alpha - beta))
    np.put(ang, enter + k, _mod_two_pi(alpha + beta))
    del alpha, beta, cv, enter
    grad_a, psi_a, grad_b, psi_b = edges
    for row in range(nrow):
        col = 2 * k
        r = ri[row, 0]
        ai, bi = lattice.affine(cx[row], cy[row])
        for val, grad, psi in ((ai, r * grad_a, psi_a), (bi, r * grad_b, psi_b)):
            for t in (0.0, 1.0):
                arg = (t - val) / grad
                if -1.0 <= arg <= 1.0:
                    da = math.acos(arg)
                    ang[row, col] = (psi + da) % two_pi
                    ang[row, col + 1] = (psi - da) % two_pi
                    col += 2
    m = int(np.isfinite(ang).sum(axis=1).max())
    order = np.argsort(ang, axis=1)[:, :m]
    ang = _take_rows(ang, order)
    pad = np.isinf(ang)
    # the smallest unsigned type lets the stable sort below run as a radix sort
    col_group = np.concatenate([groups, groups, np.full(8, n_groups)]).astype(
        np.min_scalar_type(n_groups))
    col_delta = np.concatenate([np.ones(k, dtype=np.int32), -np.ones(k, dtype=np.int32),
                                np.zeros(8, dtype=np.int32)])
    grp = col_group[order]
    grp[pad] = n_groups
    delta = col_delta[order]
    delta[pad] = 0
    del order

    # running count of each event's group just after the event: a stable
    # sort by group keeps angle order within a group, and every crossed
    # circle enters and leaves once, so a group's events sum to zero and the
    # cumulative sum over a row restarts at 0 at every group boundary
    by_grp = np.argsort(grp, axis=1, kind="stable") + _row_offsets(grp)
    delta = np.take(delta, by_grp)
    after = np.cumsum(delta, axis=1, dtype=np.int32) + _take_rows(init, np.take(grp, by_grp))
    step = np.empty((nrow, m), dtype=np.int32)
    np.put(step, by_grp, (after > 0).astype(np.int32) - (after - delta > 0))
    del grp, delta, after, by_grp

    # arc t runs from event t-1 (or angle 0) to event t (or 2*pi)
    count = np.empty((nrow, m + 1), dtype=np.int32)
    count[:, 0] = (init[:, :n_groups] > 0).sum(axis=1)
    np.cumsum(step, axis=1, out=count[:, 1:])
    count[:, 1:] += count[:, :1]
    ends = np.empty((nrow, m + 1))
    ends[:, :m] = np.where(pad, two_pi, ang)
    ends[:, m] = two_pi
    starts = np.empty((nrow, m + 1))
    starts[:, 0] = 0.0
    starts[:, 1:] = ends[:, :m]
    score = np.where(ends - starts > 1e-15, count, -1)
    mids = 0.5 * (starts + ends)
    # the cell test runs on each row's top-count arcs first; only rows where
    # none of them lies in the cell test all their arcs
    best = _best_in_cell(lattice, cx, cy, ri, mids, score,
                         score == score.max(axis=1, keepdims=True))
    retry = best < 0
    if retry.any():
        best[retry] = _best_in_cell(lattice, cx, cy, ri, mids, score, retry[:, None])[retry]
    return [_arc_point(cx, cy, ri, mids, row, t) for row, t in enumerate(best.tolist()) if t >= 0]


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, idx, axis=1)`` for 2-D arrays, as one flat take."""
    return np.take(a, idx + _row_offsets(a))


def _row_offsets(a: np.ndarray) -> np.ndarray:
    """Flat index of the first element of each row of a 2-D array, as a column."""
    return np.arange(len(a))[:, None] * a.shape[1]


def _mod_two_pi(x: np.ndarray) -> np.ndarray:
    """``np.mod(x, 2*pi)`` for x in [-2*pi, 2*pi], without its slow fmod.

    On that range fmod returns x, or x -+ 2*pi exactly (Sterbenz), so both
    give the same rounded sum; adding 0.0 turns -0.0 into np.mod's +0.0.
    """
    two_pi = 2.0 * math.pi
    return np.where(x < 0.0, x + two_pi, np.where(x >= two_pi, x - two_pi, x)) + 0.0


def _best_in_cell(lattice, cx, cy, ri, mids, score, test):
    """Per row, the first tested arc of largest score whose midpoint lies in
    the half-open cell, or -1; arcs with a negative score are never taken."""
    rows, ts = np.nonzero(test & (score >= 0))
    mid = mids[rows, ts]
    r = ri[rows, 0]
    a, b = lattice.affine(cx[rows] + r * np.cos(mid), cy[rows] + r * np.sin(mid))
    inside = (0.0 <= a) & (a < 1.0) & (0.0 <= b) & (b < 1.0)
    # NumPy's cos/sin may differ from libm's by an ulp: re-test midpoints
    # close to a cell edge with the scalar expression that emits the point
    edge = np.minimum(np.minimum(np.abs(a), np.abs(a - 1.0)),
                      np.minimum(np.abs(b), np.abs(b - 1.0))) <= _EDGE_BAND
    for e in np.flatnonzero(edge).tolist():
        px, py = _arc_point(cx, cy, ri, mids, rows[e], ts[e])
        a_e, b_e = lattice.affine(px, py)
        inside[e] = 0.0 <= a_e < 1.0 and 0.0 <= b_e < 1.0
    kept = np.full(score.shape, -1, dtype=score.dtype)
    kept[rows[inside], ts[inside]] = score[rows[inside], ts[inside]]
    best = kept.argmax(axis=1)
    return np.where(kept[np.arange(len(best)), best] >= 0, best, -1)


def _arc_point(cx, cy, ri, mids, row, t):
    mid = mids[row, t]
    r = ri[row, 0]
    return (cx[row] + r * math.cos(mid), cy[row] + r * math.sin(mid))


def _surviving_squares(centers, radii, group_starts, lattice):
    """Branch and bound over a quadtree of squares in the cell's affine
    coordinates [0, 1)^2, level by level.

    A square's lower bound is the exact count at its centre, a real cell
    point; its upper bound is the count at the centre with every radius grown
    by ``reach``, the square's Cartesian half-diagonal plus ``margin``, so it
    bounds the count at every point of the square.  A square survives while
    its upper bound is >= the best lower bound so far (``floor``), and a
    circle stays a row to sweep while its boundary meets a surviving square.
    Survivors are split into four until the next level would bound at least
    ``_ROW_SQUARES`` times as many squares as there are rows left to sweep,
    so no level bounds more than ``_ROW_SQUARES`` * k squares.  Returns the
    centres of the surviving leaves, their ``reach``, the rows and ``floor``.

    ``margin`` covers rounding.  Let B >= 1 bound the norm of every point
    and centre in the recentred frame of ``_membership_chunks`` and every
    radius + EPS there; ``big`` is such a B.  That test errs by less than
    30u*B^2 in squared distance (u = 2**-53, recentring included), so a
    point it accepts lies within r + EPS + 15u*B^2/r of the centre, and the
    grown test at the square's centre accepts every point within
    r' + EPS - 30u*B^2/r'.  The margin must cover both terms, plus the
    rounding of the square's centre, of reach, of a candidate on its circle
    and of the squared distances in ``_boundaries_near`` (a few u*B each):
    256u*B^2/min(r) does, about five times over, and is ~1e-12 for unit
    disks in the cells used here.
    """
    k = len(centers)
    ux, uy = lattice.u
    vx, vy = lattice.v
    unit_half_diag = 0.5 * max(math.hypot(ux + vx, uy + vy), math.hypot(ux - vx, uy - vy))
    big = (2.0 * float(np.hypot(centers[:, 0], centers[:, 1]).max()) + math.hypot(*lattice.offset)
           + math.hypot(ux, uy) + math.hypot(vx, vy) + float(radii.max()) + 1.0)
    rmin = float(radii.min())
    margin = 256.0 * 2.0 ** -53 * big * big / rmin if rmin > 0.0 else math.inf
    ia = ib = np.zeros(1, dtype=np.int64)
    rows = np.arange(k)
    floor = 0
    level = 0
    while True:
        size = 0.5 ** level
        sx, sy = lattice.point((ia + 0.5) * size, (ib + 0.5) * size)
        pts = np.stack([sx, sy], axis=1)
        reach = size * unit_half_diag + margin
        upper = _distinct_counts(pts, centers, radii + reach, group_starts)
        # a square whose upper bound is below the floor cannot raise it
        live = np.flatnonzero(upper >= floor)
        lower = _distinct_counts(pts[live], centers, radii, group_starts)
        floor = max(floor, int(lower.max(initial=0)))
        keep = live[upper[live] >= floor]
        ia, ib, pts = ia[keep], ib[keep], pts[keep]
        rows = _boundaries_near(centers, radii, rows, pts, reach)
        if 4 * len(ia) >= _ROW_SQUARES * len(rows) or level == _MAX_LEVEL:
            return pts, reach, rows, floor
        ia = (2 * ia[:, None] + np.array([0, 1, 0, 1])).ravel()
        ib = (2 * ib[:, None] + np.array([0, 0, 1, 1])).ravel()
        level += 1


def _boundaries_near(centers, radii, rows, pts, reach):
    """The circles among ``rows`` whose boundary passes within ``reach`` of
    one of the points ``pts``: (r - reach)^2 <= d^2 <= (r + reach)^2.  A
    circle of radius 0 is a point."""
    cx = centers[rows, 0]
    cy = centers[rows, 1]
    lo = np.square(np.maximum(radii[rows] - reach, 0.0))
    hi = np.square(radii[rows] + reach)
    meets = np.zeros(len(rows), dtype=bool)
    # two float and two bool blocks serve every chunk, as in _membership_chunks
    chunk = max(1, _CHUNK_BYTES // (24 * len(rows)))
    shape = (min(chunk, len(pts)), len(rows))
    bufs = (np.empty(shape), np.empty(shape),
            np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
    for base in range(0, len(pts), chunk):
        p = pts[base:base + chunk]
        d2, dy, above, below = (b[:len(p)] for b in bufs)
        np.square(np.subtract(p[:, :1], cx, out=d2), out=d2)
        np.square(np.subtract(p[:, 1:], cy, out=dy), out=dy)
        np.add(d2, dy, out=d2)
        np.greater_equal(d2, lo, out=above)
        np.less_equal(d2, hi, out=below)
        meets |= np.logical_and(above, below, out=above).any(axis=0)
    return rows[meets]


def _scored_candidates(centers, radii, groups, group_starts, lattice, rows, extra):
    """Sweep candidates of the circles ``rows`` plus the points ``extra``,
    with their exact counts."""
    sweep_pts = _cell_sweep_candidates(centers, radii, groups, len(group_starts), lattice, rows)
    cands = np.concatenate([np.array(sweep_pts, dtype=float).reshape(-1, 2), extra])
    return cands, _distinct_counts(cands, centers, radii, group_starts)


def max_distinct_translate_depth(copies: CellCopies, lattice: Lattice) -> DepthWitness:
    """Cell point covered by the most distinct translates; lexicographic ties.

    With at least ``_BRANCH_MIN_COPIES`` copies, only circles whose boundary
    meets a square that survives
    ``_surviving_squares`` are swept, and only wrapped centres within reach
    of such a square's centre are recounted.  Every other candidate lies in
    a pruned square, so its count is below ``floor`` and below the best
    count, which is at least ``floor``: the set of best candidates, and so
    the witness, is the one the full sweep finds.  Should no kept candidate
    reach ``floor`` (a cell point inside EPS-closed disks that the sweep's
    open circles do not reach), every circle and centre is scored instead.
    """
    if len(copies) == 0:
        raise InputError("max_distinct_translate_depth needs at least one circle")
    if not np.isfinite(copies.centers).all():
        raise InputError("non-finite circle center")

    # group circles by translate id for the distinct count
    order, group_starts = _sorted_runs(copies.ids[:, 1], copies.ids[:, 0])
    centers = copies.centers[order]
    radii = copies.radii[order]
    ids = copies.ids[order]
    groups = np.repeat(np.arange(len(group_starts)), np.diff(group_starts, append=len(ids)))

    # the copies of one disk nearly always wrap back to one point: keep each
    # bit pattern once
    wx, wy, _, _ = lattice.wrap_to_cell(centers[:, 0], centers[:, 1])
    bits = np.stack([wx, wy], axis=1).view(np.int64)
    order, first = _sorted_runs(bits[:, 1], bits[:, 0])
    wrapped = bits[order[first]].view(np.float64)

    args = (centers, radii, groups, group_starts, lattice)
    if len(centers) < _BRANCH_MIN_COPIES:
        cands, counts = _scored_candidates(*args, np.arange(len(centers)), wrapped)
    else:
        leaves, reach, rows, floor = _surviving_squares(centers, radii, group_starts, lattice)
        near = _boundaries_near(wrapped, np.zeros(len(wrapped)), np.arange(len(wrapped)),
                                leaves, reach)
        cands, counts = _scored_candidates(*args, rows, wrapped[near])
        if len(counts) == 0 or counts.max() < floor:
            cands, counts = _scored_candidates(*args, np.arange(len(centers)), wrapped)
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
