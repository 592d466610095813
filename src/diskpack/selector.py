"""End-to-end solvers: position a lattice, select one disk per in-union
lattice point, colour by lattice colour.

Same-coloured selected disks are disjoint by construction: the same-colour
sublattice distance minus two disk radii is at least the disjointness
threshold for every lattice used here.  Coverage reports carry both the true
union area of the selection and the per-cell accounting that underlies the
guarantees.

All four lattice solvers (basic3, rado1, square2, weighted3) select through
one array routine, ``_select_cells``: for an array of lattice offsets it
keeps, at every lattice point inside the union, the covering disk with the
largest overlap with the point's Voronoi cell.  A unit disk holds at most one
point of these lattices, so each disk tests four candidate points and the
cost is O(offsets * n), whatever the bounding box.  The positioned solvers
call it with one offset.  The weighted solver first bounds the weight of
every candidate offset from a table of disk/cell overlaps
(``_weight_bounds``), then runs ``_select_cells`` in descending order of
bound, only while a bound can still reach the best exact weight, and once
more at the winner; the winner is the one an exact evaluation of every
candidate would pick.  Both passes work in chunks of rows sized by the
arrangement's ``_CHUNK_BYTES``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .arrangement import (_CHUNK_BYTES, _pair_intersections,
                          max_distinct_translate_depth, translate_to_cell)
from .bounds import bound_table, kcolour_guarantee, alpha_k
from .errors import InputError, VerificationError
from .geometry import EPS, Point, _edge_disk_area_array, _scan_runs, _sorted_runs
from .lattice import (Lattice, LoeschianColouring, SquareLattice, TriLattice,
                      ONE_COLOUR_SIDE, THREE_COLOUR_SIDE, TWO_COLOUR_SIDE,
                      loeschian_decompose)
from .union_area import DiskSet, _near_pairs, exact_union_area

# one (offset, disk) pair of the weighted solver's exact selection holds
# about _PAIR_BYTES of temporaries, and one of its screen _SCREEN_PAIR_BYTES
_PAIR_BYTES = 1024
_SCREEN_PAIR_BYTES = 256
# the screen's overlap table: node spacing, nodes either side of 0 on each
# axis (spanning the 1 + 2 * EPS that covering disks reach) and disk radius,
# the largest translate_to_cell admits
_TABLE_STEP = 2.0 ** -8
_TABLE_HALF = 257
_TABLE_RADIUS = 1.0 + 1e-9
# Lipschitz constant of a disk/cell overlap in the disk centre, radius <=
# _TABLE_RADIUS: the circle's perimeter
_LIPSCHITZ = 2.0 * math.pi * _TABLE_RADIUS
# offsets the weighted solver evaluates exactly before the first cut-off
_TOP_BLOCK = 8


@dataclass(frozen=True)
class LatticeInfo:
    kind: str
    side: float
    offset: Point


@dataclass(frozen=True)
class Assignment:
    labels: tuple[Optional[int], ...]
    k: int
    method: str
    lattice: Optional[LatticeInfo]

    @property
    def selected_count(self) -> int:
        return sum(1 for c in self.labels if c is not None)

    def selected_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.labels) if c is not None]


@dataclass(frozen=True)
class CoverageReport:
    union_area: float
    selected_union_area: float
    ratio: float
    guarantee: float
    lattice_points_hit: int
    lattice_offset: Optional[Point]
    positioning_depth: Optional[int] = None
    cell_area_bound: Optional[float] = None


@dataclass(frozen=True)
class OffsetSampling:
    """Candidate offsets for the weight-maximizing solver: a grid over the
    fundamental cell plus the positioning candidates of the count solver."""

    grid_resolution: int = 256

    def __post_init__(self) -> None:
        g = self.grid_resolution
        # bool is an int subclass; a float grid would sample (x + 0.5) / g
        if isinstance(g, bool) or not isinstance(g, int) or g < 1:
            raise InputError(f"grid resolution must be an integer >= 1, got {g!r}")


# the k each solver writes; loeschian<K> writes K
_SOLVER_K = {"basic3": 3, "weighted3": 3, "square2": 2, "rado1": 1}


def _method_guarantee(method: str, k: int) -> float:
    table = bound_table()
    if method == "basic3" or method == "weighted3":
        return table.c3_basic
    if method == "rado1":
        return table.c1_lb
    if method == "square2":
        return table.c2_basic
    if method.startswith("loeschian"):
        return kcolour_guarantee(k)
    return 0.0


def _empty_result(method: str, k: int) -> tuple[Assignment, CoverageReport]:
    assignment = Assignment(labels=(), k=k, method=method, lattice=None)
    report = CoverageReport(0.0, 0.0, 1.0, _method_guarantee(method, k), 0, None)
    return assignment, report


class _Selection(NamedTuple):
    """Result of ``_select_cells``.

    Per offset row: ``weights`` (summed cell overlap of the chosen disks) and
    ``hits`` (lattice points inside the union).  Per pick, sorted by (row, j,
    i): the lattice point (i, j) and the chosen disk.
    """

    weights: np.ndarray
    hits: np.ndarray
    i: np.ndarray
    j: np.ndarray
    disk: np.ndarray


# Every positioned lattice side (THREE_COLOUR_SIDE, ONE_COLOUR_SIDE,
# TWO_COLOUR_SIDE) exceeds 2 * (r + EPS) for the unit disks translate_to_cell
# admits (|r - 1| <= 1e-9), so a disk holds at most one lattice point.  That
# point is one of the 2 x 2 lattice points around the floor of the disk
# centre's affine coordinates, because the disk spans less than one unit of
# each affine coordinate.
def _select_cells(disks: DiskSet, lattice: Lattice,
                  ox: np.ndarray, oy: np.ndarray) -> _Selection:
    """For the lattice moved to each offset (ox[t], oy[t]): every lattice
    point inside the union keeps the covering disk with the largest overlap
    with its Voronoi cell (lowest index on ties within 1e-12).

    Cost is O(offsets * n), independent of the bounding-box area.  The
    arithmetic repeats the scalar per-point scan it replaced operation for
    operation, so the results are equal bit for bit.
    """
    m = len(ox)
    n = len(disks)
    r = disks.radius
    centers = disks.centers_array()

    # one entry per (offset, disk, candidate lattice point), flattened
    a, b = lattice.at(ox[:, None, None], oy[:, None, None]).affine(
        centers[:, 0][:, None], centers[:, 1][:, None])
    i = (np.floor(a) + np.array([0.0, 1.0, 0.0, 1.0])).ravel()
    j = (np.floor(b) + np.array([0.0, 0.0, 1.0, 1.0])).ravel()
    x, y = lattice.at(np.repeat(ox, 4 * n), np.repeat(oy, 4 * n)).point(i, j)
    xmin, ymin, xmax, ymax = disks.bbox(pad=EPS)
    listed = (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)
    ddx = np.tile(np.repeat(centers[:, 0], 4), m) - x
    ddy = np.tile(np.repeat(centers[:, 1], 4), m) - y
    covered = ddx * ddx + ddy * ddy <= (r + EPS) * (r + EPS)

    idx = np.flatnonzero(covered & listed)
    i, j = i[idx], j[idx]
    row = idx // (4 * n)
    disk = idx // 4 % n
    vx, vy = np.array(lattice.cell).T
    rx = (x[idx, None] + vx) - centers[disk, 0][:, None]
    ry = (y[idx, None] + vy) - centers[disk, 1][:, None]
    bx = np.roll(rx, -1, axis=1)
    by = np.roll(ry, -1, axis=1)
    edges = _edge_disk_area_array(rx.ravel(), ry.ravel(), bx.ravel(), by.ravel(),
                                  r).reshape(rx.shape)
    area = np.zeros(len(disk))
    for k in range(len(vx)):
        area += edges[:, k]

    # one run per (offset, lattice point) in (row, j, i) order, ascending
    # disk index within a run; the scan keeps the largest area by > 1e-12
    order, starts = _sorted_runs(i, j, row)
    kept = order[_scan_runs(starts, area[order], lambda new, cur: new > cur + 1e-12)]
    # per offset, the sequential sum of the chosen areas in (j, i) order:
    # bincount adds from 0.0 in input order
    prow = row[kept]
    return _Selection(np.bincount(prow, area[kept], minlength=m),
                      np.bincount(prow, minlength=m), i[kept], j[kept], disk[kept])


def _select_at(disks: DiskSet, lattice: Lattice):
    """Labels, hit count and summed cell overlap of the selection on this lattice."""
    ox, oy = lattice.offset
    sel = _select_cells(disks, lattice, np.array([ox]), np.array([oy]))
    labels: list[Optional[int]] = [None] * len(disks)
    for i, j, d in zip(sel.i.tolist(), sel.j.tolist(), sel.disk.tolist()):
        labels[d] = lattice.colour(int(i), int(j))
    return labels, int(sel.hits[0]), float(sel.weights[0])


def _unit_scale(disks: DiskSet) -> tuple[float, DiskSet]:
    """(scale, disks / scale): the lattice solvers position and select disks
    of radius 1 +- 1e-9, the radii ``translate_to_cell`` admits, so other
    radii are solved on the centres divided by the radius."""
    r = disks.radius
    if abs(r - 1.0) <= 1e-9:
        return 1.0, disks
    return r, DiskSet(1.0, disks.centers_array() / r)


def _select_scaled(disks: DiskSet, scale: float, unit: DiskSet, lattice: Lattice,
                   method: str, k: int, depth=None) -> tuple[Assignment, CoverageReport]:
    """Select ``unit`` on ``lattice``, then report for ``disks`` with the
    lattice and the cell sum scaled back."""
    labels, hits, cell_sum = _select_at(unit, lattice)
    ox, oy = lattice.offset
    info = LatticeInfo(lattice.kind, lattice.side * scale, Point(ox * scale, oy * scale))
    return _finish(disks, labels, hits, cell_sum * scale * scale, method, k, info, depth)


def _areas(disks: DiskSet, assignment: Assignment) -> tuple[float, float, float]:
    """(A, A_c, A_c / A): the union area, the selected disks' union area and
    their ratio, 1 when A is 0."""
    a = exact_union_area(disks)
    a_c = exact_union_area(disks.subset(assignment.selected_indices())) \
        if assignment.selected_count else 0.0
    return a, a_c, a_c / a if a > 0.0 else 1.0


def _finish(disks: DiskSet, labels, hits, cell_sum, method, k, info,
            depth=None) -> tuple[Assignment, CoverageReport]:
    assignment = Assignment(tuple(labels), k, method, info)
    report = CoverageReport(*_areas(disks, assignment), _method_guarantee(method, k), hits,
                            info.offset if info else None, depth, cell_sum)
    return assignment, report


def _solve_positioned(disks: DiskSet, base: Lattice, method: str):
    """Count-maximizing positioning, then selection; one colour per lattice colour."""
    k = base.colours
    if len(disks) == 0:
        return _empty_result(method, k)
    scale, unit = _unit_scale(disks)
    copies = translate_to_cell(unit, base)
    witness = max_distinct_translate_depth(copies, base)
    return _select_scaled(disks, scale, unit, base.at(*witness.point), method, k,
                          witness.distinct_translates)


def solve_basic_3colour(disks: DiskSet) -> tuple[Assignment, CoverageReport]:
    """3-colour selection on the side 4*sqrt(3)/3 lattice, count-maximizing
    positioning; same-coloured selections are pairwise disjoint."""
    return _solve_positioned(disks, TriLattice(THREE_COLOUR_SIDE), "basic3")


def solve_rado_1colour(disks: DiskSet) -> tuple[Assignment, CoverageReport]:
    """Single-colour selection on the side-4 lattice; all selections disjoint."""
    return _solve_positioned(disks, TriLattice(ONE_COLOUR_SIDE, colours=1), "rado1")


def solve_square_2colour(disks: DiskSet) -> tuple[Assignment, CoverageReport]:
    """2-colour selection on the checkerboard square lattice of side 2*sqrt(2)."""
    return _solve_positioned(disks, SquareLattice(TWO_COLOUR_SIDE), "square2")


def _nearest_cells(disks: DiskSet, lat: Lattice):
    """(i, j, disk) per occupied Voronoi cell, in (i, j) order: the disk
    whose centre lies nearest the lattice point.

    Repeats, for all disks at once, a scan in index order where a disk takes
    the cell of its nearest lattice point (smallest (d, i, j) key) from the
    holder when d_new < d_cur - 1e-15.  The short diagonal cuts the 2 x 2
    corners around the centre's affine floor into two equilateral triangles,
    and the nearest lattice point is a vertex of the one holding the centre;
    a floor rounded across an edge keeps the edge's ends, nearer than any
    apex.  The corners go i-major, so the first minimum is that key.
    """
    centers = disks.centers_array()
    x, y = centers[:, 0], centers[:, 1]
    a, b = lat.affine(x, y)
    wi = np.floor(a)[:, None] + np.array([0.0, 0.0, 1.0, 1.0])
    wj = np.floor(b)[:, None] + np.array([0.0, 1.0, 0.0, 1.0])
    qx, qy = lat.point(wi, wj)
    d2 = np.square(x[:, None] - qx) + np.square(y[:, None] - qy)
    pick = np.argmin(d2, axis=1)
    rows = np.arange(len(x))
    i, j, d = wi[rows, pick], wj[rows, pick], d2[rows, pick]

    # one run per cell, members in index order (lexsort is stable)
    order, starts = _sorted_runs(j, i)
    holder = order[_scan_runs(starts, d[order], lambda new, cur: new < cur - 1e-15)]
    return (i[holder].astype(np.int64), j[holder].astype(np.int64), holder)


def solve_kcolour(disks: DiskSet, k: int) -> tuple[Assignment, CoverageReport]:
    """k-colour selection for Loeschian k via the scaled sublattice colouring.

    The lattice side is ``alpha_k(k)`` times the disk radius.  Disks go to
    the Voronoi cell holding their center; one disk per occupied cell is kept
    (center closest to the lattice point, lowest index on ties).
    k = 1 falls back to the side-4 construction, whose guarantee dominates
    the scaling-based bound and whose scale factor would be negative here.
    """
    if loeschian_decompose(k) is None:
        raise InputError(
            f"k={k} is not Loeschian: no integers a, b give a^2 + a*b + b^2 = k")
    if k == 1:
        return solve_rado_1colour(disks)
    if len(disks) == 0:
        return _empty_result(f"loeschian{k}", k)
    lat = TriLattice(alpha_k(k) * disks.radius)
    i, j, idx = _nearest_cells(disks, lat)
    labels: list[Optional[int]] = [None] * len(disks)
    for d, c in zip(idx.tolist(), LoeschianColouring(k).colour(i, j).tolist()):
        labels[d] = c
    info = LatticeInfo(lat.kind, lat.side, lat.offset)
    return _finish(disks, labels, len(idx), None, f"loeschian{k}", k, info)


@functools.cache
def _overlap_table(cell: tuple[Point, ...]) -> np.ndarray:
    """Overlap of the disk of radius ``_TABLE_RADIUS`` centred at v with the
    cell around the origin, on the nodes v = (tx, ty) * ``_TABLE_STEP``,
    |tx|, |ty| <= ``_TABLE_HALF``, indexed [ty + _TABLE_HALF, tx + _TABLE_HALF].

    Built on first use for each cell and kept for the process, a few rows
    of nodes at a time.  Nodes farther than ``_TABLE_STEP`` outside the radius
    ``1 + 2 * EPS`` that covering disks reach hold pi * _TABLE_RADIUS**2,
    which bounds every overlap.
    """
    t = np.arange(-_TABLE_HALF, _TABLE_HALF + 1) * _TABLE_STEP
    table = np.full((len(t), len(t)), math.pi * _TABLE_RADIUS ** 2)
    vx, vy = np.array(cell).T
    block = max(1, _CHUNK_BYTES // (_PAIR_BYTES * len(t)))
    for row in range(0, len(t), block):
        ty, tx = np.nonzero(np.hypot(t[row:row + block, None], t)
                            <= 1.0 + 2.0 * EPS + _TABLE_STEP)
        rx = vx - t[tx, None]
        ry = vy - t[row + ty, None]
        edges = _edge_disk_area_array(
            rx.ravel(), ry.ravel(), np.roll(rx, -1, axis=1).ravel(),
            np.roll(ry, -1, axis=1).ravel(), _TABLE_RADIUS).reshape(rx.shape)
        table[row + ty, tx] = edges.sum(axis=1)
    table.flags.writeable = False
    return table


def _point_codes(home, lo_a, hi_a, lo_b, hi_b):
    """Dense ranks of the lattice points (home_a + da, home_b + db), da in
    [lo_a, hi_a] and db in [lo_b, hi_b], indexed [disk, da - lo_a, db - lo_b],
    and the number of distinct points."""
    pa, pb = np.broadcast_arrays(home[0][:, None, None] + np.arange(lo_a, hi_a + 1)[:, None],
                                 home[1][:, None, None] + np.arange(lo_b, hi_b + 1))
    order, starts = _sorted_runs(pa.ravel(), pb.ravel())
    codes = np.empty(len(order), dtype=np.intp)
    codes[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
    return codes.reshape(len(home[0]), hi_a - lo_a + 1, hi_b - lo_b + 1), len(starts)


def _weight_bounds(disks: DiskSet, lattice: Lattice,
                   ox: np.ndarray, oy: np.ndarray) -> np.ndarray:
    """An upper bound of ``_select_cells(disks, lattice, ox, oy).weights``,
    offset by offset, from ``_overlap_table`` instead of the exact clipping.

    Each of the 2 x 2 lattice points around a disk centre's affine floor that
    lies within ``reach`` of the centre is an entry, with the value
    T[node] + L * |v - node| + ``margin``: v is the centre minus the lattice
    point, rounded as ``_select_cells`` rounds it, and node the table node
    nearest to v (clamped to the table).  A lattice point takes the largest
    value of its entries and an offset the sum over its lattice points.

    Why that bounds the weight.  ``reach`` is r + EPS plus 32u*B (u = 2**-53,
    B bounding every coordinate of centres, offsets and lattice points) for
    the difference between this routine's rounding of a distance, from the
    affine remainder, and that of ``_select_cells``, from centre - point(i, j);
    both square as x * x.  A point the exact test accepts is then within
    reach, and it is the lattice point nearest the centre, so a corner of the
    2 x 2 however the floor rounds, provided 2 * reach < side (otherwise
    every bound is infinite).  The overlap the exact code picks at a lattice
    point is one of its entries'.
    The overlap A(v) of a disk of radius r <= 1 + 1e-9 (``translate_to_cell``
    admits no other) grows with r, so it is at most the table's A at
    ``_TABLE_RADIUS``; moving the centre changes A at the rate of at most the
    circle's length inside the cell, so L = 2 * pi * ``_TABLE_RADIUS`` is a
    Lipschitz constant.  ``margin`` covers rounding: ``_select_cells`` clips
    the cell whose vertices it rounds as (h + c_k) - p, which lies within
    delta = 2u*B of the exact cell around v, so its area exceeds A(v) by at
    most perimeter * delta + pi * delta**2, which 4u*B*perimeter covers.  The
    clipping's own rounding, the table's, the exact code's weight sum and
    this sum's are each below 1e-12 per lattice point for the disk and point
    counts a solve can hold; 1e-9 covers them together.
    """
    r = disks.radius
    centers = disks.centers_array()
    big = (float(np.abs(centers).max()) + float(np.abs(ox).max()) + float(np.abs(oy).max())
           + 4.0 * lattice.side)
    reach = r + EPS + 32.0 * 2.0 ** -53 * big
    if 2.0 * reach >= lattice.side:
        return np.full(len(ox), math.inf)
    table = _overlap_table(lattice.cell)
    h = _TABLE_STEP
    half = _TABLE_HALF
    vx, vy = np.array(lattice.cell).T
    perimeter = float(np.hypot(vx - np.roll(vx, -1), vy - np.roll(vy, -1)).sum())
    margin = 1e-9 + 4.0 * 2.0 ** -53 * big * perimeter
    (ux, uy), (wx, wy) = lattice.u, lattice.v
    corner_a = np.array([[0.0], [1.0], [0.0], [1.0]])
    corner_b = np.array([[0.0], [0.0], [1.0], [1.0]])
    corner_x = corner_a * ux + corner_b * wx
    corner_y = corner_a * uy + corner_b * wy
    n = len(disks)

    # lattice points as dense codes: each disk's entries lie in a small
    # window around its home, the floor of the centre's affine coordinates,
    # and the (home + window) points of all disks are ranked, again whenever
    # the window grows; a flat (i, j) key would overflow for disks far apart
    home = lattice.affine(centers[:, 0], centers[:, 1])
    home = (np.floor(home[0]), np.floor(home[1]))
    window = (0, 0, 0, 0)
    codes, points = _point_codes(home, *window)
    bounds = np.empty(len(ox))
    rows = max(1, _CHUNK_BYTES // (_SCREEN_PAIR_BYTES * n))
    for s in range(0, len(ox), rows):
        cx, cy = ox[s:s + rows], oy[s:s + rows]
        a, b = lattice.at(cx[:, None], cy[:, None]).affine(centers[:, 0], centers[:, 1])
        fa = np.floor(a).ravel()
        fb = np.floor(b).ravel()
        # the centre relative to lattice point (fa, fb), then to each corner
        # of the 2 x 2; every corner within reach is kept
        a = a.ravel() - fa
        b = b.ravel() - fb
        ex = (a * ux + b * wx) - corner_x
        ey = (a * uy + b * wy) - corner_y
        corner, pair = np.divmod(np.flatnonzero(ex * ex + ey * ey <= reach * reach), len(fa))
        i = fa[pair] + corner_a[corner, 0]
        j = fb[pair] + corner_b[corner, 0]
        if len(pair) == 0:
            bounds[s:s + len(cx)] = 0.0
            continue
        row = pair // n
        disk = pair % n
        hx, hy = lattice.at(cx[row], cy[row]).point(i, j)
        px = centers[disk, 0] - hx
        py = centers[disk, 1] - hy
        tx = np.clip(np.rint(px / h), -half, half)
        ty = np.clip(np.rint(py / h), -half, half)
        node = ((ty + half) * (2 * half + 1) + (tx + half)).astype(np.intp)
        px -= tx * h
        py -= ty * h
        value = table.ravel()[node] + _LIPSCHITZ * np.sqrt(px * px + py * py) + margin
        di = (i - home[0][disk]).astype(np.intp)
        dj = (j - home[1][disk]).astype(np.intp)
        span = (min(window[0], int(di.min())), max(window[1], int(di.max())),
                min(window[2], int(dj.min())), max(window[3], int(dj.max())))
        if span != window:
            window = span
            codes, points = _point_codes(home, *window)
        code = codes[disk, di - window[0], dj - window[2]]
        # each (offset, lattice point) keeps its largest value
        best = np.zeros(len(cx) * points)
        np.maximum.at(best, row * points + code, value)
        bounds[s:s + len(cx)] = best.reshape(len(cx), points).sum(axis=1)
    return bounds


def _candidate_offsets(base: Lattice, copies, witness_point: Point, g: int):
    """The weighted solver's candidate offsets (ox, oy): the count solver's
    witness, every in-cell crossing of two copies, every wrapped copy centre
    and the centres of a g x g grid over the cell."""
    verts = _pair_intersections(copies.centers, copies.radii)
    a, b = base.affine(verts[:, 0], verts[:, 1])
    inside = (0.0 <= a) & (a < 1.0) & (0.0 <= b) & (b < 1.0)
    wx, wy, _, _ = base.wrap_to_cell(copies.centers[:, 0], copies.centers[:, 1])
    grid = (np.arange(g) + 0.5) / g
    ga, gb = np.meshgrid(grid, grid)
    gx, gy = base.point(ga.ravel(), gb.ravel())
    return (np.concatenate([[witness_point[0]], verts[inside, 0], wx, gx]),
            np.concatenate([[witness_point[1]], verts[inside, 1], wy, gy]))


def solve_weighted_3colour(disks: DiskSet,
                           sampling: OffsetSampling | None = None
                           ) -> tuple[Assignment, CoverageReport]:
    """3-colour selection at the candidate offset maximizing the total
    cell-overlap weight; always at least as heavy as the count solver's
    offset, which is always among the candidates.

    ``_weight_bounds`` screens every candidate; the exact ``_select_cells``
    then runs in descending order of bound, ``_TOP_BLOCK`` offsets first,
    until the next bound is below the best exact weight so far.  An offset
    left out has weight <= bound < best, so it cannot win or tie, and the
    evaluated offsets are compared in candidate order by the
    (weight, -ox, -oy) key: the offset is the one an exact evaluation of
    every candidate picks, bit for bit.
    """
    if sampling is None:
        sampling = OffsetSampling()
    if len(disks) == 0:
        return _empty_result("weighted3", 3)
    scale, unit = _unit_scale(disks)
    base = TriLattice(THREE_COLOUR_SIDE)
    copies = translate_to_cell(unit, base)
    witness = max_distinct_translate_depth(copies, base)
    ox, oy = _candidate_offsets(base, copies, witness.point, sampling.grid_resolution)

    bounds = _weight_bounds(unit, base, ox, oy)
    order = np.argsort(-bounds, kind="stable")
    rows = max(1, _CHUNK_BYTES // (_PAIR_BYTES * len(disks)))
    evaluated, weights = [], []
    best = -math.inf
    done, step = 0, _TOP_BLOCK
    while done < len(order) and bounds[order[done]] >= best:
        take = order[done:done + step]
        take = take[bounds[take] >= best]
        w = _select_cells(unit, base, ox[take], oy[take]).weights
        evaluated.append(take)
        weights.append(w)
        best = max(best, float(w.max()))
        done, step = done + step, rows
    evaluated = np.concatenate(evaluated)
    # largest weight, then smallest ox, smallest oy and candidate index
    pick = evaluated[np.lexsort((evaluated, oy[evaluated], ox[evaluated],
                                 -np.concatenate(weights)))[0]]
    return _select_scaled(disks, scale, unit, base.at(float(ox[pick]), float(oy[pick])),
                          "weighted3", 3)


def _check_same_colour(disks: DiskSet, labels) -> None:
    """Raise for the first pair of one colour closer than 2r - 1e-8, taking
    colours in order of first appearance, then pairs (i, j) in index order.

    Candidate pairs of coloured disks come from the union-area grid; each
    one closer than 2r in array arithmetic is retested with the scalar
    ``math.hypot``.
    """
    rank: dict[int, int] = {}
    colour = np.array([-1 if c is None else rank.setdefault(c, len(rank))
                       for c in labels], dtype=np.intp)
    # pairs among the coloured disks only, mapped back to disk indices
    sel = np.flatnonzero(colour >= 0)
    centers = disks.centers_array()
    x, y = centers[:, 0], centers[:, 1]
    reach = 2.0 * disks.radius
    threshold = reach - 1e-8
    found = []
    for _, _, i, j in _near_pairs(x[sel], y[sel], reach):
        i, j = sel[i], sel[j]
        keep = (i < j) & (colour[i] == colour[j])
        i, j = i[keep], j[keep]
        close = np.hypot(x[i] - x[j], y[i] - y[j]) < reach
        for a, b in zip(i[close].tolist(), j[close].tolist()):
            if math.hypot(x[a] - x[b], y[a] - y[b]) < threshold:
                found.append((colour[a], a, b))
    if found:
        _, a, b = min(found)
        raise VerificationError(
            f"disks {a} and {b} share colour {labels[a]} but overlap")


def verify(disks: DiskSet, assignment: Assignment) -> CoverageReport:
    """Check the assignment and report its coverage; raises on a k its
    solver does not write, a colour outside 0..k-1 or same-colour overlap.
    The checks, A_c and the ratio are recomputed on every call; A, a function
    of the disks alone, is the one ``disks`` keeps from its first computation."""
    if len(assignment.labels) != len(disks):
        raise InputError("assignment length does not match the disk set")
    method, k = assignment.method, assignment.k
    if _SOLVER_K.get(method) != k and method != f"loeschian{k}":
        raise VerificationError(f"solver {method!r} does not write k={k}")
    for c in assignment.labels:
        if c is not None and not (0 <= c < k):
            raise VerificationError(f"colour {c} outside 0..{k - 1}")
    _check_same_colour(disks, assignment.labels)
    return CoverageReport(*_areas(disks, assignment),
                          _method_guarantee(assignment.method, assignment.k),
                          assignment.selected_count,
                          assignment.lattice.offset if assignment.lattice else None)
