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
call it with one offset; the weighted solver with every candidate offset, in
chunks of rows sized by ``_CHUNK_BYTES``, then once more at the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .arrangement import (_pair_intersections, _wrap_to_cell,
                          max_distinct_translate_depth, translate_to_cell)
from .bounds import bound_table, kcolour_guarantee, alpha_k
from .errors import InputError, VerificationError
from .geometry import EPS, Point, _edge_disk_area_array
from .lattice import (Lattice, LoeschianColouring, SquareLattice, TriLattice,
                      ONE_COLOUR_SIDE, THREE_COLOUR_SIDE, TWO_COLOUR_SIDE,
                      loeschian_decompose)
from .union_area import DiskSet, exact_union_area

# byte budget of one chunk of offsets in the weighted solver's search; one
# (offset, disk) pair holds about _PAIR_BYTES of selection temporaries
_CHUNK_BYTES = 2_000_000
_PAIR_BYTES = 1024


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
        if self.grid_resolution < 1:
            raise InputError("grid resolution must be >= 1")


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
    i): the lattice point (i, j), the chosen disk and its cell overlap.
    """

    weights: np.ndarray
    hits: np.ndarray
    row: np.ndarray
    i: np.ndarray
    j: np.ndarray
    disk: np.ndarray
    area: np.ndarray


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
    at_entry = lattice.at(np.repeat(ox, 4 * n), np.repeat(oy, 4 * n))
    # the covering test uses the position points_in_box gives
    x, y, listed = at_entry.box_points(i, j, disks.bbox(pad=EPS))
    ddx = np.tile(np.repeat(centers[:, 0], 4), m) - x
    ddy = np.tile(np.repeat(centers[:, 1], 4), m) - y
    d2 = ddx * ddx + ddy * ddy
    lim = (r + EPS) ** 2
    covered = d2 <= lim
    # the scalar test squares with ``** 2``, which can round differently from
    # x * x; recheck the rare pairs at the boundary with it
    for t in np.flatnonzero(np.abs(d2 - lim) <= 1e-12).tolist():
        covered[t] = float(ddx[t]) ** 2 + float(ddy[t]) ** 2 <= lim

    idx = np.flatnonzero(covered & listed)
    i, j = i[idx], j[idx]
    row = idx // (4 * n)
    disk = idx // 4 % n
    # the cell centre is point(i, j), which rounds differently from x, y above
    hx, hy = lattice.at(ox[row], oy[row]).point(i, j)
    vx, vy = np.array(lattice.cell).T
    rx = (hx[:, None] + vx) - centers[disk, 0][:, None]
    ry = (hy[:, None] + vy) - centers[disk, 1][:, None]
    bx = np.roll(rx, -1, axis=1)
    by = np.roll(ry, -1, axis=1)
    edges = _edge_disk_area_array(rx.ravel(), ry.ravel(), bx.ravel(), by.ravel(),
                                  r).reshape(rx.shape)
    area = np.zeros(len(disk))
    for k in range(len(vx)):
        area += edges[:, k]

    # one group per (offset, lattice point) in (row, j, i) order; the stable
    # sort keeps ascending disk index within a group
    order = np.lexsort((i, j, row))
    row, i, j, disk, area = (v[order] for v in (row, i, j, disk, area))
    first = np.ones(len(row), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (j[1:] != j[:-1]) | (i[1:] != i[:-1])
    group = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    # the scalar scan within each group, one column (rank) at a time
    width = int(np.diff(np.append(starts, len(row))).max(initial=0))
    ranked = np.full((len(starts), width), -np.inf)
    ranked[group, np.arange(len(row)) - starts[group]] = area
    best_area = np.full(len(starts), -1.0)
    best_rank = np.zeros(len(starts), dtype=np.intp)
    for t in range(width):
        better = ranked[:, t] > best_area + 1e-12
        best_area[better] = ranked[better, t]
        best_rank[better] = t

    # per offset, the sequential sum of the chosen areas in (j, i) order
    prow = row[starts]
    hits = np.bincount(prow, minlength=m)
    first_pick = np.cumsum(hits) - hits
    summands = np.zeros((m, int(hits.max(initial=0))))
    summands[prow, np.arange(len(starts)) - first_pick[prow]] = best_area
    weights = np.zeros(m)
    for t in range(summands.shape[1]):
        weights += summands[:, t]
    return _Selection(weights, hits, prow, i[starts], j[starts],
                      disk[starts + best_rank], best_area)


def _select_at(disks: DiskSet, lattice: Lattice):
    """Labels, hit count and summed cell overlap of the selection on this lattice."""
    ox, oy = lattice.offset
    sel = _select_cells(disks, lattice, np.array([ox]), np.array([oy]))
    labels: list[Optional[int]] = [None] * len(disks)
    for i, j, d in zip(sel.i.tolist(), sel.j.tolist(), sel.disk.tolist()):
        labels[d] = lattice.colour(int(i), int(j))
    return labels, int(sel.hits[0]), float(sel.weights[0])


def _finish(disks: DiskSet, labels, hits, cell_sum, method, k, info,
            union_area=None, depth=None) -> tuple[Assignment, CoverageReport]:
    assignment = Assignment(tuple(labels), k, method, info)
    a = exact_union_area(disks) if union_area is None else union_area
    a_c = exact_union_area(disks.subset(assignment.selected_indices())) \
        if assignment.selected_count else 0.0
    ratio = a_c / a if a > 0.0 else 1.0
    report = CoverageReport(a, a_c, ratio, _method_guarantee(method, k), hits,
                            info.offset if info else None, depth, cell_sum)
    return assignment, report


def _solve_positioned(disks: DiskSet, base: Lattice, method: str):
    """Count-maximizing positioning, then selection; one colour per lattice colour."""
    k = base.colours
    if len(disks) == 0:
        return _empty_result(method, k)
    copies = translate_to_cell(disks, base)
    witness = max_distinct_translate_depth(copies, base)
    labels, hits, cell_sum = _select_at(disks, base.at(*witness.point))
    info = LatticeInfo(base.kind, base.side, witness.point)
    return _finish(disks, labels, hits, cell_sum, method, k, info,
                   depth=witness.distinct_translates)


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


def solve_kcolour(disks: DiskSet, k: int) -> tuple[Assignment, CoverageReport]:
    """k-colour selection for Loeschian k via the scaled sublattice colouring.

    Disks go to the Voronoi cell holding their center; one disk per occupied
    cell is kept (center closest to the lattice point, lowest index on ties).
    k = 1 falls back to the side-4 construction, whose guarantee dominates
    the scaling-based bound and whose scale factor would be negative here.
    """
    if loeschian_decompose(k) is None:
        raise InputError(
            f"k={k} is not Loeschian: no integers a, b give a^2 + a*b + b^2 = k")
    if k == 1:
        assignment, report = solve_rado_1colour(disks)
        return assignment, report
    if len(disks) == 0:
        return _empty_result(f"loeschian{k}", k)
    lat = TriLattice(alpha_k(k))
    colouring = LoeschianColouring(k)
    cells: dict[tuple[int, int], int] = {}
    for idx, c in enumerate(disks.centers):
        ij = lat.nearest(c)
        cur = cells.get(ij)
        if cur is None:
            cells[ij] = idx
        else:
            q = lat.point(*ij)
            d_new = (c[0] - q[0]) ** 2 + (c[1] - q[1]) ** 2
            cc = disks.centers[cur]
            d_cur = (cc[0] - q[0]) ** 2 + (cc[1] - q[1]) ** 2
            if d_new < d_cur - 1e-15:
                cells[ij] = idx
    labels: list[Optional[int]] = [None] * len(disks)
    for (i, j), idx in cells.items():
        labels[idx] = colouring.colour(i, j)
    info = LatticeInfo(lat.kind, lat.side, lat.offset)
    return _finish(disks, labels, len(cells), None, f"loeschian{k}", k, info)


def solve_weighted_3colour(disks: DiskSet,
                           sampling: OffsetSampling | None = None
                           ) -> tuple[Assignment, CoverageReport]:
    """3-colour selection at the candidate offset maximizing the total
    cell-overlap weight; always at least as heavy as the count solver's
    offset, which is always among the candidates."""
    if sampling is None:
        sampling = OffsetSampling()
    if len(disks) == 0:
        return _empty_result("weighted3", 3)
    base = TriLattice(THREE_COLOUR_SIDE)
    copies = translate_to_cell(disks, base)
    witness = max_distinct_translate_depth(copies, base)

    centers = np.array([tc.circle.center for tc in copies], dtype=float)
    radii = np.array([tc.circle.radius for tc in copies], dtype=float)
    verts = _pair_intersections(centers, radii)
    a, b = base.affine(verts[:, 0], verts[:, 1])
    inside = (0.0 <= a) & (a < 1.0) & (0.0 <= b) & (b < 1.0)
    wx, wy, _, _ = _wrap_to_cell(base, centers[:, 0], centers[:, 1])
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


def verify(disks: DiskSet, assignment: Assignment) -> CoverageReport:
    """Recompute areas and check validity; raises on same-colour overlap."""
    if len(assignment.labels) != len(disks):
        raise InputError("assignment length does not match the disk set")
    for c in assignment.labels:
        if c is not None and not (0 <= c < assignment.k):
            raise VerificationError(f"colour {c} outside 0..{assignment.k - 1}")
    by_colour: dict[int, list[int]] = {}
    for i, c in enumerate(assignment.labels):
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
    a = exact_union_area(disks)
    a_c = exact_union_area(disks.subset(assignment.selected_indices())) \
        if assignment.selected_count else 0.0
    ratio = a_c / a if a > 0.0 else 1.0
    return CoverageReport(a, a_c, ratio,
                          _method_guarantee(assignment.method, assignment.k),
                          assignment.selected_count,
                          assignment.lattice.offset if assignment.lattice else None)
