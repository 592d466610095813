"""Exact and Monte Carlo area of a union of equal disks.

The exact routine decomposes the union boundary into circle arcs: for each
circle, the arcs not strictly inside any other disk survive, and each
counterclockwise arc from phi1 to phi2 on circle (c, R) contributes

    (R^2*(phi2 - phi1) + R*(c_x*(sin phi2 - sin phi1)
                            - c_y*(cos phi2 - cos phi1))) / 2

by Green's theorem.  Summing contributions over all surviving arcs gives the
union area.

The routine is array code over the neighbour pairs of a sorted cell grid
(``_near_pairs``), so it costs O(n log n + pairs) whatever the bounding box.
Its arithmetic is that of a loop over circles, operation for operation (NumPy
angles and midpoints, scalar ``math.sin``/``math.cos`` for the arc terms, one
sequential sum in (circle, arc) order), so the area is the same bit for bit
as that loop's, which the tests keep as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InputError
from .geometry import EPS, Point, TWO_PI, require_finite
from .prng import double_block


@dataclass(frozen=True)
class DiskSet:
    """Equal-radius disks given by their centers; duplicates permitted."""

    radius: float
    centers: tuple[Point, ...]

    def __post_init__(self) -> None:
        require_finite(self.radius, what="radius")
        if self.radius <= 0.0:
            raise InputError("disk radius must be positive")
        for p in self.centers:
            require_finite(p[0], p[1], what="disk center")
        object.__setattr__(self, "centers", tuple(Point(p[0], p[1]) for p in self.centers))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]], radius: float = 1.0) -> "DiskSet":
        return cls(radius, tuple(Point(float(x), float(y)) for x, y in pairs))

    def __len__(self) -> int:
        return len(self.centers)

    def centers_array(self) -> np.ndarray:
        if not self.centers:
            return np.empty((0, 2), dtype=float)
        return np.array(self.centers, dtype=float)

    def bbox(self, pad: float = 0.0) -> tuple[float, float, float, float]:
        if not self.centers:
            return (0.0, 0.0, 0.0, 0.0)
        xs = [p[0] for p in self.centers]
        ys = [p[1] for p in self.centers]
        m = self.radius + pad
        return (min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m)

    def subset(self, indices: Iterable[int]) -> "DiskSet":
        return DiskSet(self.radius, tuple(self.centers[i] for i in indices))


# Pairs of points come from a grid of square cells sorted by their integer
# (column, row) pair, in blocks of about _BLOCK_PAIRS directed pairs; each
# pair holds a few hundred bytes of temporaries
_BLOCK_PAIRS = 1 << 12
_AROUND = [(dc, dr) for dc in (-1, 0, 1) for dr in (-1, 0, 1)]


def _near_pairs(x: np.ndarray, y: np.ndarray, reach: float):
    """Blocks ``(lo, hi, i, j)`` of directed index pairs: for every i in
    [lo, hi), ascending, each j != i whose point lies in the 3 x 3 cells
    around i's cell.  The j include every point closer to i than ``reach``
    in both coordinates.

    A cell's side is ``reach`` widened by 2^-50 of the largest coordinate, so
    the rounding of ``x / side`` cannot put two points closer than ``reach``
    two cells apart, and cell numbers stay below 2^51 for any finite input.
    Cost is O(n log n + pairs), whatever the bounding box.
    """
    n = len(x)
    if n == 0:
        return
    side = reach + max(float(np.abs(x).max()), float(np.abs(y).max())) * 2.0 ** -50
    col = np.floor(x / side).astype(np.int64)
    row = np.floor(y / side).astype(np.int64)
    order = np.lexsort((row, col))
    col, row = col[order], row[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (col[1:] != col[:-1]) | (row[1:] != row[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, n))
    cell_of = np.empty(n, dtype=np.intp)
    cell_of[order] = np.cumsum(new) - 1
    # dense ranks order the cells as (column, row) does, with keys below n^2
    col, row = col[starts], row[starts]
    cols, col_rank = np.unique(col, return_inverse=True)
    rows, row_rank = np.unique(row, return_inverse=True)
    keys = col_rank * len(rows) + row_rank

    def find(values, wanted):
        t = np.minimum(np.searchsorted(values, wanted), len(values) - 1)
        return t, values[t] == wanted

    near_start = np.zeros((len(starts), 9), dtype=np.intp)
    near_count = np.zeros((len(starts), 9), dtype=np.intp)
    for k, (dc, dr) in enumerate(_AROUND):
        tc, hit_c = find(cols, col + dc)
        tr, hit_r = find(rows, row + dr)
        cell, hit = find(keys, tc * len(rows) + tr)
        hit &= hit_c & hit_r
        near_start[hit, k] = starts[cell[hit]]
        near_count[hit, k] = counts[cell[hit]]

    per_point = near_count[cell_of].sum(axis=1)
    before = np.cumsum(per_point) - per_point
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + _BLOCK_PAIRS)))
        cnt = near_count[cell_of[lo:hi]].ravel()
        first = np.repeat(near_start[cell_of[lo:hi]].ravel() - (np.cumsum(cnt) - cnt), cnt)
        j = order[first + np.arange(len(first))]
        i = np.repeat(np.arange(lo, hi), per_point[lo:hi])
        other = j != i
        yield lo, hi, i[other], j[other]
        lo = hi


def _block_terms(px: np.ndarray, py: np.ndarray, r: float, lo: int, hi: int,
                 i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Area terms of circles lo..hi-1 in (circle, arc) order: one per
    surviving boundary arc, and pi*r^2 for a circle that meets no other.

    ``i``, ``j`` are ``_near_pairs``'s directed pairs for these circles.
    """
    dx = px[j] - px[i]
    dy = py[j] - py[i]
    d = np.hypot(dx, dy)
    near = (d > 0.0) & (d < 2.0 * r)
    ci = i[near]
    # each neighbour covers the angles [alpha - beta, alpha + beta] of circle ci
    alpha = np.arctan2(dy[near], dx[near])
    beta = np.arccos(np.clip(d[near] / (2.0 * r), -1.0, 1.0))
    s = np.mod(alpha - beta, TWO_PI)
    e = s + 2.0 * beta
    wraps = e > TWO_PI
    # a cover that passes 2*pi splits into [s, 2*pi] and [0, e - 2*pi]
    pc = np.concatenate([ci, ci[wraps]])
    ps = np.concatenate([s, np.zeros(int(wraps.sum()))])
    pe = np.concatenate([np.where(wraps, TWO_PI, e), e[wraps] - TWO_PI])
    order = np.lexsort((pe, ps, pc))
    pc, ps, pe = pc[order], ps[order], pe[order]

    # a run of overlapping covers ends at the running max of their ends,
    # a segmented prefix max taken by doubling (max is exact)
    first = np.ones(len(pc), dtype=bool)
    first[1:] = pc[1:] != pc[:-1]
    starts = np.flatnonzero(first)
    rank = np.arange(len(pc)) - np.repeat(starts, np.diff(np.append(starts, len(pc))))
    end = pe.copy()
    step = 1
    while step < len(pc):
        end[step:] = np.where(rank[step:] >= step,
                              np.maximum(end[step:], end[:-step]), end[step:])
        step *= 2

    # gaps between runs, and the gap through angle 0 after each circle's last run
    brk = np.flatnonzero(~first[1:] & ~(ps[1:] <= end[:-1] + 1e-15)) + 1
    brk = brk[ps[brk] - end[brk - 1] > 1e-15]
    last = np.append(starts[1:], len(pc))[:len(starts)] - 1
    wrap = (TWO_PI - end[last]) + ps[starts] > 1e-15
    gc = np.concatenate([pc[brk], pc[starts[wrap]]])
    p1 = np.concatenate([end[brk - 1], end[last[wrap]]])
    p2 = np.concatenate([ps[brk], ps[starts[wrap]] + TWO_PI])
    order = np.argsort(np.concatenate([2 * brk, 2 * last[wrap] + 1]), kind="stable")
    gc, p1, p2 = gc[order], p1[order], p2[order]

    # drop arcs whose midpoint lies strictly inside a disk of the circle's
    # 3 x 3 cells; no other disk can reach it
    mid = 0.5 * (p1 + p2)
    mx = px[gc] + r * np.cos(mid)
    my = py[gc] + r * np.sin(mid)
    lo_pair = np.searchsorted(i, gc)
    cnt = np.searchsorted(i, gc, side="right") - lo_pair
    arc = np.repeat(np.arange(len(gc)), cnt)
    other = j[np.repeat(lo_pair - (np.cumsum(cnt) - cnt), cnt) + np.arange(len(arc))]
    dist2 = (mx[arc] - px[other]) ** 2 + (my[arc] - py[other]) ** 2
    covered = np.bincount(arc[dist2 < (r - EPS) ** 2], minlength=len(gc)) > 0
    gc, p1, p2 = gc[~covered], p1[~covered], p2[~covered]

    def trig(f, a):
        return np.fromiter(map(f, a.tolist()), dtype=float, count=len(a))

    cx = px[gc]
    cy = py[gc]
    terms = 0.5 * (r * r * (p2 - p1)
                   + r * (cx * (trig(math.sin, p2) - trig(math.sin, p1))
                          - cy * (trig(math.cos, p2) - trig(math.cos, p1))))
    alone = np.ones(hi - lo, dtype=bool)
    alone[ci - lo] = False
    alone = np.flatnonzero(alone) + lo
    circle = np.concatenate([gc, alone])
    terms = np.concatenate([terms, np.full(len(alone), math.pi * r * r)])
    return terms[np.argsort(circle, kind="stable")]


def exact_union_area(disks: DiskSet) -> float:
    """Exact area of the union; empty input gives 0 by convention."""
    if len(disks) == 0:
        return 0.0
    r = disks.radius
    centers = sorted(set(disks.centers))  # coincident circles collapse
    if len(centers) == 1:
        return math.pi * r * r
    px, py = np.array(centers, dtype=float).T
    terms = [np.zeros(1)]
    for lo, hi, i, j in _near_pairs(px, py, 2.0 * r):
        terms.append(_block_terms(px, py, r, lo, hi, i, j))
    # added one by one in (circle, arc) order, as a loop over circles would
    return float(np.cumsum(np.concatenate(terms))[-1])


class MCEstimate(NamedTuple):
    area: float
    stderr: float


def monte_carlo_union_area(disks: DiskSet, samples: int, seed: int) -> MCEstimate:
    """Hit-or-miss estimate over the bounding box; deterministic given seed.

    Sample k uses stream draws 2k and 2k+1 for x and y.
    """
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
        dx = np.empty(m)
        dy = np.empty(m)
        for x, y in pts.tolist():
            np.subtract(xs, x, out=dx)
            np.subtract(ys, y, out=dy)
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            covered |= np.add(dx, dy, out=dx) <= r2
        hits += int(covered.sum())
        done += m
    p = hits / samples
    return MCEstimate(box * p, box * math.sqrt(max(p * (1.0 - p), 0.0) / samples))


def scaled_union_area(disks: DiskSet, r: float) -> float:
    """Union area after scaling every radius by r in [0, 1], centers fixed."""
    require_finite(r, what="scale factor")
    if r < 0.0 or r > 1.0:
        raise InputError("scale factor must lie in [0, 1]")
    if r == 0.0 or len(disks) == 0:
        return 0.0
    return exact_union_area(DiskSet(disks.radius * r, disks.centers))
