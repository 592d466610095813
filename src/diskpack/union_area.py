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

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InputError
from .geometry import EPS, Point, TWO_PI, _sorted_runs, require_finite
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

    @functools.cached_property
    def _centers_array(self) -> np.ndarray:
        pts = np.array(self.centers, dtype=float).reshape(-1, 2)
        pts.flags.writeable = False
        return pts

    def centers_array(self) -> np.ndarray:
        """The centres as a read-only (n, 2) array, built once per set."""
        return self._centers_array

    def bbox(self, pad: float = 0.0) -> tuple[float, float, float, float]:
        if not self.centers:
            return (0.0, 0.0, 0.0, 0.0)
        xs = [p[0] for p in self.centers]
        ys = [p[1] for p in self.centers]
        m = self.radius + pad
        return (min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m)

    def subset(self, indices: Iterable[int]) -> "DiskSet":
        """The disks at ``indices``, whose centres are validated already."""
        idx = np.fromiter(indices, dtype=np.intp)
        pts = self.centers_array()[idx]
        pts.flags.writeable = False
        out = object.__new__(DiskSet)
        out.__dict__.update(radius=self.radius, _centers_array=pts,
                            centers=tuple(self.centers[i] for i in idx.tolist()))
        return out


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
    order, starts = _sorted_runs(row, col)
    counts = np.diff(starts, append=n)
    cell_of = np.empty(n, dtype=np.intp)
    cell_of[order] = np.repeat(np.arange(len(starts)), counts)
    # dense ranks order the cells as (column, row) does, with keys below n^2
    col, row = col[order[starts]], row[order[starts]]
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
    Only the pairs with dx*dx + dy*dy <= lim = max((2r)^2 (1 + 2^-46),
    2^-1000) reach the trigonometry, and that keeps every pair with
    hypot(dx, dy) < 2r: hypot is within an ulp, so the exact d^2 is below
    (2r)^2 (1 + 2^-51); the computed sum exceeds the exact d^2 by three
    roundings (a factor below 1 + 2^-51) plus at most 2^-1074 where a square
    is subnormal; 2^-46 covers both factors and the rounding of lim, and the
    floor covers the 2^-1074 once (2r)^2 is that small.
    """
    dx = px[j] - px[i]
    dy = py[j] - py[i]
    two_r = 2.0 * r
    close = np.flatnonzero(dx * dx + dy * dy <= max(two_r * two_r * (1.0 + 2.0 ** -46),
                                                    2.0 ** -1000))
    dx, dy = dx[close], dy[close]
    d = np.hypot(dx, dy)
    near = (d > 0.0) & (d < two_r)
    ci = i[close[near]] - lo
    # each neighbour covers the angles [alpha - beta, alpha + beta] of circle ci
    alpha = np.arctan2(dy[near], dx[near])
    beta = np.arccos(np.clip(d[near] / two_r, -1.0, 1.0))
    s = np.mod(alpha - beta, TWO_PI)
    e = s + 2.0 * beta
    wraps = e > TWO_PI
    # a cover that passes 2*pi splits into [s, 2*pi] and [0, e - 2*pi]; the
    # pieces are grouped by circle, a stable sort merging two ascending runs
    pc = np.concatenate([ci, ci[wraps]])
    order = np.argsort(pc, kind="stable")
    pc = pc[order]
    ps = np.concatenate([s, np.zeros(int(wraps.sum()))])[order]
    pe = np.concatenate([np.where(wraps, TWO_PI, e), e[wraps] - TWO_PI])[order]

    # each circle's covers fill one row, padded to a power-of-two width so a
    # few 2-d sorts serve every degree; rows are laid out in circle order
    count = np.bincount(pc, minlength=hi - lo)
    width = np.where(count > 0, 2 ** np.frexp(count - 1)[1], 0)
    base = np.cumsum(width) - width
    slot = base[pc] + np.arange(len(pc)) - (np.cumsum(count) - count)[pc]
    start = np.full(int(width.sum()), np.inf)
    end = np.zeros(len(start))
    start[slot] = ps
    end[slot] = pe
    # sorted by start, a run of overlapping covers ends at the running max of
    # their ends; the order among equal starts changes neither, as no break
    # falls between equal starts
    for w in (np.flatnonzero(np.bincount(width)[2:]) + 2).tolist():
        rows = base[width == w][:, None]
        cells = rows + np.arange(w)
        by_start = rows + np.argsort(start[cells], axis=1)
        start[cells] = start[by_start]
        end[cells] = np.maximum.accumulate(end[by_start], axis=1)

    # gaps between runs, and the gap through angle 0 after each circle's last
    # run; the padding (start inf) is never a break
    has = np.flatnonzero(count)
    first, last = base[has], base[has] + count[has] - 1
    inner = np.isfinite(start)
    inner[first] = False
    brk = np.flatnonzero(inner[1:] & ~(start[1:] <= end[:-1] + 1e-15)) + 1
    brk = brk[start[brk] - end[brk - 1] > 1e-15]
    wrap = (TWO_PI - end[last]) + start[first] > 1e-15
    gc = np.concatenate([np.repeat(np.arange(hi - lo), width)[brk], has[wrap]]) + lo
    p1 = np.concatenate([end[brk - 1], end[last[wrap]]])
    p2 = np.concatenate([start[brk], start[first[wrap]] + TWO_PI])
    key = np.concatenate([2 * brk, 2 * last[wrap] + 1])

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
    gc, p1, p2, key = gc[~covered], p1[~covered], p2[~covered], key[~covered]

    def trig(f, a):
        return np.fromiter(map(f, a.tolist()), dtype=float, count=len(a))

    cx = px[gc]
    cy = py[gc]
    terms = 0.5 * (r * r * (p2 - p1)
                   + r * (cx * (trig(math.sin, p2) - trig(math.sin, p1))
                          - cy * (trig(math.cos, p2) - trig(math.cos, p1))))
    # a circle without covers sorts before the row that follows it
    alone = count == 0
    terms = np.concatenate([terms, np.full(int(alone.sum()), math.pi * r * r)])
    return terms[np.argsort(np.concatenate([key, 2 * base[alone]]))]


def exact_union_area(disks: DiskSet) -> float:
    """Exact area of the union; empty input gives 0 by convention."""
    if len(disks) == 0:
        return 0.0
    r = disks.radius
    # coincident circles collapse to the first of each run of equal rows in
    # (x, y) order, the survivors of sorted(set(centers)), 0.0 and -0.0 alike
    pts = disks.centers_array()
    order, keep = _sorted_runs(pts[:, 1], pts[:, 0])
    if len(keep) == 1:
        return math.pi * r * r
    px, py = pts[order[keep]].T
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
