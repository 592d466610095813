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
import numbers
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .geometry import EPS, Point, TWO_PI, _sorted_runs
from .prng import double_block


class DiskSet:
    """Equal-radius disks given by their centres, (x, y) pairs or an (n, 2)
    array; duplicates permitted.  Immutable, so it keeps what it derives."""

    def __init__(self, radius: float, centers: Sequence[Sequence[float]] | np.ndarray) -> None:
        r = _finite_floats(np.array(radius, dtype=object), "disk radius")
        if r.ndim or not r > 0.0:
            raise InputError("disk radius must be a positive number")
        raw = np.array(centers, dtype=object)
        if raw.shape[1:] != (2,) and raw.shape != (0,):
            raise InputError("each disk center must be a pair (x, y)")
        pts = _finite_floats(raw.reshape(-1, 2), "disk center")
        pts.flags.writeable = False
        self.__dict__.update(radius=float(r), _centers_array=pts)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"DiskSet is immutable: cannot set {name}")

    def __eq__(self, other) -> bool:
        return isinstance(other, DiskSet) and (self.radius, self.centers) == (
            other.radius, other.centers)

    def __hash__(self) -> int:
        return hash((self.radius, self.centers))

    def __repr__(self) -> str:
        return f"DiskSet(radius={self.radius!r}, centers={self.centers!r})"

    @functools.cached_property
    def centers(self) -> tuple[Point, ...]:
        """The centres as Points, built on first use: a solver's subsets never need them."""
        return tuple(map(Point._make, self._centers_array.tolist()))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]], radius: float = 1.0) -> "DiskSet":
        return cls(radius, list(pairs))

    def __len__(self) -> int:
        return len(self._centers_array)

    def centers_array(self) -> np.ndarray:
        """The centres as a read-only (n, 2) array."""
        return self._centers_array

    @functools.cached_property
    def _union_area(self) -> float:
        return _exact_union_area(self)

    def bbox(self, pad: float = 0.0) -> tuple[float, float, float, float]:
        if not len(self):
            return (0.0, 0.0, 0.0, 0.0)
        (xmin, ymin), (xmax, ymax) = self._centers_array.min(0), self._centers_array.max(0)
        m = self.radius + pad
        return (float(xmin) - m, float(ymin) - m, float(xmax) + m, float(ymax) + m)

    def subset(self, indices: Iterable[int]) -> "DiskSet":
        """The disks at ``indices``, in that order."""
        return DiskSet(self.radius, self._centers_array[np.fromiter(indices, dtype=np.intp)])


def _finite_floats(raw: np.ndarray, what: str) -> np.ndarray:
    """The object array ``raw`` as floats; raises InputError unless each entry is a finite
    real number, checking types first, as float() and NumPy read True as 1 and "2" as 2."""
    for t in set(map(type, raw.ravel().tolist())):
        if not issubclass(t, numbers.Real) or issubclass(t, bool):
            raise InputError(f"{what} is a {t.__name__}, not a real number")
    try:
        out = raw.astype(float)
    except OverflowError as exc:
        raise InputError(f"{what} out of float range: {exc}") from exc
    if not np.isfinite(out).all():
        raise InputError(f"non-finite {what}")
    return out


# Pairs of points come from a grid of square cells sorted by their
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
    So the key column + row*1j holds each cell exactly (2^51 < 2^53), and so
    does a neighbour's key, one step away; NumPy sorts and searches complex
    numbers by (real, imaginary), the runs' (column, row) order.  Cost is
    O(n log n + pairs), whatever the bounding box.
    """
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
    # one exact complex key per cell, ascending as the runs are
    keys = col[order[starts]] + 1j * row[order[starts]]

    near_start = np.zeros((len(starts), 9), dtype=np.intp)
    near_count = np.zeros((len(starts), 9), dtype=np.intp)
    for k, (dc, dr) in enumerate(_AROUND):
        wanted = keys + complex(dc, dr)
        cell = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit = keys[cell] == wanted
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
    i, j, dx, dy = i[close], j[close], dx[close], dy[close]
    d = np.hypot(dx, dy)
    near = (d > 0.0) & (d < two_r)
    ci = i[near] - lo
    # each neighbour covers the angles [alpha - beta, alpha + beta] of circle ci
    alpha = np.arctan2(dy[near], dx[near])
    beta = np.arccos(np.clip(d[near] / two_r, -1.0, 1.0))
    s = np.mod(alpha - beta, TWO_PI)
    e = s + 2.0 * beta
    wraps = e > TWO_PI
    # a cover that passes 2*pi splits into [s, 2*pi] and [0, e - 2*pi]
    pc = np.concatenate([ci, ci[wraps]])
    ps = np.concatenate([s, np.zeros(int(wraps.sum()))])
    pe = np.concatenate([np.where(wraps, TWO_PI, e), e[wraps] - TWO_PI])

    # sorted by (circle, start), a run of overlapping covers ends at the
    # running max of their ends, taken per circle: complex numbers compare by
    # real part first, and a circle index is exact as a float; the order
    # among equal starts changes neither, as no break falls between them.
    # The stable complex sort orders as np.lexsort((ps, pc)) does, and runs
    # faster on these nearly sorted keys
    order = np.argsort(pc + 1j * ps, kind="stable")
    pc, start = pc[order], ps[order]
    end = np.maximum.accumulate(pc + 1j * pe[order]).imag

    # gaps between runs, and the gap through angle 0 after each circle's last
    # run; a circle's covers start at base
    count = np.bincount(pc, minlength=hi - lo)
    base = np.cumsum(count) - count
    has = np.flatnonzero(count)
    first, last = base[has], base[has] + count[has] - 1
    brk = np.flatnonzero((pc[1:] == pc[:-1]) & ~(start[1:] <= end[:-1] + 1e-15)) + 1
    brk = brk[start[brk] - end[brk - 1] > 1e-15]
    wrap = (TWO_PI - end[last]) + start[first] > 1e-15
    gc = np.concatenate([pc[brk], has[wrap]]) + lo
    p1 = np.concatenate([end[brk - 1], end[last[wrap]]])
    p2 = np.concatenate([start[brk], start[first[wrap]] + TWO_PI])
    key = np.concatenate([2 * brk, 2 * last[wrap] + 1])

    # drop arcs whose midpoint lies strictly inside another disk; only the
    # pairs within 2r can hold it, as every other disk is at least r from
    # the circle
    mid = 0.5 * (p1 + p2)
    mx = px[gc] + r * np.cos(mid)
    my = py[gc] + r * np.sin(mid)
    lo_pair = np.searchsorted(i, gc)
    cnt = np.searchsorted(i, gc, side="right") - lo_pair
    arc = np.repeat(np.arange(len(gc)), cnt)
    other = j[np.repeat(lo_pair - (np.cumsum(cnt) - cnt), cnt) + np.arange(len(arc))]
    dist2 = (mx[arc] - px[other]) ** 2 + (my[arc] - py[other]) ** 2
    covered = np.bincount(arc[dist2 < (r - EPS) * (r - EPS)], minlength=len(gc)) > 0
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
    """Exact area of the union, computed once per set and kept with it;
    empty input gives 0 by convention."""
    return disks._union_area


def _exact_union_area(disks: DiskSet) -> float:
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
    if not 0.0 <= r <= 1.0:
        raise InputError("scale factor must lie in [0, 1]")
    if r == 0.0 or len(disks) == 0:
        return 0.0
    return exact_union_area(DiskSet(disks.radius * r, disks.centers_array()))
