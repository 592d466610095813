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
from .prng import _TO_DOUBLE, _mixed_blocks


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
    def _distinct_rows(self) -> np.ndarray:
        """Indices of the distinct centres, in (x, y) order: the first of each
        run of equal rows, 0.0 and -0.0 alike.  A coincident disk changes
        neither the union nor a count of distinct translates, so the area
        kernels and positioning read only these."""
        order, first = _sorted_runs(self._centers_array[:, 1], self._centers_array[:, 0])
        out = order[first]
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _union_area(self) -> float:
        return _exact_union_area(self)

    @functools.cached_property
    def _instance_sha256(self) -> str:
        from . import files  # files reads and writes DiskSets: import on first use
        return files._instance_sha256(self)

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


def _near_pairs(x: np.ndarray, y: np.ndarray, reach: float):
    """Blocks ``(lo, hi, i, j)`` of directed index pairs: for every i in
    [lo, hi), ascending, each j != i whose point lies in the 3 x 3 cells
    around i's cell, column by column and row by row within a column.  The
    j include every point closer to i than ``reach`` in both coordinates.

    A cell's side is ``reach`` widened by 2^-50 of the largest coordinate, so
    the rounding of ``x / side`` cannot put two points closer than ``reach``
    two cells apart, and cell numbers stay below 2^51 for any finite input.
    So the key column + row*1j holds each cell exactly (2^51 < 2^53), and so
    does a neighbour's key, one step away; NumPy sorts and searches complex
    numbers by (real, imaginary), the runs' (column, row) order.  In that
    order the cells (c + dc, r - 1 .. r + 1) are one range of runs, and
    their points one range of ``order``: two searches per column find it.
    Cost is O(n log n + pairs), whatever the bounding box.
    """
    n = len(x)
    if n == 0:
        return
    side = reach + max(float(np.abs(x).max()), float(np.abs(y).max())) * 2.0 ** -50
    col = np.floor(x / side)
    row = np.floor(y / side)
    order, starts = _sorted_runs(row, col)
    cell_of = np.empty(n, dtype=np.intp)
    cell_of[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
    # one exact complex key per cell, ascending as the runs are
    keys = col[order[starts]] + 1j * row[order[starts]]
    bounds = np.append(starts, n)

    near_start = np.empty((len(starts), 3), dtype=np.intp)
    near_count = np.empty((len(starts), 3), dtype=np.intp)
    for k, dc in enumerate((-1, 0, 1)):
        first = bounds[np.searchsorted(keys, keys + complex(dc, -1))]
        near_start[:, k] = first
        near_count[:, k] = bounds[np.searchsorted(keys, keys + complex(dc, 1), "right")] - first

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

    cx = px[gc]
    cy = py[gc]
    terms = 0.5 * (r * r * (p2 - p1)
                   + r * (cx * (_libm(math.sin, p2) - _libm(math.sin, p1))
                          - cy * (_libm(math.cos, p2) - _libm(math.cos, p1))))
    # a circle without covers sorts before the row that follows it
    alone = count == 0
    terms = np.concatenate([terms, np.full(int(alone.sum()), math.pi * r * r)])
    return terms[np.argsort(np.concatenate([key, 2 * base[alone]]))]


def _libm(f, a: np.ndarray) -> np.ndarray:
    """``f`` (``math.sin`` or ``math.cos``) of each element of ``a`` by scalar
    libm calls: NumPy's SIMD trig may differ from them by an ulp."""
    return np.fromiter(map(f, a.tolist()), dtype=float, count=len(a))


def exact_union_area(disks: DiskSet) -> float:
    """Exact area of the union, computed once per set and kept with it;
    empty input gives 0 by convention."""
    return disks._union_area


def _exact_union_area(disks: DiskSet) -> float:
    r = disks.radius
    px, py = disks.centers_array()[disks._distinct_rows].T
    terms = [np.zeros(1)]
    for lo, hi, i, j in _near_pairs(px, py, 2.0 * r):
        terms.append(_block_terms(px, py, r, lo, hi, i, j))
    # added one by one in (circle, arc) order, as a loop over circles would
    return float(np.cumsum(np.concatenate(terms))[-1])


class MCEstimate(NamedTuple):
    area: float
    stderr: float


_EMPTY, _COVERED, _MIXED = 0, 1, 2


def monte_carlo_union_area(disks: DiskSet, samples: int, seed: int) -> MCEstimate:
    """Hit-or-miss estimate over the bounding box; deterministic given seed.

    Sample k uses stream draws 2k and 2k+1, as doubles p and q in [0, 1),
    for x = xmin + w*p and y = ymin + h*q, and hits when dx*dx + dy*dy <= r*r
    for some centre, in floating point as written.  The sample's grid cell
    (``_mc_grid``) decides that exactly when the cell is covered or empty;
    only samples in mixed cells run the test, each against the disks that
    reach its grid row.  Chunks of 2^17 samples bound the memory.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if len(disks) == 0:
        return MCEstimate(0.0, 0.0)
    xmin, ymin, xmax, ymax = disks.bbox()
    w = xmax - xmin
    h = ymax - ymin
    box = w * h
    # coincident centres decide every sample alike
    cx, cy = disks.centers_array()[disks._distinct_rows].T
    r2 = disks.radius * disks.radius
    chunk = min(1 << 17, samples)
    kx, ky, status, near, first_row, last_row = _mc_grid(
        cx, cy, disks.radius, (xmin, ymin, xmax, ymax), chunk)
    cx, cy = cx[near].tolist(), cy[near].tolist()
    # a draw z is the double (z >> 11) * 2^-53, so its top k bits are
    # floor(that double * 2^k): the sample's column and row
    rows = np.arange((1 << ky) + 1, dtype=np.uint64)
    col_shift, row_shift, kx = np.uint64(64 - kx), np.uint64(64 - ky), np.uint64(kx)
    hits = 0
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        parts = []
        for _, z in _mixed_blocks(seed, 2 * done, 2 * m):
            cell = z[1::2] >> row_shift
            cell <<= kx
            cell |= z[0::2] >> col_shift
            st = status[cell.view(np.int64)]
            hits += int(np.count_nonzero(st == _COVERED))
            k = np.flatnonzero(st == _MIXED)
            z >>= np.uint64(11)
            parts.append((cell[k], xmin + w * (z[0::2][k] * _TO_DOUBLE),
                          ymin + h * (z[1::2][k] * _TO_DOUBLE)))
        cell, xs, ys = map(np.concatenate, zip(*parts))
        parts.clear()
        by_row = np.argsort(cell)
        # rows 0 .. 2^ky - 1 of the mixed samples start at these positions
        at = np.searchsorted(cell[by_row] >> kx, rows).tolist()
        xs, ys = xs[by_row], ys[by_row]
        hit = np.zeros(len(xs), dtype=bool)
        dx = np.empty(len(xs))
        dy = np.empty(len(xs))
        for x, y, lo, hi in zip(cx, cy, first_row, last_row):
            a, b = at[lo], at[hi + 1]
            if a == b:
                continue
            ddx, ddy = dx[:b - a], dy[:b - a]
            np.subtract(xs[a:b], x, out=ddx)
            np.subtract(ys[a:b], y, out=ddy)
            np.multiply(ddx, ddx, out=ddx)
            np.multiply(ddy, ddy, out=ddy)
            hit[a:b] |= np.add(ddx, ddy, out=ddx) <= r2
        hits += int(np.count_nonzero(hit))
        done += m
    p = hits / samples
    return MCEstimate(box * p, box * math.sqrt(max(p * (1.0 - p), 0.0) / samples))


def _mc_grid(cx: np.ndarray, cy: np.ndarray, r: float,
             bbox: tuple[float, float, float, float], chunk: int):
    """The Monte Carlo grid: ``(kx, ky, status, near, first_row,
    last_row)``.  It has 2^kx columns and 2^ky rows; cell (a, b) holds the
    samples with floor(p * 2^kx) = a and floor(q * 2^ky) = b, and
    ``status[b * 2^kx + a]`` is ``_COVERED`` when the exact test hits every
    such sample, ``_EMPTY`` when it misses every one, else ``_MIXED``.  The
    disks ``near`` reach mixed cells, in rows ``first_row .. last_row``
    (lists), and no other disk hits a sample of a mixed cell.

    Cell sides are about sqrt(16 w h / chunk), about 16 samples of a chunk
    per cell, and at least about 2r sqrt(n / chunk), so the n disks meet
    O(chunk + n) cells; both within a factor sqrt(2), as the counts are
    powers of two.

    Margins.  u = 2^-53 and B bounds |xmin|, |xmax|, |ymin|, |ymax|.  A
    sample of column a has a <= p * 2^kx < a + 1 exactly, and rounding is
    monotone, so its x = fl(xmin + fl(w * p)) lies between the column's
    edges as computed here, fl(xmin + fl(w * a / 2^kx)) and the next.  The
    computed distance from an edge to a centre errs by at most u times
    itself, 3u*B, so with m = 32u*B every decision below holds for every
    point within m - 3u*B of the cell, a few ulps of each coordinate, and
    the disk's columns, computed at r + 2m from products that err by a few
    u*B, hold every cell within r + m of its centre.  A disk covers the cell
    when (far_x + m)^2 + (far_y + m)^2 <= r^2 (1 - 32u) as computed, far_x
    being the computed farther edge's distance, and misses it when
    (near_x - m)^2 + (near_y - m)^2 > r^2 (1 + 32u), near_x being 0 or the
    nearer edge's distance: each side is within a factor (1 +- u)^5 of its
    exact value, and so is a sample's dx*dx + dy*dy (one rounding per
    operation; r >= 2^-250 and B < 2^250 keep every square far from
    underflow and overflow).  Outside those scales, or when m >= r, every
    cell is mixed and every disk tests every sample.
    """
    xmin, ymin, xmax, ymax = bbox
    w, h = xmax - xmin, ymax - ymin
    big = max(abs(xmin), abs(ymin), abs(xmax), abs(ymax))
    m = big * 2.0 ** -48
    if not (2.0 ** -250 <= r and big < 2.0 ** 250 and m < r):
        return 1, 1, np.full(4, _MIXED, dtype=np.int8), np.ones(len(cx), dtype=bool), \
            [0] * len(cx), [1] * len(cx)
    side = max(math.sqrt(16.0 * w * h / chunk), 2.0 * r * math.sqrt(len(cx) / chunk))
    kx, ky = (min(max(round(math.log2(extent / side)), 1), 17) for extent in (w, h))
    c0, nc, col_base, far_x, near_x = _mc_axis(cx, xmin, w, kx, r + 2.0 * m, m)
    r0, nr, row_base, far_y, near_y = _mc_axis(cy, ymin, h, ky, r + 2.0 * m, m)
    r2 = r * r
    inside, outside = r2 * (1.0 - 2.0 ** -48), r2 * (1.0 + 2.0 ** -48)

    covered = np.zeros(1 << (kx + ky), dtype=bool)
    reached = np.zeros_like(covered)
    pairs = []  # (disk, cell) of each disk and cell within reach
    per_disk = nc * nr
    ends = np.cumsum(per_disk)
    lo = 0
    while lo < len(cx):
        # disks lo .. hi - 1: at most 2^13 pairs, which bounds the
        # temporaries, unless one disk has more
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - per_disk[lo] + (1 << 13),
                                             "right")))
        cnt = per_disk[lo:hi]
        d = np.repeat(np.arange(lo, hi), cnt)
        t = np.arange(len(d)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        dr, dc = np.divmod(t, nc[d])
        cell = ((r0[d] + dr) << kx) + c0[d] + dc
        ix, iy = col_base[d] + dc, row_base[d] + dr
        covered[cell[far_x[ix] + far_y[iy] <= inside]] = True
        close = near_x[ix] + near_y[iy] <= outside
        reached[cell[close]] = True
        pairs.append((d[close], cell[close]))
        lo = hi
    status = np.where(covered, _COVERED, np.where(reached, _MIXED, _EMPTY)).astype(np.int8)

    d, cell = (np.concatenate(p) for p in zip(*pairs))
    use = status[cell] == _MIXED
    d, row = d[use], cell[use] >> kx
    # each disk's pairs run row by row, so its first and last give its rows
    new = np.flatnonzero(np.diff(d, prepend=-1, append=len(cx)))
    first, last = new[:-1], new[1:] - 1
    near = np.zeros(len(cx), dtype=bool)
    near[d[first]] = True
    return kx, ky, status, near, row[first].tolist(), row[last].tolist()


def _mc_axis(c: np.ndarray, lo: float, extent: float, k: int, reach: float, m: float):
    """One axis of the Monte Carlo grid, 2^k cells over [lo, lo + extent]:
    ``(first, count, base, far, near)``.  Centre i's cells within ``reach``
    are first[i] .. first[i] + count[i] - 1, and far[base[i] + t] and
    near[base[i] + t] belong to its t-th: the squared distance from the
    centre to the cell's farther edge plus m, and to the cell less m (0 when
    within m)."""
    n = 1 << k
    first, last = (np.clip(np.floor((c - lo + s) * (n / extent)), 0, n - 1).astype(np.intp)
                   for s in (-reach, reach))
    count = last - first + 1
    base = np.cumsum(count) - count
    i = np.repeat(np.arange(len(c)), count)
    a = np.arange(len(i)) - base[i] + first[i]
    edges = lo + np.arange(n + 1) * (extent / n)
    below = edges[a] - c[i]
    above = edges[a + 1] - c[i]
    far = np.maximum(np.abs(below), np.abs(above)) + m
    near = np.maximum(np.maximum(below, -above) - m, 0.0)
    return first, count, base, far * far, near * near


def scaled_union_area(disks: DiskSet, r: float) -> float:
    """Union area after scaling every radius by r in [0, 1], centers fixed."""
    if not 0.0 <= r <= 1.0:
        raise InputError("scale factor must lie in [0, 1]")
    if r == 0.0 or len(disks) == 0:
        return 0.0
    return exact_union_area(DiskSet(disks.radius * r, disks.centers_array()))
