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
maximum at its (wrapped) center, so this candidate set is complete.  One
formula decides every membership, in the recount, the quadtree bounds and
the witness's per-translate counts: the elementwise
d^2 = (qx - cx)^2 + (qy - cy)^2 against (r + EPS)^2.  No matrix product
enters, so a count depends on neither the BLAS build nor the chunk a point
falls in.

Most circles cannot reach the best count, so a branch and bound over a
quadtree of the cell (``_surviving_squares``) comes first.  Each square
carries the number of translate groups with a copy containing it whole, and
the list of copies that straddle it; its children test only that list, so a
square costs O(its straddlers), not O(k), and the straddlers thin out as the
squares shrink (at k = 36 855, about 13 000 a square at level 2 and about
8 at level 13).  The lists give each square an exact lower bound
at its centre and an upper bound over the square, and only listed circles
whose boundary meets a square that can still hold the best count are swept,
each against all k copies: on random instances a few percent of the
circles (under 1 % for k ~ 7000).  Levels with long lists are refined in
batches, depth first, so memory stays O(k) (BENCH_depth.json).  Below
``_BRANCH_MIN_COPIES`` copies every circle is swept outright, which is then
faster.

The sweep and the recount are NumPy code over chunks of rows (circles or
candidates) against all k copies.  A chunk's row count comes from the fixed
byte budget ``_CHUNK_BYTES``, so memory is O(k * chunk) rather than O(k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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
# (list entry, child square) pairs bounded in one block of the quadtree: a
# block's temporaries take about 32 bytes a pair, and half the byte budget
# kept peak RSS at the old bounds' level (blocks of 62 500 pairs raised it
# by 1.2 MB at k ~ 700) and ran as fast or faster
_LIST_PAIRS = _CHUNK_BYTES // 64
# list entries of one batch of squares: a level whose lists hold more is
# refined a batch at a time, depth first, so the lists held at once stay
# near (tree depth) * 4 * _BATCH_ENTRIES entries whatever k.  The lists of
# a breadth-first level grow faster than k (2.5 GB at k = 184 171); 2**13
# to 2**18 ran equally fast at k = 36 855, and 2**13 to 2**15 peaked lowest
_BATCH_ENTRIES = 1 << 15
# the four children of a square, (column, row) offsets
_QUARTERS = np.array([[0, 1, 0, 1], [0, 0, 1, 1]], dtype=np.int64)
# the depth search refines its quadtree while the next level bounds fewer than
# this many squares per circle left to sweep; of 4, 8, 16, 32, 64 and 128,
# 32 ran fastest at n = 200, 2000 and 10 000 (6 to 9 % faster than 8)
_ROW_SQUARES = 32
# below this many copies every circle is swept without the branch and bound,
# whose fixed cost per level then outweighs what it prunes: on gen_random
# ladders the two cost the same between 100 and 135 copies on all three
# lattices (BENCH_weighted.json), with the straddler lists too; at about 45
# copies the full sweep took 1.9 ms and the branch and bound 3.2 ms
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
    Every (disk, translate) pair among the nine translates around the disk's
    own cell that a cheap affine bound leaves in play is tested at once; the
    arithmetic is the per-disk scalar arithmetic, element-wise.
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
    # edge e of translate (di, dj) runs from corner e to corner e + 1
    edges = []
    for di, dj in shifts:
        ox, oy = lattice.point(di, dj)
        corners = ((ox, oy), (ox + ux, oy + uy), (ox + ux + vx, oy + uy + vy), (ox + vx, oy + vy))
        for e in range(4):
            (ax, ay), (bx, by) = corners[e], corners[(e + 1) % 4]
            edges.append((ax, ay, bx - ax, by - ay, (bx - ax) * (bx - ax) + (by - ay) * (by - ay)))
    edges = np.array(edges).reshape(9, 4, 5)
    di, dj = np.array(shifts, dtype=np.int64).T
    # a disk is at least (affine gap) * (cell height) from a translate; the
    # pairs farther than r + 1e-6 that way, far beyond rounding, cannot touch
    area = abs(ux * vy - uy * vx)
    gap_a = np.maximum(np.maximum(di - a[:, None], a[:, None] - (di + 1.0)), 0.0)
    gap_b = np.maximum(np.maximum(dj - b[:, None], b[:, None] - (dj + 1.0)), 0.0)
    rows, cols = np.nonzero(np.maximum(gap_a * (area / math.hypot(vx, vy)),
                                       gap_b * (area / math.hypot(ux, uy))) <= r + 1e-6)
    x, y, di, dj = px[rows], py[rows], di[cols], dj[cols]
    # distance to the closed cell translate and the closest point: per edge,
    # the clamped projection; the first edge of least distance wins
    for e in range(4):
        ax, ay, ex, ey, norm = edges[cols, e].T
        t = ((x - ax) * ex + (y - ay) * ey) / norm
        t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
        qx = ax + t * ex
        qy = ay + t * ey
        d2 = np.square(x - qx) + np.square(y - qy)
        if e == 0:
            best_d2, best_qx, best_qy = d2, qx, qy
        else:
            closer = d2 < best_d2
            best_d2 = np.where(closer, d2, best_d2)
            best_qx = np.where(closer, qx, best_qx)
            best_qy = np.where(closer, qy, best_qy)
    sa, sb = a[rows] - di, b[rows] - dj
    inside = (0.0 <= sa) & (sa <= 1.0) & (0.0 <= sb) & (sb <= 1.0)
    d = np.where(inside, 0.0, np.sqrt(best_d2))
    # tangent contact: include only when the touch point belongs to the
    # half-open cell
    ca, cb = lattice.affine(best_qx, best_qy)
    touch_in = (di <= ca) & (ca < di + 1.0) & (dj <= cb) & (cb < dj + 1.0)
    tangent = (d > r - 1e-12) & (d > 0.0)
    keep = (d <= r + 1e-12) & (~tangent | touch_in)
    rows, di, dj = rows[keep], di[keep], dj[keep]
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


def _distance_blocks(pts: np.ndarray, centers: np.ndarray):
    """Yield (base, d2, memb) over chunks of the points ``pts``:
    d2[t, c] = (x_t - cx_c)^2 + (y_t - cy_c)^2 in elementwise arithmetic
    against every centre, and a bool block of its shape for the caller's
    test.  The blocks serve every chunk, as fresh blocks this large cost
    page faults chunk after chunk; each is valid until the next yield."""
    cx, cy = np.ascontiguousarray(centers.T)
    # the two float blocks and the bool block take 17 bytes a pair; a budget
    # of 32 leaves room for the callers' temporaries (18 raised peak RSS 1-2 MB).
    # A quadtree chunk makes ~20 NumPy calls: one-row chunks made the bounds
    # 7 % slower at k = 36 855 than two-row ones
    chunk = max(2, _CHUNK_BYTES // (32 * max(len(cx), 1)))
    shape = (min(chunk, len(pts)), len(cx))
    d2, dy = np.empty(shape), np.empty(shape)
    memb = np.empty(shape, dtype=bool)
    for base in range(0, len(pts), chunk):
        p = pts[base:base + chunk]
        m = len(p)
        np.square(np.subtract(p[:, :1], cx, out=d2[:m]), out=d2[:m])
        np.square(np.subtract(p[:, 1:], cy, out=dy[:m]), out=dy[:m])
        yield base, np.add(d2[:m], dy[:m], out=d2[:m]), memb[:m]


def _group_counts(memb: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
    """Per row of a membership block, the number of groups with a member."""
    # bitwise_or over the bool bytes runs up to twice as fast as logical_or
    covered = np.bitwise_or.reduceat(memb.view(np.uint8), group_starts, axis=1)
    return np.count_nonzero(covered, axis=1)


def _distinct_counts(cands: np.ndarray, centers: np.ndarray, radii: np.ndarray,
                     group_starts: np.ndarray) -> np.ndarray:
    """Number of translate groups covering each candidate (closed disks):
    d^2 <= (r + EPS)^2."""
    lim = np.square(radii + EPS)
    counts = np.empty(len(cands), dtype=np.int64)
    for base, d2, memb in _distance_blocks(cands, centers):
        counts[base:base + len(d2)] = _group_counts(np.less_equal(d2, lim, out=memb), group_starts)
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


class _Leaves(NamedTuple):
    """What ``_surviving_squares`` keeps: the surviving leaves' ``centres``
    (m, 2) and ``reach`` (m,), the circles to sweep (``rows``), the best
    lower bound (``floor``) and each leaf's ``upper`` and ``lower`` bound."""

    centres: np.ndarray
    reach: np.ndarray
    rows: np.ndarray
    floor: int
    upper: np.ndarray
    lower: np.ndarray


def _surviving_squares(centers, radii, groups, lattice) -> _Leaves:
    """Branch and bound over a quadtree of squares in the cell's affine
    coordinates [0, 1)^2.

    Each square carries ``base``, the number of translate groups with a copy
    that contains the whole square, and its list of straddlers: the copies
    that reach it without containing it, each flagged when its group is in
    ``base``.  With ``reach`` the square's Cartesian half-diagonal plus
    ``margin``, a copy of radius r at squared distance d^2 from the square's
    centre reaches the square when d^2 <= (r + reach + EPS)^2 and contains
    it when d^2 < (r - reach)^2.  A copy that contains a square contains its
    children, and one that does not reach it reaches none of them, so
    children test only their parent's list.  A square's upper bound is
    ``base`` plus the distinct unflagged groups that reach it; its lower
    bound is ``base`` plus the distinct unflagged groups that cover its
    centre (d^2 <= (r + EPS)^2), which is the recount at the centre.  A
    square survives while its upper bound is >= the best lower bound so far
    (``floor``), and a listed copy is a row to sweep while its boundary band,
    (r - reach)^2 <= d^2 <= (r + reach)^2, meets a surviving leaf.  The
    squares of a level are split into four, a batch of at most
    ``_BATCH_ENTRIES`` list entries at a time, depth first, until a batch
    would bound at least ``_ROW_SQUARES`` times as many squares as it has
    rows to sweep; leaves whose upper bound fell below the final floor are
    dropped at the end.

    ``margin`` covers rounding.  Every membership test here and in
    ``_distinct_counts`` and ``_near_leaves`` compares the elementwise
    d^2 = (x - cx)^2 + (y - cy)^2 with rho^2 for a radius rho (r + EPS,
    r + reach + EPS, r + reach, r - reach or reach).  Each side is within a
    factor (1 +- u)^5 of its exact value (u = 2**-53, one factor per IEEE
    rounding; a square below the normal range errs by at most 2**-1074, far
    below EPS^2), so an accepted point lies within rho (1 + 5u) of the
    centre and every point within rho (1 - 6u) is accepted, whatever the
    frame or the chunk.  Let B >= 1 bound the norm of every point and centre
    and every r + reach + EPS; ``big`` is such a B.  Every point of a square
    (a descendant's centre, a candidate, a wrapped centre) lies within h of
    the square's centre, where h is the half-diagonal plus the rounding of
    the centre, of ``reach`` and of the point's affine position, a few u*B.
    - reach: a point that the recount counts at radius r lies within
      r + EPS + 5u*B + h of the centre, which the reach test accepts once
      margin >= 11u*B plus those few u*B.  So a copy that fails the test
      covers no point of the square or of its descendants, and the lists
      drop it for good.
    - contains: a copy that passes the test lies within
      (r - reach)(1 + 5u) <= r - reach + 5u*B of the centre, so every point
      of the square lies within r - margin + 5u*B plus the few u*B of it,
      and the recount accepts every point within r + EPS - 6u*B: once
      margin >= 11u*B plus those few u*B, even without the EPS, the copy
      covers every point of the square and of its descendants in the
      recount.  So counting its group once in ``base`` is exact for all of
      them, and the lower bound, which tests the other listed copies with
      the recount's own expression, equals the recount at the centre.
    - band: a sweep candidate of circle c that lies in the square is on c
      up to a few u*B, so c passes the band test, and so neither fails the
      reach test nor passes the contains test: c is listed, and swept.  The
      same 6u*B plus a few u*B keeps every wrapped centre of a leaf within
      reach of the leaf's centre.
    256u*B covers each over ten times.
    """
    k = len(centers)
    ux, uy = lattice.u
    vx, vy = lattice.v
    unit_half_diag = 0.5 * max(math.hypot(ux + vx, uy + vy), math.hypot(ux - vx, uy - vy))
    big = (2.0 * float(np.hypot(centers[:, 0], centers[:, 1]).max()) + math.hypot(*lattice.offset)
           + math.hypot(ux, uy) + math.hypot(vx, vy) + float(radii.max()) + 1.0)
    margin = 256.0 * 2.0 ** -53 * big
    cx, cy = np.ascontiguousarray(centers.T)
    # with one radius every threshold is one number
    one_radius = bool(radii.min() == radii.max())
    # the root's children are the squares of the first level whose reach is
    # below the largest radius, where a copy can first contain a square:
    # above it every list holds nearly every copy, so bounding those levels
    # one by one would prune nothing.  No level bounds more than
    # _ROW_SQUARES * k squares
    level = 0
    while (0.5 ** level * unit_half_diag + margin >= radii.max()
           and 4 ** (level + 1) <= _ROW_SQUARES * k and level < _MAX_LEVEL):
        level += 1
    quarters = np.stack(np.divmod(np.arange(4 ** level, dtype=np.int64), 2 ** level)[::-1])
    # batches of squares of one level with their lists, refined depth first;
    # the root's list holds every copy, and no group is counted yet
    zero = np.zeros(1, dtype=np.int64)
    stack = [(level, quarters, zero, zero, zero,
              np.zeros(k, dtype=np.intp), np.arange(k), np.zeros(k, dtype=bool))]
    floor = 0
    kept, nkept = [], 0
    meets = np.zeros(k, dtype=bool)
    # per level, the squared radii of the reach, cover, contain and band tests
    per_level = {}
    while stack:
        level, quarters, ia, ib, base, sq, cp, fl = stack.pop()
        size = 0.5 ** level
        reach = size * unit_half_diag + margin
        if level not in per_level:
            rho = radii[:1] if one_radius else radii
            per_level[level] = np.square(np.stack([rho + reach + EPS, rho + EPS,
                                                   np.maximum(rho - reach, 0.0), rho + reach]))
        limits = per_level[level]
        bounds = _list_bounds(sq, len(ia))
        squares, lists = [], []
        done = 0
        for lo, hi, q0, q1 in _list_blocks(bounds, quarters.shape[1]):
            # children in (quarter, parent) order
            m = hi - lo
            nq = q1 - q0
            cia = (2 * ia[lo:hi] + quarters[0, q0:q1, None]).ravel()
            cib = (2 * ib[lo:hi] + quarters[1, q0:q1, None]).ravel()
            sx, sy = lattice.point((cia + 0.5) * size, (cib + 0.5) * size)
            e = slice(bounds[lo], bounds[hi])
            c, f = cp[e], fl[e]
            counts = bounds[lo + 1:hi + 1] - bounds[lo:hi]
            d2 = np.square(np.repeat(sx.reshape(nq, m), counts, axis=1) - cx[c])
            d2 += np.square(np.repeat(sy.reshape(nq, m), counts, axis=1) - cy[c])
            grown, lim, inner, outer = limits if one_radius else limits[:, c]
            # per (quarter, entry), three nested tests of the entries whose
            # group is not yet counted: the copy reaches the child, covers
            # its centre, contains it
            hits = np.empty((3,) + d2.shape, dtype=bool)
            np.less_equal(d2, grown, out=hits[0])
            np.less_equal(d2, lim, out=hits[1])
            np.less(d2, inner, out=hits[2])
            hits &= ~f
            flag = f | hits[2]
            runs = _group_runs(sq[e], groups[c])
            if runs is not None:
                # a run passes the tests its best entry passes; the first
                # entry holds that, the others nothing
                pos, starts, lengths, later = runs
                passed = hits[:, :, pos].view(np.uint8)
                top = np.maximum.reduceat(passed[0] + passed[1] + passed[2], starts, axis=-1)
                hits[:, :, later] = False
                hits[:, :, pos[starts]] = top >= np.arange(1, 4, dtype=np.uint8)[:, None, None]
                flag[:, pos] |= np.repeat(top == 3, lengths, axis=-1)
            sums = np.zeros((3, nq, m), dtype=np.int64)
            full = counts > 0
            if len(c):
                sums[:, :, full] = np.add.reduceat(hits, bounds[lo:hi][full] - bounds[lo],
                                                   axis=-1, dtype=np.int32)
            up, low, cbase = (sums + base[lo:hi]).reshape(3, -1)
            floor = max(floor, int(low.max(initial=0)))
            # a child whose upper bound is below the floor cannot raise it;
            # the others keep the copies that reach without containing them
            live = np.repeat((up >= floor).reshape(nq, m), counts, axis=1)
            pick = np.flatnonzero(live & (d2 >= inner) & (d2 <= grown))
            t, at = np.divmod(pick, len(c))
            band = d2.ravel()[pick] <= (outer if one_radius else outer[at])
            squares.append((cia, cib, sx, sy, cbase, up, low))
            lists.append((done + t * m + (sq[e][at] - lo), c[at], flag.ravel()[pick], band))
            done += len(cia)
        cia, cib, sx, sy, cbase, up, low = _joined(squares)
        csq, ccp, cfl, cband = _joined(lists)
        alive = up >= floor
        sel = alive[csq]
        ia, ib, base, up = cia[alive], cib[alive], cbase[alive], up[alive]
        # the surviving children's lists; the blocks' lists go at once, as
        # a level's lists are the largest arrays held
        del squares, lists
        sq, cp, fl, band = (np.cumsum(alive) - 1)[csq[sel]], ccp[sel], cfl[sel], cband[sel]
        del csq, ccp, cfl, cband
        meets[cp[band]] = True
        rows = np.count_nonzero(meets)
        meets[cp[band]] = False
        if 4 * len(ia) >= _ROW_SQUARES * rows or level == _MAX_LEVEL:
            kept.append((sx[alive], sy[alive], np.full(len(ia), reach), up, low[alive],
                         nkept + sq[band], cp[band]))
            nkept += len(ia)
            continue
        bounds = _list_bounds(sq, len(ia))
        for lo, hi in reversed(list(_square_ranges(bounds, _BATCH_ENTRIES))):
            e = slice(bounds[lo], bounds[hi])
            stack.append((level + 1, _QUARTERS, ia[lo:hi], ib[lo:hi], base[lo:hi],
                          sq[e] - lo, cp[e], fl[e]))
    # a leaf kept before the floor rose to its last value may now fall below it
    sx, sy, reach, up, low, leaf, row = _joined(kept)
    alive = up >= floor
    meets[row[alive[leaf]]] = True
    return _Leaves(np.stack([sx, sy], axis=1)[alive], reach[alive], np.flatnonzero(meets),
                   floor, up[alive], low[alive])


def _list_bounds(sq, n):
    """Where each of the n squares' entries start in lists sorted by square,
    and the total."""
    return np.concatenate([[0], np.cumsum(np.bincount(sq, minlength=n))])


def _joined(blocks):
    """The blocks' arrays, each concatenated over the blocks."""
    return blocks[0] if len(blocks) == 1 else [np.concatenate(a) for a in zip(*blocks)]


def _square_ranges(bounds, budget):
    """(lo, hi) for runs of consecutive squares whose lists,
    ``bounds[lo]:bounds[hi]``, hold at most ``budget`` entries, or for one
    square whose list alone holds more."""
    lo = 0
    while lo < len(bounds) - 1:
        hi = int(np.searchsorted(bounds, bounds[lo] + budget, side="right")) - 1
        hi = min(len(bounds) - 1, max(lo + 1, hi))
        yield lo, hi
        lo = hi


def _list_blocks(bounds, nq):
    """(lo, hi, q0, q1) per block of the quadtree's bounds: squares lo..hi-1
    and their children in quarters q0..q1-1, about ``_LIST_PAIRS`` (entry,
    child) pairs a block.  A square whose list alone exceeds that is split
    by quarters."""
    for lo, hi in _square_ranges(bounds, _LIST_PAIRS // nq):
        step = max(1, _LIST_PAIRS // max(int(bounds[hi] - bounds[lo]), 1))
        for q0 in range(0, nq, step):
            yield lo, hi, q0, min(q0 + step, nq)


def _group_runs(sq, grp):
    """The runs of list entries (sorted by square, then group) that share a
    square and a group, when some run holds more than one entry: positions
    of those runs' entries, where each run starts among them, its length,
    and the positions of every entry but a run's first.  None otherwise."""
    same = (sq[1:] == sq[:-1]) & (grp[1:] == grp[:-1])
    if not same.any():
        return None
    later = np.flatnonzero(same) + 1
    member = np.zeros(len(sq), dtype=bool)
    member[later] = True
    member[later - 1] = True
    pos = np.flatnonzero(member)
    first = np.ones(len(sq), dtype=bool)
    first[later] = False
    starts = np.flatnonzero(first[pos])
    lengths = np.empty_like(starts)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1] = len(pos) - starts[-1]
    return pos, starts, lengths, later


def _near_leaves(points, leaves):
    """Indices of the ``points`` within reach of some leaf's centre:
    d^2 <= reach^2."""
    lim = np.square(leaves.reach)[:, None]
    near = np.zeros(len(points), dtype=bool)
    for base, d2, memb in _distance_blocks(leaves.centres, points):
        near |= np.less_equal(d2, lim[base:base + len(d2)], out=memb).any(axis=0)
    return np.flatnonzero(near)


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
        leaves = _surviving_squares(centers, radii, groups, lattice)
        cands, counts = _scored_candidates(*args, leaves.rows,
                                           wrapped[_near_leaves(wrapped, leaves)])
        if len(counts) == 0 or counts.max() < leaves.floor:
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
