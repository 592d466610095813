"""Exact primitive geometry: circle overlaps, convex clipping, disk-hexagon overlap.

Conventions used throughout the package:

* disks are closed sets: a point on the bounding circle is contained;
* geometric predicates use an absolute tolerance ``EPS`` (plane units);
* regular hexagons have their vertices in the directions 30 + k*60 degrees
  from the center, so the +x axis bisects an edge pair.  This matches the
  Voronoi cells of a triangular lattice whose first basis vector lies along +x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError

EPS = 1e-9

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

# unit disk with its boundary through the hexagon center: the two clip cases
# swap at this direction angle (measured from an edge-bisecting axis)
CASE_SPLIT = math.acos(2.0 / 3.0) - math.pi / 6.0


class Point(NamedTuple):
    x: float
    y: float


class Circle(NamedTuple):
    center: Point
    radius: float


def require_finite(*values: float, what: str = "coordinate") -> None:
    for v in values:
        if not math.isfinite(v):
            raise InputError(f"non-finite {what}: {v!r}")


def _clamp(v: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return lo if v < lo else hi if v > hi else v


def _sorted_runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): ``np.lexsort(keys)``, the last key primary and ties
    in index order, and the positions in ``order`` where each run of equal
    keys starts (equal by ``==``, so 0.0 and -0.0 share a run)."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    return order, np.flatnonzero(new)


def _scan_runs(starts: np.ndarray, values: np.ndarray, better) -> np.ndarray:
    """Per run of ``values`` (runs begin at ``starts``), the position that an
    in-order scan keeps: the run's first, replaced by each later member for
    which ``better(member, kept)`` holds on arrays of values.  Rank t touches
    only the runs longer than t, so the work is O(len(values))."""
    lengths = np.diff(starts, append=len(values))
    kept = starts.copy()
    live = np.arange(len(starts))
    for t in range(1, int(lengths.max(initial=0))):
        live = live[lengths[live] > t]
        member = starts[live] + t
        win = better(values[member], values[kept[live]])
        kept[live[win]] = member[win]
    return kept


def lens_area(r1: float, r2: float, d: float) -> float:
    """Area of the intersection of two circles with radii r1, r2, centers d apart."""
    require_finite(r1, r2, d, what="lens_area argument")
    if r1 <= 0.0 or r2 <= 0.0:
        raise InputError("circle radii must be positive")
    if d < 0.0:
        raise InputError("center distance must be non-negative")
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rmin = min(r1, r2)
        return math.pi * rmin * rmin
    # split along the radical line; each side contributes a circular segment
    d1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    d2 = d - d1
    a1 = r1 * r1 * math.acos(_clamp(d1 / r1)) - d1 * math.sqrt(max(r1 * r1 - d1 * d1, 0.0))
    a2 = r2 * r2 * math.acos(_clamp(d2 / r2)) - d2 * math.sqrt(max(r2 * r2 - d2 * d2, 0.0))
    return a1 + a2


def _edge_disk_area(ax: float, ay: float, bx: float, by: float, r: float) -> float:
    """Signed area of triangle (origin, A, B) clipped to the disk |p| <= r.

    Positive when A -> B turns counterclockwise around the origin.  Summing
    over the directed edges of a simple polygon yields area(polygon ∩ disk).
    """
    dx = bx - ax
    dy = by - ay
    a = dx * dx + dy * dy
    if a == 0.0:
        return 0.0
    b = ax * dx + ay * dy
    c = ax * ax + ay * ay - r * r
    ts = [0.0, 1.0]
    disc = b * b - a * c
    if disc > 0.0:
        root = math.sqrt(disc)
        for t in ((-b - root) / a, (-b + root) / a):
            if 0.0 < t < 1.0:
                ts.append(t)
        ts.sort()
    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        tm = 0.5 * (t0 + t1)
        px = ax + tm * dx
        py = ay + tm * dy
        x0 = ax + t0 * dx
        y0 = ay + t0 * dy
        x1 = ax + t1 * dx
        y1 = ay + t1 * dy
        # a line that does not cross the circle lies outside it; at a
        # tangency the midpoint test alone can round to inside
        if disc > 0.0 and px * px + py * py <= r * r:
            total += 0.5 * (x0 * y1 - y0 * x1)
        else:
            # sub-segment outside the disk: circular sector between the rays
            total += 0.5 * r * r * math.atan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1)
    return total


def _edge_pieces(ax, ay, dx, dy, t0, t1, r: float, crosses=True) -> np.ndarray:
    """The scalar loop body of ``_edge_disk_area`` for the pieces [t0, t1]
    of edges whose line ``crosses`` the circle or not."""
    tm = 0.5 * (t0 + t1)
    px = ax + tm * dx
    py = ay + tm * dy
    x0 = ax + t0 * dx
    y0 = ay + t0 * dy
    x1 = ax + t1 * dx
    y1 = ay + t1 * dy
    cross = x0 * y1 - y0 * x1
    out = 0.5 * cross
    # a zero-length piece adds 0 on either branch, so it skips atan2
    sector = np.flatnonzero(((px * px + py * py > r * r) | np.logical_not(crosses)) & (t1 > t0))
    x0, y0, x1, y1 = x0[sector], y0[sector], x1[sector], y1[sector]
    out[sector] = 0.5 * r * r * np.fromiter(
        map(math.atan2, memoryview(cross[sector]), memoryview(x0 * x1 + y0 * y1)),
        float, len(sector))
    return out


def _edge_disk_area_array(ax: np.ndarray, ay: np.ndarray, bx: np.ndarray,
                          by: np.ndarray, r: float) -> np.ndarray:
    """``_edge_disk_area`` over 1-d arrays of edges, equal to it bit for bit.

    An edge whose line meets the circle is cut at the two roots clipped to
    [0, 1], so a root the scalar code skips becomes a zero-length piece that
    adds exactly 0; any other edge is one piece.  Pieces outside the disk
    use the scalar ``math.atan2``, because ``np.arctan2`` differs from it in
    the last bit.
    """
    dx = bx - ax
    dy = by - ay
    a = dx * dx + dy * dy
    b = ax * dx + ay * dy
    c = ax * ax + ay * ay - r * r
    disc = b * b - a * c
    total = np.zeros(len(ax))
    t_last = np.zeros(len(ax))
    cut = np.flatnonzero(disc > 0.0)
    root = np.sqrt(disc[cut])
    t_lo, t_hi = (np.where(t > 0.0, np.minimum(t, 1.0), 0.0)
                  for t in ((-b[cut] - root) / a[cut], (-b[cut] + root) / a[cut]))
    t_last[cut] = t_hi
    edge = (ax[cut], ay[cut], dx[cut], dy[cut])
    total[cut] = (total[cut] + _edge_pieces(*edge, 0.0, t_lo, r)
                  + _edge_pieces(*edge, t_lo, t_hi, r))
    return total + _edge_pieces(ax, ay, dx, dy, t_last, 1.0, r, disc > 0.0)


def polygon_area(poly: Sequence[Point]) -> float:
    """Signed area, positive for counterclockwise orientation."""
    total = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        total += x0 * y1 - y0 * x1
    return 0.5 * total


def circle_polygon_intersection_area(circle: Circle, poly: Sequence[Point]) -> float:
    """Exact area of circle ∩ convex polygon (counterclockwise vertices)."""
    (cx, cy), r = circle
    require_finite(cx, cy, r, what="circle parameter")
    if r <= 0.0:
        raise InputError("circle radius must be positive")
    if len(poly) < 3:
        raise InputError("polygon needs at least 3 vertices")
    for p in poly:
        require_finite(p[0], p[1], what="polygon vertex")
    signed = polygon_area(poly)
    if abs(signed) < 1e-12:
        raise InputError("degenerate polygon with zero area")
    if signed < 0.0:
        raise InputError("polygon must be counterclockwise")
    n = len(poly)
    for i in range(n):
        ox, oy = poly[i]
        px, py = poly[(i + 1) % n]
        qx, qy = poly[(i + 2) % n]
        cross = (px - ox) * (qy - oy) - (py - oy) * (qx - ox)
        if cross < -1e-9:
            raise InputError("polygon must be convex")
    total = 0.0
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        total += _edge_disk_area(ax - cx, ay - cy, bx - cx, by - cy, r)
    return total


@dataclass(frozen=True)
class RegularHexagon:
    """Regular hexagon; vertex directions 30 + k*60 degrees from the center."""

    center: Point
    side: float

    def __post_init__(self) -> None:
        require_finite(self.center[0], self.center[1], self.side, what="hexagon parameter")
        if self.side <= 0.0:
            raise InputError("hexagon side must be positive")

    @property
    def circumradius(self) -> float:
        return self.side

    @property
    def inradius(self) -> float:
        return self.side * SQRT3 / 2.0

    def vertices(self) -> tuple[Point, ...]:
        cx, cy = self.center
        r = self.side
        return tuple(
            Point(cx + r * math.cos(math.pi / 6.0 + k * math.pi / 3.0),
                  cy + r * math.sin(math.pi / 6.0 + k * math.pi / 3.0))
            for k in range(6)
        )

    def contains(self, p: Point, tol: float = EPS) -> bool:
        dx = p[0] - self.center[0]
        dy = p[1] - self.center[1]
        lim = self.inradius + tol
        # edge outward normals point along k*60 degrees
        for k in range(6):
            if dx * math.cos(k * math.pi / 3.0) + dy * math.sin(k * math.pi / 3.0) > lim:
                return False
        return True


def disk_hexagon_area(circle: Circle, hexagon: RegularHexagon) -> float:
    """Exact area of circle ∩ hexagon via the general convex clip."""
    return circle_polygon_intersection_area(circle, hexagon.vertices())


# ---------------------------------------------------------------------------
# Overlap of a hexagon of side 4/3 with a unit disk whose boundary passes
# through the hexagon center, as a function of the direction angle theta.
# The intersection splits into a polygon plus one circular sector; the
# sector angle is pi + atan2-free arctan of cross/dot at the disk center.
# ---------------------------------------------------------------------------

def _sector(ax, ay, bx, by, cx, cy):
    # sector of the unit disk centered at B spanned between rays B->A and B->C
    px = ax - bx
    py = ay - by
    qx = cx - bx
    qy = cy - by
    num = px * qy - py * qx
    den = px * qx + py * qy
    ang = math.atan(num / den) if den != 0.0 else math.copysign(math.pi / 2.0, num)
    return 0.5 * (math.pi + ang)


def _f1(th: float) -> float:
    # disk holds two hexagon vertices; region = pentagon ABCED + sector at B
    s = math.sin(th)
    c = math.cos(th)
    q1 = -2.0 * SQRT3 / 3.0 + 0.5 * SQRT3 * s + 0.5 * c
    w1 = math.sqrt(max(1.0 - q1 * q1, 0.0))
    ax = SQRT3 / 3.0 - 0.5 * w1 * SQRT3 - 0.25 * SQRT3 * s + 0.75 * c
    ay = 1.0 + 0.5 * w1 + 0.25 * s - 0.25 * SQRT3 * c
    bx, by = c, s
    q2 = 2.0 * SQRT3 / 3.0 + 0.5 * SQRT3 * s - 0.5 * c
    w2 = math.sqrt(max(1.0 - q2 * q2, 0.0))
    cx = SQRT3 / 3.0 - 0.5 * w2 * SQRT3 + 0.25 * SQRT3 * s + 0.75 * c
    cy = -1.0 - 0.5 * w2 + 0.25 * s + 0.25 * SQRT3 * c
    dx, dy = 2.0 * SQRT3 / 3.0, 2.0 / 3.0
    ex, ey = 2.0 * SQRT3 / 3.0, -2.0 / 3.0
    poly = 0.5 * (ax * (by - dy) + bx * (cy - ay) + cx * (ey - by)
                  + ex * (dy - cy) + dx * (ay - ey))
    return poly + _sector(ax, ay, bx, by, cx, cy)


def _f2(th: float) -> float:
    # disk holds a single hexagon vertex; region = quadrilateral ABCD + sector
    s = math.sin(th)
    c = math.cos(th)
    q1 = -2.0 * SQRT3 / 3.0 + 0.5 * SQRT3 * s + 0.5 * c
    w1 = math.sqrt(max(1.0 - q1 * q1, 0.0))
    ax = SQRT3 / 3.0 - 0.5 * w1 * SQRT3 - 0.25 * SQRT3 * s + 0.75 * c
    ay = 1.0 + 0.5 * w1 + 0.25 * s - 0.25 * SQRT3 * c
    bx, by = c, s
    cx = 2.0 * SQRT3 / 3.0
    cy = -math.sqrt(max(-3.0 + 12.0 * SQRT3 * c - 9.0 * c * c, 0.0)) / 3.0 + s
    dx, dy = 2.0 * SQRT3 / 3.0, 2.0 / 3.0
    poly = 0.5 * (ax * (by - dy) + bx * (cy - ay) + cx * (dy - by) + dx * (ay - cy))
    return poly + _sector(ax, ay, bx, by, cx, cy)


def boundary_disk_hex_area(theta: float) -> float:
    """Hexagon(side 4/3) ∩ unit disk area, disk boundary through the hexagon center.

    ``theta`` is the angle from the +x axis to the disk center direction and
    must lie in [0, pi/3]; the map is symmetric about pi/6, where the disk
    center points at a hexagon vertex and the area attains its minimum.
    """
    require_finite(theta, what="angle")
    if theta < -1e-12 or theta > math.pi / 3.0 + 1e-12:
        raise InputError(f"theta must lie in [0, pi/3], got {theta!r}")
    theta = _clamp(theta, 0.0, math.pi / 3.0)
    # fold onto [0, pi/6]; the two clip cases split where the second hexagon
    # vertex leaves the disk
    t = theta if theta <= math.pi / 6.0 else math.pi / 3.0 - theta
    return _f1(t) if t < CASE_SPLIT else _f2(t)


def min_overlap_closed_form() -> float:
    """Minimum of :func:`boundary_disk_hex_area`, in closed form (~1.664538)."""
    return (SQRT3 / 36.0 + math.sqrt(11.0) / 12.0 + math.pi / 2.0
            - 0.5 * math.atan((5.0 * SQRT3 - math.sqrt(11.0))
                              / (5.0 + math.sqrt(11.0) * SQRT3)))
