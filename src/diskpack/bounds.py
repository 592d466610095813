"""Theoretical constants: coverage guarantees and the weight-integral machinery.

Every constant is computed from first principles here; decimal literals
appear only in tests, as expectations with explicit tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import InputError
from .geometry import (Circle, Point, SQRT3, _clamp, circle_polygon_intersection_area,
                       lens_area, min_overlap_closed_form, require_finite)
from .lattice import SquareLattice, TWO_COLOUR_SIDE, loeschian_decompose

# radius of the circle inscribed in a Voronoi hexagon of side 4/3
INSCRIBED_RADIUS = 2.0 / SQRT3
# below this center distance the unit disk lies inside the inscribed circle
WEIGHT_BREAKPOINT = 2.0 / SQRT3 - 1.0
# the Voronoi square of the two-colour lattice, around its lattice point
_SQUARE_CELL = SquareLattice(TWO_COLOUR_SIDE).cell


def weight_lower_bound(r: float) -> float:
    """Lower bound on the area a disk keeps inside its selecting cell.

    Equals the intersection area of a unit disk and a disk of radius
    2/sqrt(3) whose centers are r apart, written out explicitly; the
    function is continuous and non-increasing on [0, 1] with a derivative
    jump at 2/sqrt(3) - 1.
    """
    require_finite(r, what="distance")
    if r < 0.0 or r > 1.0:
        raise InputError("weight_lower_bound expects r in [0, 1]")
    if r <= WEIGHT_BREAKPOINT:
        return math.pi
    t1 = math.acos(_clamp(0.5 * (r * r - 1.0 / 3.0) / r))
    t2 = (4.0 / 3.0) * math.acos(_clamp(0.25 * (r * r + 1.0 / 3.0) * SQRT3 / r))
    c = INSCRIBED_RADIUS
    prod = ((-r + 1.0 + c) * (r + 1.0 - c) * (r - 1.0 + c) * (r + 1.0 + c))
    t3 = 0.5 * math.sqrt(max(prod, 0.0))
    return t1 + t2 - t3


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-8, max_depth: int = 50) -> float:
    """Adaptive Simpson quadrature with Richardson correction."""
    if a == b:
        return 0.0

    def simp(fa, fm, fb, h):
        return h / 3.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x2, f0, f2, whole, depth, tol):
        x1 = 0.5 * (x0 + x2)
        h = 0.5 * (x2 - x0)
        fl = f(0.5 * (x0 + x1))
        fr = f(0.5 * (x1 + x2))
        f1 = f(x1)
        left = simp(f0, fl, f1, 0.5 * h)
        right = simp(f1, fr, f2, 0.5 * h)
        err = (left + right - whole) / 15.0
        if depth >= max_depth or abs(err) < tol:
            return left + right + err
        return (recurse(x0, x1, f0, f1, left, depth + 1, tol / 2.0)
                + recurse(x1, x2, f1, f2, right, depth + 1, tol / 2.0))

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    return recurse(a, b, fa, fb, simp(fa, fm, fb, 0.5 * (b - a)), 0, tol)


@lru_cache(maxsize=None)
def weighted_bound_constant() -> float:
    """2 * integral over [0,1] of r * weight_lower_bound(r), split at the kink."""
    f = lambda r: r * weight_lower_bound(r)
    part1 = adaptive_simpson(f, 0.0, WEIGHT_BREAKPOINT, tol=5e-9)
    part2 = adaptive_simpson(f, WEIGHT_BREAKPOINT, 1.0, tol=5e-9)
    return 2.0 * (part1 + part2)


def golden_section_min(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-12, scan: int = 256) -> tuple[float, float]:
    """Minimize a scalar function: coarse scan to bracket, then golden section."""
    xs = [a + (b - a) * i / scan for i in range(scan + 1)]
    vals = [f(x) for x in xs]
    k = min(range(len(xs)), key=lambda t: vals[t])
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, scan)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def square_overlap_at_angle(theta: float) -> float:
    """Area kept in a Voronoi square (side 2*sqrt(2)) by a unit disk whose
    boundary passes through the square's center, direction angle theta."""
    c = Point(math.cos(theta), math.sin(theta))
    return circle_polygon_intersection_area(Circle(c, 1.0), _SQUARE_CELL)


@lru_cache(maxsize=None)
def min_square_overlap() -> float:
    """Minimum of :func:`square_overlap_at_angle`; by symmetry over [0, pi/4]."""
    _, val = golden_section_min(square_overlap_at_angle, 0.0, math.pi / 4.0)
    return val


def alpha_k(k: int) -> float:
    """Scale factor putting same-coloured Voronoi cells 2 apart for k colours."""
    if loeschian_decompose(k) is None:
        raise InputError(f"k={k} is not Loeschian")
    denom = math.sqrt(k) - 2.0 / SQRT3
    if denom <= 0.0:
        raise InputError(f"k={k} is too small for the k-colour scaling")
    return 2.0 / denom


def delta_k(k: int) -> float:
    """Voronoi-cell diameter after the k-colour scaling."""
    return (2.0 / SQRT3) * alpha_k(k)


def kcolour_guarantee(k: int) -> float:
    """Coverage guarantee of ``solve_kcolour(., k)``: 1 / (1 + delta_k)^2,
    and for k = 1, which has no scaling, the side-4 lattice's ``c1_lb``."""
    if k == 1:
        return bound_table().c1_lb
    return 1.0 / ((1.0 + delta_k(k)) ** 2)


@dataclass(frozen=True)
class BoundsTable:
    c1_lb: float        # one colour, side-4 lattice
    c3_basic: float     # three colours, count-maximizing positioning
    c3_weighted: float  # three colours, weight-maximizing positioning (existence)
    c2_basic: float     # two colours, square lattice
    c3_upper: float     # three-disk upper bound from the near-common-point family
    min_hex_overlap: float
    min_square_overlap: float


@lru_cache(maxsize=None)
def bound_table() -> BoundsTable:
    delta = min_overlap_closed_form()
    return BoundsTable(
        c1_lb=math.pi / (8.0 * SQRT3),
        c3_basic=SQRT3 / 8.0 * delta,
        c3_weighted=SQRT3 / 8.0 * weighted_bound_constant(),
        c2_basic=min_square_overlap() / 8.0,
        c3_upper=(3.0 * math.pi - 3.0 * lens_area(1.0, 1.0, SQRT3)) / (4.0 * math.pi),
        min_hex_overlap=delta,
        min_square_overlap=min_square_overlap(),
    )
