"""Positioned point lattices, with their colourings and Voronoi cells.

One ``Lattice`` type, defined by its data (side, offset, basis, colouring
and Voronoi cell), serves both lattice kinds.  ``TriLattice`` and
``SquareLattice`` build them and ``lattice_of`` finds one by the kind name
result files store, so no other module knows what distinguishes the kinds.
Orientation is fixed (u along +x); translation is the only degree of freedom.

Every method is written once for Python floats and NumPy arrays alike, with
the same IEEE operations in the same order.  The offset may itself be a pair
of arrays (``at``), one lattice per element, which lets the selector test
many offsets at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .geometry import Point, SQRT3, require_finite

# default sides: 4*sqrt(3)/3 gives 3-colourable selections, 4 gives pairwise
# disjoint ones, 2*sqrt(2) the checkerboard 2-colouring
THREE_COLOUR_SIDE = 4.0 * SQRT3 / 3.0
ONE_COLOUR_SIDE = 4.0
TWO_COLOUR_SIDE = 2.0 * math.sqrt(2.0)


class LatticePoint(NamedTuple):
    i: int
    j: int
    position: Point
    colour: int


@dataclass(frozen=True)
class Lattice:
    """Lattice points offset + i*u + j*v, u = (side, 0), v = (shear*side,
    rise*side/2); built by ``TriLattice`` and ``SquareLattice``.

    ``rise`` is twice v's height in units of side, so that heights round as
    side*sqrt(3)/2 always has.  ``cell`` holds the Voronoi cell's vertices
    relative to its lattice point, counterclockwise.
    """

    kind: str
    side: float
    offset: Point
    shear: float
    rise: float
    colours: int
    cell: tuple[Point, ...]

    def at(self, x, y) -> Lattice:
        """This lattice moved to offset (x, y); arrays of offsets give one
        lattice per element."""
        return replace(self, offset=Point(x, y))

    @property
    def u(self) -> Point:
        return Point(self.side, 0.0)

    @property
    def v(self) -> Point:
        return Point(self.side * self.shear, self.side * self.rise / 2.0)

    @property
    def cell_area(self) -> float:
        """Area of the fundamental parallelogram."""
        return self.side * self.side * self.rise / 2.0

    def colour(self, i, j):
        # 3 colours: the six neighbours of (i, j) get the other two;
        # 2 colours: the checkerboard (i + j) mod 2
        return (i - j) % self.colours

    def point(self, a, b) -> Point:
        """offset + a*u + b*v, for lattice indices or affine coordinates."""
        x = self.offset[0] + a * self.side
        if self.shear:
            x = x + b * self.side * self.shear
        return Point(x, self.offset[1] + b * self.side * self.rise / 2.0)

    def affine(self, x, y):
        """Coordinates (a, b) with (x, y) = offset + a*u + b*v."""
        b = (y - self.offset[1]) / self.v[1]
        a = (x - self.offset[0]) / self.side
        if self.shear:
            a = a - b * self.shear
        return a, b

    def wrap_to_cell(self, x, y):
        """(wx, wy, i, j) with (wx, wy) in the half-open fundamental cell and
        (x, y) = (wx, wy) + i*u + j*v; i and j are integral floats."""
        a, b = self.affine(x, y)
        if not (np.isfinite(a) & np.isfinite(b)).all():
            raise InputError("non-finite coordinate")
        i = np.floor(a)
        j = np.floor(b)
        fa = a - i
        fb = b - j
        # guard against floating fold-over: a - floor(a) can round up to 1.0
        fold_a = fa >= 1.0
        fold_b = fb >= 1.0
        wx, wy = self.point(fa - fold_a, fb - fold_b)
        return wx, wy, i + fold_a, j + fold_b

    def points_in_box(self, bbox: tuple[float, float, float, float]) -> list[LatticePoint]:
        """All lattice points (i, j) whose ``point(i, j)`` lies inside the
        closed bbox (xmin, ymin, xmax, ymax), in (j, i) order."""
        xmin, ymin, xmax, ymax = bbox
        require_finite(xmin, ymin, xmax, ymax, what="bbox bound")
        if xmax < xmin or ymax < ymin:
            return []
        out = []
        for j in range(math.floor((ymin - self.offset[1]) / self.v[1]) - 1,
                       math.ceil((ymax - self.offset[1]) / self.v[1]) + 2):
            x0, y = self.point(0, j)
            if not ymin <= y <= ymax:
                continue
            # point(i, j)[0] grows with i, so one column of slack either side
            # of the estimate holds every listed point
            for i in range(math.floor((xmin - x0) / self.side) - 1,
                           math.ceil((xmax - x0) / self.side) + 2):
                p = self.point(i, j)
                if xmin <= p[0] <= xmax:
                    out.append(LatticePoint(i, j, p, self.colour(i, j)))
        return out

    def cell_polygon(self, i: int, j: int) -> tuple[Point, ...]:
        """Vertices of the Voronoi cell of lattice point (i, j), counterclockwise."""
        x, y = self.point(i, j)
        return tuple(Point(x + dx, y + dy) for dx, dy in self.cell)


def _check(side: float, offset: Point) -> None:
    require_finite(side, offset[0], offset[1], what="lattice parameter")
    if side <= 0.0:
        raise InputError("lattice side must be positive")


def TriLattice(side: float, offset: Point = Point(0.0, 0.0), colours: int = 3) -> Lattice:
    """Triangular lattice, v = (side/2, side*sqrt(3)/2), with regular
    hexagonal cells; 3 colours, or 1 when side >= 4."""
    _check(side, offset)
    rad = side / SQRT3
    # vertices in the directions 30 + k*60 degrees, circumradius side/sqrt(3)
    angles = [math.pi / 6.0 + k * math.pi / 3.0 for k in range(6)]
    cell = tuple(Point(rad * math.cos(t), rad * math.sin(t)) for t in angles)
    return Lattice("triangular", side, offset, 0.5, SQRT3, colours, cell)


def SquareLattice(side: float, offset: Point = Point(0.0, 0.0), colours: int = 2) -> Lattice:
    """Axis-aligned square lattice, v = (0, side), with the checkerboard
    2-colouring."""
    _check(side, offset)
    h = side / 2.0
    cell = (Point(-h, -h), Point(h, -h), Point(h, h), Point(-h, h))
    return Lattice("square", side, offset, 0.0, 2.0, colours, cell)


_KINDS = {"triangular": TriLattice, "square": SquareLattice}


def lattice_of(kind: str, side: float, offset: Point) -> Lattice:
    """The lattice a result file names by kind, side and offset."""
    if kind not in _KINDS:
        raise InputError(f"unknown lattice kind {kind!r}")
    return _KINDS[kind](side, offset)


def loeschian_decompose(k: int) -> tuple[int, int] | None:
    """Smallest (a, b) with a^2 + a*b + b^2 == k, or None if k is not Loeschian."""
    if not isinstance(k, int) or k <= 0:
        raise InputError("k must be a positive integer")
    if k >= 2 ** 31:
        raise InputError(f"k={k} is too large for a sqrt(k)-step search; k must be below 2^31")
    for a in range(math.isqrt(k) + 1):
        disc = 4 * k - 3 * a * a
        if disc < 0:
            break
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        if (r - a) % 2 != 0:
            continue
        b = (r - a) // 2
        if b >= 0 and a * a + a * b + b * b == k:
            return a, b
    return None


class LoeschianColouring:
    """k-colouring of lattice indices by residues modulo a sublattice of index k.

    The sublattice is generated by (a, b) and its 60-degree rotation
    (-b, a+b); each residue class is itself a triangular lattice whose side
    is sqrt(k) times the base side.  Residues are put in Hermite normal form
    so the colour map is O(1) and deterministic.
    """

    def __init__(self, k: int):
        decomp = loeschian_decompose(k)
        if decomp is None:
            raise InputError(
                f"k={k} is not Loeschian (no integers a, b with a^2+ab+b^2=k)")
        self.k = k
        self.a, self.b = decomp
        a, b = decomp
        g, x0, y0 = _egcd(b, a + b)
        self._g = g                      # smallest positive j-step in the sublattice
        self._p = k // g                 # i-period once j is reduced
        w2_first = x0 * a - y0 * b       # i-component of the generator with j-step g
        self._q = w2_first % self._p

    def colour(self, i: int, j: int) -> int:
        j_mod = j % self._g
        t = (j - j_mod) // self._g
        i_mod = (i - t * self._q) % self._p
        return j_mod * self._p + i_mod


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y == g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y
