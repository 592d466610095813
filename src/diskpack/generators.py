"""Instance generators, all deterministic in their arguments."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .geometry import Point, SQRT3
from .prng import double_block
from .union_area import DiskSet


def _uniform(seed: int, start: int, count: int, lo: float, hi: float) -> np.ndarray:
    """Draws start + 1 .. start + count of ``SplitMix64(seed).uniform(lo, hi)``,
    bit for bit: the same lo + (hi - lo) * u, one rounding per operation."""
    return lo + (hi - lo) * double_block(seed, start, count)


def gen_spirograph(n: int, epsilon: float, seed: int = 0) -> DiskSet:
    """n unit disks with centers equally spaced on a circle of radius 1 - epsilon.

    Every disk contains the origin; as epsilon -> 0 and n grows the union
    approaches area 4*pi while no two disks can be selected together with one
    colour.  ``seed`` is accepted for interface symmetry and unused.
    """
    if n < 3:
        raise InputError("spirograph needs n >= 3")
    if not 0.0 < epsilon < 1.0:
        raise InputError("epsilon must lie in (0, 1)")
    r = 1.0 - epsilon
    angles = [2.0 * math.pi * k / n for k in range(n)]
    return DiskSet(1.0, [(r * math.cos(t), r * math.sin(t)) for t in angles])


def gen_random(n: int, box_side: float, seed: int) -> DiskSet:
    """n unit disks with centers uniform in [0, box_side]^2."""
    if n < 1:
        raise InputError("need n >= 1")
    if not 0.0 < box_side < math.inf:
        raise InputError("box side must be positive and finite")
    return DiskSet(1.0, _uniform(seed, 0, 2 * n, 0.0, box_side).reshape(n, 2))


def gen_clustered(n: int, clusters: int, box_side: float, spread: float,
                  seed: int) -> DiskSet:
    """n unit disks scattered uniformly around ``clusters`` random cluster centers."""
    if n < 1 or clusters < 1:
        raise InputError("need n >= 1 and clusters >= 1")
    if not (0.0 < box_side < math.inf and 0.0 <= spread < math.inf):
        raise InputError("box side must be positive and spread non-negative, both finite")
    hubs = _uniform(seed, 0, 2 * clusters, 0.0, box_side).reshape(clusters, 2)
    offsets = _uniform(seed, 2 * clusters, 2 * n, -spread, spread).reshape(n, 2)
    return DiskSet(1.0, hubs[np.arange(n) % clusters] + offsets)


def gen_chain(n: int, spacing: float, start: Point = Point(0.0, 0.0)) -> DiskSet:
    """n unit disks in a row, consecutive centers ``spacing`` apart."""
    if n < 1:
        raise InputError("need n >= 1")
    if not 0.0 < spacing < math.inf:
        raise InputError("spacing must be positive and finite")
    return DiskSet(1.0, tuple(Point(start[0] + k * spacing, start[1]) for k in range(n)))


def enclosing_triangle_side(disks: DiskSet) -> float:
    """Side of an upright equilateral triangle that contains every disk."""
    if len(disks) == 0:
        raise InputError("need at least one disk")
    xmin, ymin, xmax, ymax = disks.bbox(pad=0.05)
    return (xmax - xmin) + 2.0 * (ymax - ymin) / SQRT3


def gen_depth_reduction(disks: DiskSet) -> DiskSet:
    """Shift disk i into cell i of a lattice whose side covers the whole input.

    The original set has a point of depth k exactly when a lattice of side
    ``enclosing_triangle_side(disks)`` can be positioned to contain lattice
    points in k of the shifted disks.
    """
    side = enclosing_triangle_side(disks)
    x, y = disks.centers_array().T
    return DiskSet(disks.radius, np.column_stack([x + np.arange(len(x)) * side, y]))
