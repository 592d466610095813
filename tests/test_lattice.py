import itertools
import math

import numpy as np
import pytest

from diskpack import (InputError, LoeschianColouring, Point, SplitMix64,
                      SquareLattice, THREE_COLOUR_SIDE, TriLattice,
                      loeschian_decompose)
from conftest import REFERENCE_POSITIONED

SQRT3 = math.sqrt(3.0)


class TestTriLattice:
    def test_defaults(self):
        lat = TriLattice(THREE_COLOUR_SIDE)
        assert lat.side == pytest.approx(4.0 * SQRT3 / 3.0)
        assert lat.cell_area == pytest.approx(8.0 / SQRT3, abs=1e-12)
        # no unit disk holds two lattice points
        assert lat.side > 2.0

    def test_rejects_bad_side(self):
        with pytest.raises(InputError):
            TriLattice(0.0)
        with pytest.raises(InputError):
            TriLattice(float("inf"))

    def test_points_in_box(self):
        lat = TriLattice(THREE_COLOUR_SIDE)
        pts = lat.points_in_box((-3.0, -3.0, 3.0, 3.0))
        origin = [p for p in pts if p.i == 0 and p.j == 0]
        assert len(origin) == 1 and origin[0].colour == 0
        for p in pts:
            assert -3.0 <= p.position[0] <= 3.0
            assert -3.0 <= p.position[1] <= 3.0

    def test_adjacent_points_differ_in_colour(self):
        lat = TriLattice(THREE_COLOUR_SIDE)
        for i, j in itertools.product(range(-3, 4), repeat=2):
            c = lat.colour(i, j)
            for di, dj in ((1, 0), (0, 1), (1, -1)):
                assert lat.colour(i + di, j + dj) != c

    def test_same_colour_min_distance(self):
        lat = TriLattice(THREE_COLOUR_SIDE)
        pts = lat.points_in_box((-7.0, -7.0, 7.0, 7.0))
        best = float("inf")
        for p, q in itertools.combinations(pts, 2):
            if p.colour == q.colour:
                best = min(best, math.dist(p.position, q.position))
        assert best == pytest.approx(lat.side * SQRT3, abs=1e-9)
        assert best == pytest.approx(4.0, abs=1e-9)

    def test_wrap_identity_and_translates(self):
        lat = TriLattice(THREE_COLOUR_SIDE, offset=Point(0.3, -0.8))
        inside = lat.point(0.4, 0.6)
        *cp, i, j = lat.wrap_to_cell(*inside)
        assert (i, j) == (0, 0)
        assert math.dist(cp, inside) < 1e-12
        u, v = lat.u, lat.v
        *cp2, i2, j2 = lat.wrap_to_cell(inside[0] + 3 * u[0] - 2 * v[0],
                                        inside[1] + 3 * u[1] - 2 * v[1])
        assert (i2, j2) == (3, -2)
        assert math.dist(cp2, inside) < 1e-9

    def test_wrap_lattice_point(self):
        lat = TriLattice(THREE_COLOUR_SIDE)
        *cp, i, j = lat.wrap_to_cell(lat.u[0] + lat.v[0], lat.u[1] + lat.v[1])
        assert (i, j) == (1, 1)
        assert math.dist(cp, lat.offset) < 1e-12

    def test_wrap_rejects_non_finite(self):
        lat = TriLattice(THREE_COLOUR_SIDE)
        with pytest.raises(InputError):
            lat.wrap_to_cell(float("nan"), 0.0)

    def test_wrap_preserves_measure(self):
        # uniform points map to near-uniform affine coordinates (chi-square)
        lat = TriLattice(THREE_COLOUR_SIDE, offset=Point(0.17, 0.52))
        rng = SplitMix64(9)
        bins = [[0] * 6 for _ in range(6)]
        n = 30000
        for _ in range(n):
            p = Point(-40.0 + 80.0 * rng.next_double(),
                      -40.0 + 80.0 * rng.next_double())
            cx, cy, _, _ = lat.wrap_to_cell(*p)
            a, b = lat.affine(cx, cy)
            assert -1e-12 <= a < 1.0 + 1e-12
            assert -1e-12 <= b < 1.0 + 1e-12
            bins[min(int(a * 6), 5)][min(int(b * 6), 5)] += 1
        exp = n / 36.0
        chi2 = sum((bins[i][j] - exp) ** 2 / exp for i in range(6) for j in range(6))
        assert chi2 < 80.0  # df=35, well beyond any sane quantile only on bugs

    def test_voronoi_cell(self):
        lat = TriLattice(THREE_COLOUR_SIDE)
        h = lat.voronoi_cell(lat.point(2, -1))
        assert h.side == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert h.inradius == pytest.approx(2.0 / SQRT3, abs=1e-12)
        with pytest.raises(InputError):
            lat.voronoi_cell(Point(0.5, 0.5))

    def test_voronoi_tiling_partition(self):
        # every sample point belongs to exactly one cell via the nearest-point
        # rule, and that cell's hexagon contains it geometrically
        lat = TriLattice(THREE_COLOUR_SIDE, offset=Point(-0.4, 0.9))
        rng = SplitMix64(123)
        for _ in range(400):
            p = Point(-8.0 + 16.0 * rng.next_double(), -8.0 + 16.0 * rng.next_double())
            i, j = lat.nearest(p)
            hexa = lat.voronoi_cell_at(i, j)
            assert hexa.contains(p, tol=1e-9)
            # interior points (away from boundaries) lie in no other cell
            margin = hexa.inradius - math.dist(p, hexa.center)
            if margin > 1e-6:
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        if (di, dj) != (0, 0):
                            other = lat.voronoi_cell_at(i + di, j + dj)
                            assert not other.contains(p, tol=-1e-9)


class TestSquareLattice:
    def test_checkerboard(self):
        lat = SquareLattice(2.0 * math.sqrt(2.0))
        assert lat.cell_area == pytest.approx(8.0, abs=1e-12)
        pts = lat.points_in_box((-9.0, -9.0, 9.0, 9.0))
        best = float("inf")
        for p, q in itertools.combinations(pts, 2):
            if p.colour == q.colour:
                best = min(best, math.dist(p.position, q.position))
        assert best == pytest.approx(4.0, abs=1e-9)

    def test_wrap(self):
        lat = SquareLattice(2.0 * math.sqrt(2.0), offset=Point(1.0, 1.0))
        *cp, i, j = lat.wrap_to_cell(1.0 + 3 * lat.side + 0.5, 1.0 - lat.side + 0.25)
        assert (i, j) == (3, -1)
        assert cp[0] == pytest.approx(1.5, abs=1e-9)
        assert cp[1] == pytest.approx(1.25, abs=1e-9)

    def test_voronoi_square(self):
        lat = SquareLattice(2.0 * math.sqrt(2.0))
        cell = lat.voronoi_cell(lat.point(0, 0))
        assert len(cell) == 4
        xs = [v[0] for v in cell]
        assert max(xs) - min(xs) == pytest.approx(lat.side, abs=1e-12)


POSITIONED = sorted(REFERENCE_POSITIONED)


def _offset_lattice(method):
    return REFERENCE_POSITIONED[method][0].at(0.3, -0.7)


class TestPositionedLattices:
    @pytest.mark.parametrize("method", POSITIONED)
    def test_same_colour_min_distance(self, method):
        lat = _offset_lattice(method)
        pts = lat.points_in_box((-9.0, -9.0, 9.0, 9.0))
        assert {p.colour for p in pts} == set(range(lat.colours))
        best = min(math.dist(p.position, q.position)
                   for p, q in itertools.combinations(pts, 2) if p.colour == q.colour)
        assert best >= 4.0 - 1e-9

    @pytest.mark.parametrize("method", POSITIONED)
    def test_scalar_and_array_forms_agree(self, method):
        lat = _offset_lattice(method)
        rng = SplitMix64(17)
        xs = [-30.0 + 60.0 * rng.next_double() for _ in range(500)] + [0.0, -0.0, 1e12]
        ys = [-30.0 + 60.0 * rng.next_double() for _ in range(500)] + [-0.0, 0.0, -3e11]
        a, b = lat.affine(np.array(xs), np.array(ys))
        assert list(zip(a.tolist(), b.tolist())) == [lat.affine(x, y) for x, y in zip(xs, ys)]
        px, py = lat.point(a, b)
        assert list(zip(px.tolist(), py.tolist())) == \
            [tuple(lat.point(s, t)) for s, t in zip(a.tolist(), b.tolist())]
        ij = np.array([-3.0, 0.0, 2.0, 7.0])
        px, py = lat.point(ij, ij[::-1])
        assert list(zip(px.tolist(), py.tolist())) == \
            [tuple(lat.point(int(i), int(j))) for i, j in zip(ij, ij[::-1])]

    @pytest.mark.parametrize("method", POSITIONED)
    def test_affine_round_trip(self, method):
        lat = _offset_lattice(method)
        rng = SplitMix64(23)
        for _ in range(300):
            a = -50.0 + 100.0 * rng.next_double()
            b = -50.0 + 100.0 * rng.next_double()
            a2, b2 = lat.affine(*lat.point(a, b))
            assert a2 == pytest.approx(a, abs=1e-12)
            assert b2 == pytest.approx(b, abs=1e-12)
        for i, j in itertools.product(range(-4, 5), repeat=2):
            a2, b2 = lat.affine(*lat.point(i, j))
            assert (round(a2), round(b2)) == (i, j)
            assert abs(a2 - i) < 1e-12 and abs(b2 - j) < 1e-12

    @pytest.mark.parametrize("method", POSITIONED)
    def test_nearest_matches_brute_force(self, method):
        lat = _offset_lattice(method)
        rng = SplitMix64(31)
        pts = [Point(-12.0 + 24.0 * rng.next_double(), -12.0 + 24.0 * rng.next_double())
               for _ in range(300)]
        # ties: lattice points, edge midpoints and Voronoi cell vertices
        for i, j in itertools.product(range(-2, 3), repeat=2):
            pts.append(lat.point(i, j))
            pts.append(lat.point(i + 0.5, j))
            pts.append(lat.point(i, j + 0.5))
            pts.extend(lat.cell_polygon(i, j))
        for p in pts:
            a, b = lat.affine(p[0], p[1])
            window = itertools.product(range(math.floor(a) - 2, math.floor(a) + 3),
                                       range(math.floor(b) - 2, math.floor(b) + 3))
            best = min(((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2, i, j)
                       for i, j in window for q in [lat.point(i, j)])
            assert lat.nearest(p) == best[1:]

    @pytest.mark.parametrize("method", POSITIONED)
    def test_box_points_match_points_in_box(self, method):
        lat = _offset_lattice(method)
        rng = SplitMix64(37)
        for _ in range(20):
            x0 = -10.0 + 20.0 * rng.next_double()
            y0 = -10.0 + 20.0 * rng.next_double()
            bbox = (x0, y0, x0 + 12.0 * rng.next_double(), y0 + 12.0 * rng.next_double())
            i, j = (g.ravel() for g in np.meshgrid(np.arange(-12.0, 13.0), np.arange(-12.0, 13.0)))
            x, y, listed = lat.box_points(i, j, bbox)
            got = sorted((int(b), int(a), px, py) for a, b, px, py, ok
                         in zip(i, j, x.tolist(), y.tolist(), listed) if ok)
            want = [(p.j, p.i, *p.position) for p in lat.points_in_box(bbox)]
            assert got == want


class TestLoeschian:
    def test_decompositions(self):
        assert loeschian_decompose(3) == (1, 1)
        assert loeschian_decompose(7) == (1, 2)
        assert loeschian_decompose(5) is None
        assert loeschian_decompose(4) == (0, 2)
        assert loeschian_decompose(12) == (2, 2)
        assert loeschian_decompose(1) == (0, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            loeschian_decompose(0)
        with pytest.raises(InputError):
            loeschian_decompose(-3)

    @pytest.mark.parametrize("k", [1, 3, 4, 7, 9, 12, 13])
    def test_colouring_properties(self, k):
        col = LoeschianColouring(k)
        window = range(-8, 9)
        colours = {col.colour(i, j) for i in window for j in window}
        assert colours == set(range(k))
        # within-colour minimum squared distance in lattice units is exactly k
        pts = [(i, j, col.colour(i, j)) for i in range(-6, 7) for j in range(-6, 7)]
        best = float("inf")
        for (i1, j1, c1), (i2, j2, c2) in itertools.combinations(pts, 2):
            if c1 == c2:
                di, dj = i1 - i2, j1 - j2
                best = min(best, di * di + di * dj + dj * dj)
        assert best == k

    def test_non_loeschian_rejected(self):
        with pytest.raises(InputError):
            LoeschianColouring(5)
