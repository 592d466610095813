import itertools
import math

import numpy as np
import pytest

from diskpack import (Circle, InputError, Point, SplitMix64, THREE_COLOUR_SIDE, TriLattice,
                      boundary_disk_hex_area, circle_polygon_intersection_area,
                      lens_area, min_overlap_closed_form)
from diskpack.geometry import _scan_runs, _sorted_runs

SQRT3 = math.sqrt(3.0)
DELTA = 1.6645382445539252  # value of the closed form, frozen
# the Voronoi hexagon of side 4/3 around the origin
HEXAGON = TriLattice(THREE_COLOUR_SIDE).cell


def disk_hexagon_area(c: Point) -> float:
    return circle_polygon_intersection_area(Circle(c, 1.0), HEXAGON)


class TestLensArea:
    def test_disjoint(self):
        assert lens_area(1.0, 1.0, 2.0) == 0.0
        assert lens_area(1.0, 1.0, 5.0) == 0.0

    def test_coincident(self):
        assert lens_area(1.0, 1.0, 0.0) == pytest.approx(math.pi, abs=1e-15)

    def test_unit_circles_distance_one(self):
        expected = 2.0 * math.pi / 3.0 - SQRT3 / 2.0
        assert lens_area(1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_contained(self):
        assert lens_area(0.5, 2.0, 0.3) == pytest.approx(math.pi * 0.25, abs=1e-15)

    def test_monte_carlo_cross_check(self):
        # unit circles distance 1 apart, bounding box sampling
        rng = SplitMix64(77)
        hits = 0
        n = 200000
        for _ in range(n):
            x = -1.0 + 2.0 * rng.next_double()
            y = -1.0 + 2.0 * rng.next_double()
            if x * x + y * y <= 1.0 and (x - 1.0) ** 2 + y * y <= 1.0:
                hits += 1
        est = 4.0 * hits / n
        assert lens_area(1.0, 1.0, 1.0) == pytest.approx(est, abs=0.02)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            lens_area(0.0, 1.0, 1.0)
        with pytest.raises(InputError):
            lens_area(1.0, -2.0, 1.0)
        with pytest.raises(InputError):
            lens_area(1.0, 1.0, -0.1)
        with pytest.raises(InputError):
            lens_area(float("nan"), 1.0, 1.0)
        with pytest.raises(InputError):
            lens_area(1.0, float("inf"), 1.0)

    def test_symmetry_and_monotonicity(self):
        rng = SplitMix64(5)
        for _ in range(300):
            r1 = 0.2 + 2.0 * rng.next_double()
            r2 = 0.2 + 2.0 * rng.next_double()
            d = 3.5 * rng.next_double()
            assert lens_area(r1, r2, d) == pytest.approx(lens_area(r2, r1, d), abs=1e-12)
        prev = lens_area(1.0, 1.3, 0.0)
        for k in range(1, 240):
            cur = lens_area(1.0, 1.3, 2.4 * k / 240.0)
            assert cur <= prev + 1e-12
            prev = cur

    def test_continuity_at_touch(self):
        assert lens_area(1.0, 1.0, 2.0 - 1e-8) < 1e-5


class TestCirclePolygon:
    def test_circle_inside_polygon(self):
        square = [Point(-5, -5), Point(5, -5), Point(5, 5), Point(-5, 5)]
        area = circle_polygon_intersection_area(Circle(Point(0.3, -0.2), 1.0), square)
        assert area == pytest.approx(math.pi, abs=1e-12)

    def test_polygon_inside_circle(self):
        tri = [Point(0, 0), Point(0.5, 0), Point(0, 0.5)]
        area = circle_polygon_intersection_area(Circle(Point(0, 0), 10.0), tri)
        assert area == pytest.approx(0.125, abs=1e-12)

    def test_disjoint(self):
        tri = [Point(10, 10), Point(11, 10), Point(10, 11)]
        assert circle_polygon_intersection_area(Circle(Point(0, 0), 1.0), tri) == \
            pytest.approx(0.0, abs=1e-12)

    def test_half_plane_cut(self):
        square = [Point(0, -9), Point(9, -9), Point(9, 9), Point(0, 9)]
        area = circle_polygon_intersection_area(Circle(Point(0, 0), 1.0), square)
        assert area == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_degenerate_polygon_rejected(self):
        line = [Point(0, 0), Point(1, 0), Point(2, 0)]
        with pytest.raises(InputError):
            circle_polygon_intersection_area(Circle(Point(0, 0), 1.0), line)

    def test_clockwise_rejected(self):
        cw = [Point(0, 0), Point(0, 1), Point(1, 0)]
        with pytest.raises(InputError):
            circle_polygon_intersection_area(Circle(Point(0, 0), 1.0), cw)

    def test_unit_disk_centered_in_hexagon(self):
        assert disk_hexagon_area(Point(0, 0)) == pytest.approx(math.pi, abs=1e-12)

    def test_circle_tangent_to_edges(self):
        # each edge's line touches the circle, and the midpoint test at the
        # touch point rounds to inside: the edges once counted as triangles
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        assert circle_polygon_intersection_area(Circle(Point(0.5, 0.5), 0.5), square) == \
            pytest.approx(math.pi / 4.0, abs=1e-12)
        # the last x is the hexagon's inradius (4/3) * sqrt(3)/2 less 1
        for x in (0.1547005383792515, 0.15470053837925152, 4.0 / 3.0 * SQRT3 / 2.0 - 1.0):
            assert disk_hexagon_area(Point(x, 0.0)) == pytest.approx(math.pi, abs=1e-12)

    def test_vertex_direction_distance_one(self):
        c = Point(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0))
        assert disk_hexagon_area(c) == pytest.approx(DELTA, abs=1e-9)


class TestBoundaryDiskHexArea:
    def test_domain(self):
        with pytest.raises(InputError):
            boundary_disk_hex_area(-0.01)
        with pytest.raises(InputError):
            boundary_disk_hex_area(math.pi / 3.0 + 0.01)
        with pytest.raises(InputError):
            boundary_disk_hex_area(float("nan"))

    def test_minimum_value(self):
        assert boundary_disk_hex_area(math.pi / 6.0) == \
            pytest.approx(min_overlap_closed_form(), abs=1e-12)

    def test_symmetry(self):
        for k in range(101):
            t = (math.pi / 6.0) * k / 100.0
            assert boundary_disk_hex_area(t) == \
                pytest.approx(boundary_disk_hex_area(math.pi / 3.0 - t), abs=1e-12)

    def test_agrees_with_clipping_oracle(self):
        for k in range(1001):
            t = (math.pi / 3.0) * k / 1000.0
            oracle = disk_hexagon_area(Point(math.cos(t), math.sin(t)))
            assert abs(boundary_disk_hex_area(t) - oracle) < 1e-9

    def test_never_below_minimum(self):
        d = min_overlap_closed_form()
        for k in range(1001):
            t = (math.pi / 3.0) * k / 1000.0
            assert boundary_disk_hex_area(t) >= d - 1e-12

    def test_stationary_at_minimum(self):
        h = 1e-5
        fd = (boundary_disk_hex_area(math.pi / 6.0 + h)
              - boundary_disk_hex_area(math.pi / 6.0 - h)) / (2.0 * h)
        assert abs(fd) < 1e-6


class TestMinOverlap:
    def test_closed_form_value(self):
        expr = (SQRT3 / 36.0 + math.sqrt(11.0) / 12.0 + math.pi / 2.0
                - 0.5 * math.atan((5.0 * SQRT3 - math.sqrt(11.0))
                                  / (5.0 + math.sqrt(11.0) * SQRT3)))
        assert min_overlap_closed_form() == pytest.approx(expr, abs=1e-12)
        assert min_overlap_closed_form() == pytest.approx(DELTA, abs=1e-12)
        assert min_overlap_closed_form() == pytest.approx(1.6645, abs=1e-4)

    def test_matches_numeric_minimum(self):
        # independent minimizer: dense grid then local refinement
        best_t, best_v = 0.0, float("inf")
        n = 4000
        for k in range(n + 1):
            t = (math.pi / 3.0) * k / n
            v = boundary_disk_hex_area(t)
            if v < best_v:
                best_t, best_v = t, v
        lo, hi = best_t - 1e-3, best_t + 1e-3
        for _ in range(80):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if boundary_disk_hex_area(max(m1, 0.0)) < boundary_disk_hex_area(min(m2, math.pi / 3.0)):
                hi = m2
            else:
                lo = m1
        tmin = 0.5 * (lo + hi)
        assert boundary_disk_hex_area(tmin) == \
            pytest.approx(min_overlap_closed_form(), abs=1e-9)
        assert tmin == pytest.approx(math.pi / 6.0, abs=1e-6)

    def test_sliding_to_boundary(self):
        # any unit disk containing the hexagon center keeps at least the minimum
        d = min_overlap_closed_form()
        rng = SplitMix64(31)
        for _ in range(1000):
            r = rng.next_double()
            t = 2.0 * math.pi * rng.next_double()
            c = Point(r * math.cos(t), r * math.sin(t))
            assert disk_hexagon_area(c) >= d - 1e-9


def _reference_runs(keys):
    """(order, starts) by Python's stable sort and itertools.groupby."""
    rows = list(zip(*(k.tolist() for k in reversed(keys))))
    order = sorted(range(len(rows)), key=lambda t: rows[t])
    starts, at = [], 0
    for _, run in itertools.groupby(order, key=lambda t: rows[t]):
        starts.append(at)
        at += len(list(run))
    return order, starts


def _reference_scan(starts, values, better):
    values = values.tolist()
    kept = []
    for lo, hi in zip(starts, starts[1:] + [len(values)]):
        k = lo
        for t in range(lo + 1, hi):
            if better(values[t], values[k]):
                k = t
        kept.append(k)
    return kept


GREATER = lambda new, cur: new > cur + 1e-12
LESS = lambda new, cur: new < cur - 1e-15


class TestSortedRuns:
    def check(self, keys, values):
        order, starts = _sorted_runs(*keys)
        want_order, want_starts = _reference_runs(keys)
        assert order.tolist() == want_order
        assert starts.tolist() == want_starts
        for better in (GREATER, LESS):
            assert _scan_runs(starts, values[order], better).tolist() == \
                _reference_scan(want_starts, values[order], better)

    def test_empty(self):
        self.check([np.zeros(0), np.zeros(0, dtype=np.int64)], np.zeros(0))

    def test_single_run(self):
        values = np.array([1.0, 3.0, 2.0, 3.0 + 1e-12, 5.0])
        self.check([np.full(5, 7.0), np.full(5, -2)], values)
        order, starts = _sorted_runs(np.full(5, 7.0))
        assert starts.tolist() == [0]
        assert _scan_runs(starts, values, GREATER).tolist() == [4]

    def test_random_keys(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 17, 300):
            keys = [rng.integers(0, 4, n), rng.integers(-2, 2, n).astype(float)]
            self.check(keys, rng.choice([0.0, 1.0, 1.0 + 1e-12, 2.0], n))

    def test_bit_pattern_keys(self):
        x = np.array([0.0, -0.0, 1.5, 0.0, 2.0 ** 60, -0.0, 1.5, -(2.0 ** 60)])
        bits = x.view(np.int64)
        self.check([bits, bits[::-1].copy()], x)
        order, starts = _sorted_runs(bits)
        # 0.0 and -0.0 differ in their bits
        assert len(starts) == 5

    def test_signed_zeros_share_a_run(self):
        x = np.array([0.0, -0.0, 0.0, 1.0, -0.0])
        order, starts = _sorted_runs(x)
        assert order.tolist() == [0, 1, 2, 4, 3]
        assert starts.tolist() == [0, 4]

    def test_many_runs_and_long_runs(self):
        # more live runs than _SCALAR_RUNS take NumPy rounds, the rest jump
        # from kept member to kept member and then scan one by one: runs of
        # 1 to 400 members, one of them falling by 1e-12 at every member, one
        # of equal members and one rising by 1e-12
        rng = np.random.default_rng(4)
        run = np.repeat(np.arange(300), rng.integers(1, 12, 300))
        run = np.concatenate([run, np.full(400, 300), np.full(400, 301), np.full(400, 302)])
        values = rng.choice([0.0, 1.0, 1.0 + 1e-12, 2.0], len(run))
        values[-1200:-800] = 1.0 - 1e-12 * np.arange(400)
        values[-800:-400] = 1.0
        values[-400:] = 1.0 + 1e-12 * np.arange(400)
        self.check([run], values)

    def test_ties_at_the_margins(self):
        cur = 1.0
        up = cur + 1e-12
        down = cur - 1e-15
        values = np.array([cur, up, cur, math.nextafter(up, 2.0), 0.5,
                           cur, down, math.nextafter(down, 0.0)])
        run = np.array([0, 0, 1, 1, 1, 2, 2, 2])
        starts = np.array([0, 2, 5])
        # a member exactly at the margin does not replace the kept one
        assert _scan_runs(starts, values, GREATER).tolist() == [0, 3, 5]
        assert _scan_runs(starts, values, LESS).tolist() == [0, 4, 7]
        self.check([run], values)
