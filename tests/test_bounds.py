import math

import numpy as np
import pytest

from diskpack import (Circle, InputError, Point, RegularHexagon, SplitMix64,
                      adaptive_simpson, alpha_k, bound_table, delta_k,
                      disk_hexagon_area, kcolour_guarantee, lens_area,
                      min_overlap_closed_form, min_square_overlap,
                      square_overlap_at_angle, weight_lower_bound,
                      weighted_bound_constant)
from diskpack.bounds import WEIGHT_BREAKPOINT

SQRT3 = math.sqrt(3.0)


class TestWeightLowerBound:
    def test_flat_region(self):
        assert weight_lower_bound(0.0) == math.pi
        assert weight_lower_bound(0.1) == math.pi
        assert weight_lower_bound(WEIGHT_BREAKPOINT) == math.pi

    def test_domain(self):
        with pytest.raises(InputError):
            weight_lower_bound(-0.01)
        with pytest.raises(InputError):
            weight_lower_bound(1.01)

    def test_value_at_one(self):
        assert weight_lower_bound(1.0) == pytest.approx(1.5619058665913905, abs=1e-9)

    def test_equals_lens_area(self):
        rng = SplitMix64(8)
        for _ in range(100):
            r = rng.next_double()
            assert weight_lower_bound(r) == \
                pytest.approx(lens_area(1.0, 2.0 / SQRT3, r), abs=1e-9)

    def test_continuous_at_breakpoint(self):
        left = weight_lower_bound(WEIGHT_BREAKPOINT)
        right = weight_lower_bound(WEIGHT_BREAKPOINT + 1e-12)
        assert left == pytest.approx(math.pi, abs=1e-9)
        assert right == pytest.approx(math.pi, abs=1e-9)

    def test_non_increasing(self):
        prev = weight_lower_bound(0.0)
        for k in range(1, 401):
            cur = weight_lower_bound(k / 400.0)
            assert cur <= prev + 1e-12
            prev = cur

    def test_pointwise_below_true_weight(self):
        # the inscribed-circle weight never exceeds the hexagon overlap
        rng = SplitMix64(21)
        for _ in range(1000):
            r = rng.next_double()
            t = 2.0 * math.pi * rng.next_double()
            hexa = RegularHexagon(Point(0.0, 0.0), 4.0 / 3.0)
            c = Point(r * math.cos(t), r * math.sin(t))
            true_weight = disk_hexagon_area(Circle(c, 1.0), hexa)
            assert weight_lower_bound(r) <= true_weight + 1e-9


class TestAdaptiveSimpson:
    def test_sine(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10) == \
            pytest.approx(2.0, abs=1e-9)

    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda x: x ** 3, 0.0, 2.0) == \
            pytest.approx(4.0, abs=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0


class TestWeightedConstant:
    def test_value(self):
        c = weighted_bound_constant()
        assert c == pytest.approx(2.207, abs=1e-3)
        scaled = SQRT3 / 8.0 * c
        assert scaled == pytest.approx(0.4778, abs=5e-4)
        assert 1.0 / scaled == pytest.approx(2.09, abs=5e-3)

    def test_against_riemann_oracle(self):
        # independent vectorized midpoint rule for the same integrand
        n = 1_000_000
        r = (np.arange(n) + 0.5) / n
        c = 2.0 / SQRT3
        w = np.full(n, math.pi)
        m = r > WEIGHT_BREAKPOINT
        rm = r[m]
        t1 = np.arccos(np.clip(0.5 * (rm * rm - 1.0 / 3.0) / rm, -1, 1))
        t2 = (4.0 / 3.0) * np.arccos(np.clip(0.25 * (rm * rm + 1.0 / 3.0) * SQRT3 / rm, -1, 1))
        t3 = 0.5 * np.sqrt(np.clip((-rm + 1 + c) * (rm + 1 - c) * (rm - 1 + c) * (rm + 1 + c), 0, None))
        w[m] = t1 + t2 - t3
        riemann = 2.0 * float(np.mean(r * w))
        assert weighted_bound_constant() == pytest.approx(riemann, abs=1e-6)


class TestSquareOverlap:
    def test_minimum_location_and_value(self):
        d2 = min_square_overlap()
        assert 8.0 / d2 == pytest.approx(3.37, abs=0.01)
        # direction of an edge midpoint is the minimizer
        assert square_overlap_at_angle(0.0) == pytest.approx(d2, abs=1e-9)
        assert square_overlap_at_angle(math.pi / 4.0) > d2 + 0.1

    def test_lower_bound_over_containing_disks(self):
        # any unit disk containing the square center keeps at least the minimum
        from diskpack.geometry import circle_polygon_intersection_area
        h = math.sqrt(2.0)
        square = (Point(-h, -h), Point(h, -h), Point(h, h), Point(-h, h))
        d2 = min_square_overlap()
        rng = SplitMix64(3)
        for _ in range(500):
            r = rng.next_double()
            t = 2.0 * math.pi * rng.next_double()
            c = Point(r * math.cos(t), r * math.sin(t))
            area = circle_polygon_intersection_area(Circle(c, 1.0), square)
            assert area >= d2 - 1e-9


class TestBoundTable:
    def test_one_colour(self):
        t = bound_table()
        assert t.c1_lb == pytest.approx(math.pi / (8.0 * SQRT3), abs=1e-15)
        assert t.c1_lb == pytest.approx(0.2267253, abs=1e-6)
        assert 1.0 / t.c1_lb == pytest.approx(4.41, abs=5e-3)

    def test_three_colour_basic(self):
        t = bound_table()
        assert t.c3_basic == SQRT3 / 8.0 * min_overlap_closed_form()
        assert 1.0 / t.c3_basic == pytest.approx(2.77, abs=5e-3)

    def test_three_colour_weighted(self):
        t = bound_table()
        assert 1.0 / t.c3_weighted == pytest.approx(2.09, abs=5e-3)

    def test_two_colour(self):
        t = bound_table()
        assert 1.0 / t.c2_basic == pytest.approx(3.37, abs=0.01)

    def test_upper_bound(self):
        t = bound_table()
        expected = (3.0 * math.pi - 3.0 * lens_area(1.0, 1.0, SQRT3)) / (4.0 * math.pi)
        assert t.c3_upper == pytest.approx(expected, abs=1e-12)
        assert 1.0 / t.c3_upper == pytest.approx(1.415, abs=5e-3)

    def test_ordering(self):
        t = bound_table()
        assert t.c1_lb < t.c2_basic < t.c3_basic < t.c3_weighted < t.c3_upper


class TestKColourConstants:
    def test_k3(self):
        assert alpha_k(3) == pytest.approx(2.0 * SQRT3, abs=1e-12)
        assert delta_k(3) == pytest.approx(4.0, abs=1e-12)
        assert kcolour_guarantee(3) == pytest.approx(1.0 / 25.0, abs=1e-12)

    def test_k7(self):
        assert delta_k(7) == pytest.approx(1.5488, abs=1e-4)
        assert 1.0 / kcolour_guarantee(7) == pytest.approx(6.497, abs=5e-3)

    def test_k12(self):
        assert delta_k(12) == pytest.approx(1.0, abs=1e-12)
        assert kcolour_guarantee(12) == pytest.approx(0.25, abs=1e-12)

    def test_non_loeschian_rejected(self):
        with pytest.raises(InputError):
            delta_k(5)
        with pytest.raises(InputError):
            alpha_k(2)

    def test_alpha_needs_large_enough_k(self):
        with pytest.raises(InputError):
            alpha_k(1)

    def test_k1_has_no_scaled_cell(self):
        # (2/sqrt(3)) * 2 / (1 - 2/sqrt(3)) was a negative cell diameter
        with pytest.raises(InputError):
            delta_k(1)
        assert kcolour_guarantee(1) == bound_table().c1_lb
