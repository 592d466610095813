import math
import time

import numpy as np
import pytest

from diskpack import (DiskSet, InputError, Point, SplitMix64, exact_union_area,
                      gen_chain, gen_clustered, gen_random, gen_spirograph,
                      lens_area, monte_carlo_union_area, scaled_union_area)
from diskpack.union_area import _near_pairs
from conftest import (quick_corpus, reference_exact_union_area,
                      reference_monte_carlo_union_area)
from test_acceptance import build_corpus


def _shifted(ds, dx, dy):
    return DiskSet(ds.radius, tuple(Point(x + dx, y + dy) for x, y in ds.centers))


def _degenerate_cases():
    ring = [(0.9 * math.cos(k * math.pi / 3), 0.9 * math.sin(k * math.pi / 3))
            for k in range(6)]
    cases = [DiskSet.from_pairs(ring + [(0.0, 0.0)]),  # fully surrounded
             DiskSet.from_pairs([(0, 0), (0, 0), (1, 0), (1, 0), (1, 0)]),
             DiskSet.from_pairs([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (3.0, 1.0)]),
             gen_chain(5, 1.05), gen_chain(6, 1.0),
             gen_spirograph(12, 0.3), gen_spirograph(50, 0.01)]
    # m neighbours at 2*cos(pi/m) cover the centre circle in abutting arcs
    # whose ends meet within rounding, where the 1e-15 merge rule decides
    for m, t, cx, cy in ((3, 2.161919662131537, 0.0, 0.0),
                         (6, 4.340663863720785, 25.611602201927468, 17.385581079074797),
                         (8, 4.527845902467442, 10.570464219941364, 21.062693519093372)):
        d = 2.0 * math.cos(math.pi / m)
        angles = [2 * math.pi * k / m + t for k in range(m)]
        cases.append(DiskSet.from_pairs(
            [(cx + d * math.cos(a), cy + d * math.sin(a)) for a in angles] + [(cx, cy)]))
    cases += [gen_clustered(2 + 3 * k, 1 + k % 4, 6.0 + k, 0.5 + 0.05 * k, 500 + k)
              for k in range(40)]
    base = [gen_random(n, max(3.0, 1.5 * math.sqrt(n)), n) for n in (2, 7, 40, 150, 400)]
    cases += [_shifted(ds, s, -s) for ds in base for s in (0.0, 1e3, 1e6, 1e9)]
    return cases


class TestDiskSet:
    def test_validation(self):
        with pytest.raises(InputError):
            DiskSet(0.0, (Point(0, 0),))
        with pytest.raises(InputError):
            DiskSet(1.0, (Point(float("nan"), 0),))
        with pytest.raises(InputError):
            DiskSet(float("inf"), (Point(0, 0),))

    def test_duplicates_allowed(self):
        ds = DiskSet.from_pairs([(0, 0), (0, 0)])
        assert len(ds) == 2


class TestExactUnionArea:
    def test_empty(self):
        assert exact_union_area(DiskSet(1.0, ())) == 0.0

    def test_single(self):
        assert exact_union_area(DiskSet.from_pairs([(2, 3)])) == \
            pytest.approx(math.pi, abs=1e-12)

    def test_two_disjoint(self):
        assert exact_union_area(DiskSet.from_pairs([(0, 0), (4, 0)])) == \
            pytest.approx(2 * math.pi, abs=1e-12)

    def test_two_overlapping_closed_form(self):
        expected = 2.0 * math.pi - lens_area(1.0, 1.0, 1.0)
        assert exact_union_area(DiskSet.from_pairs([(0, 0), (1, 0)])) == \
            pytest.approx(expected, abs=1e-9)

    def test_coincident_deduplicated(self):
        a = exact_union_area(DiskSet.from_pairs([(0, 0), (0, 0), (1, 0)]))
        b = exact_union_area(DiskSet.from_pairs([(0, 0), (1, 0)]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_tangent_disks(self):
        assert exact_union_area(DiskSet.from_pairs([(0, 0), (2, 0)])) == \
            pytest.approx(2 * math.pi, abs=1e-9)

    def test_surrounded_circle_contributes_nothing_extra(self):
        ring = [(0.9 * math.cos(k * math.pi / 3), 0.9 * math.sin(k * math.pi / 3))
                for k in range(6)]
        with_center = exact_union_area(DiskSet.from_pairs(ring + [(0.0, 0.0)]))
        without = exact_union_area(DiskSet.from_pairs(ring))
        # the central disk is entirely inside the ring's union
        assert with_center == pytest.approx(without, abs=1e-9)

    def test_monotone_in_disks(self):
        rng = SplitMix64(17)
        for trial in range(20):
            n = 2 + rng.randrange(15)
            pts = [(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(n)]
            a_small = exact_union_area(DiskSet.from_pairs(pts[:-1]))
            a_full = exact_union_area(DiskSet.from_pairs(pts))
            assert a_full >= a_small - 1e-9

    def test_containment_bound(self):
        for seed in range(10):
            ds = gen_random(12, 6.0, seed)
            a = exact_union_area(ds)
            assert 0.0 < a <= 12 * math.pi + 1e-9


class TestArrayCodeMatchesLoop:
    """The array routine against the per-circle loop it replaced, under ==."""

    def test_corpus(self):
        for ds in build_corpus() + quick_corpus(120, 60, 77):
            assert exact_union_area(ds) == reference_exact_union_area(ds)

    def test_degenerate_cases(self):
        for ds in _degenerate_cases():
            assert exact_union_area(ds) == reference_exact_union_area(ds)

    @pytest.mark.parametrize("r", [0.3, 0.7, 1.0])
    def test_scaled(self, r):
        for seed in range(6):
            ds = gen_random(60, 10.0, 700 + seed)
            assert scaled_union_area(ds, r) == \
                reference_exact_union_area(DiskSet(ds.radius * r, ds.centers))

    def test_monte_carlo_same_estimate(self):
        for n, samples in ((1, 1000), (8, 300_000), (150, 140_000)):
            ds = gen_random(n, 1.4 * math.sqrt(n) + 2, 31 + n)
            assert monte_carlo_union_area(ds, samples, n) == \
                reference_monte_carlo_union_area(ds, samples, n)


def _close_pairs(ds):
    pts = ds.centers_array()
    d = np.hypot(pts[:, 0][:, None] - pts[:, 0], pts[:, 1][:, None] - pts[:, 1])
    return int(np.sum(d < 2.0)) - len(ds)


class TestNearPairs:
    @pytest.mark.filterwarnings("error")  # e.g. an overflowing cast to int64
    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12, 1e300])
    def test_superset_of_close_pairs(self, scale):
        rng = SplitMix64(int(math.log10(scale)) + 5)
        pts = []
        for _ in range(3):  # three clusters spread over the whole scale
            cx, cy = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
            pts += [(cx + rng.uniform(0, 9), cy + rng.uniform(0, 9)) for _ in range(60)]
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        found = set()
        for lo, hi, i, j in _near_pairs(x, y, 2.0):
            assert np.all((lo <= i) & (i < hi) & (i != j))
            found |= set(zip(i.tolist(), j.tolist()))
        for a in range(len(pts)):
            for b in range(len(pts)):
                if a != b and abs(x[a] - x[b]) < 2.0 and abs(y[a] - y[b]) < 2.0:
                    assert (a, b) in found

    def test_clusters_1e12_apart(self):
        cluster = gen_random(1000, 1.4 * math.sqrt(1000) + 2, 42)
        for dx, dy in ((1e12, 0.0), (1e12, 1e12), (-5e11, 5e11)):
            both = DiskSet(1.0, cluster.centers + _shifted(cluster, dx, dy).centers)
            t0 = time.perf_counter()
            area = exact_union_area(both)
            assert time.perf_counter() - t0 < 1.0
            assert area == reference_exact_union_area(both)
            # no candidate pair joins the clusters, as colliding cell keys would
            x = np.array([p[0] for p in both.centers])
            y = np.array([p[1] for p in both.centers])
            close = 0
            for _, _, i, j in _near_pairs(x, y, 2.0):
                assert np.all((i < 1000) == (j < 1000))
                close += int(np.sum(np.hypot(x[j] - x[i], y[j] - y[i]) < 2.0))
            assert close == 2 * _close_pairs(cluster)

    @pytest.mark.xfail(strict=True, reason="the Green's-theorem terms c_x*sin and "
                       "c_y*cos cancel at 1e12 and lose about 1e-5 of the area; "
                       "solving in normalized coordinates would fix it")
    def test_clusters_1e12_apart_area_to_1e_9(self):
        cluster = gen_random(1000, 1.4 * math.sqrt(1000) + 2, 42)
        both = DiskSet(1.0, cluster.centers + _shifted(cluster, 1e12, 1e12).centers)
        assert exact_union_area(both) == \
            pytest.approx(2.0 * exact_union_area(cluster), rel=1e-9)

    def test_ten_thousand_disks(self):
        n = 10_000
        ds = gen_random(n, 1.4 * math.sqrt(n) + 2, 42)
        t0 = time.perf_counter()
        area = exact_union_area(ds)
        assert time.perf_counter() - t0 < 5.0
        assert 0.0 < area <= n * math.pi


class TestMonteCarlo:
    def test_requires_samples(self):
        with pytest.raises(InputError):
            monte_carlo_union_area(DiskSet.from_pairs([(0, 0)]), 0, 1)

    def test_single_disk(self):
        est = monte_carlo_union_area(DiskSet.from_pairs([(0, 0)]), 1_000_000, 3)
        assert est.area == pytest.approx(math.pi, abs=4 * est.stderr)

    def test_seed_stability(self):
        ds = gen_random(5, 6.0, 2)
        a = monte_carlo_union_area(ds, 50_000, 42)
        b = monte_carlo_union_area(ds, 50_000, 42)
        assert a == b
        c = monte_carlo_union_area(ds, 50_000, 43)
        assert a != c

    def test_agreement_with_exact(self):
        for seed in range(8):
            ds = gen_random(2 + seed, 5.0, seed + 90)
            exact = exact_union_area(ds)
            est = monte_carlo_union_area(ds, 400_000, seed)
            assert abs(est.area - exact) <= 4.5 * est.stderr


class TestScaledUnionArea:
    def test_extremes(self):
        ds = gen_random(6, 5.0, 4)
        assert scaled_union_area(ds, 1.0) == pytest.approx(exact_union_area(ds))
        assert scaled_union_area(ds, 0.0) == 0.0

    def test_domain(self):
        ds = gen_random(2, 5.0, 4)
        with pytest.raises(InputError):
            scaled_union_area(ds, -0.1)
        with pytest.raises(InputError):
            scaled_union_area(ds, 1.1)

    def test_scaling_lower_bound(self):
        # union area of r-scaled disks is at least r^2 times the original
        rng = SplitMix64(55)
        for trial in range(25):
            n = 1 + rng.randrange(14)
            box = 3.0 + 6.0 * rng.next_double()
            ds = DiskSet.from_pairs(
                [(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(n)])
            a = exact_union_area(ds)
            for r in (0.1, 0.25, 0.5, 0.75, 0.9):
                assert scaled_union_area(ds, r) >= r * r * a - 1e-9
