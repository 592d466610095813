import hashlib
import math
import time

import numpy as np
import pytest

from diskpack import (DiskSet, InputError, Point, SplitMix64, exact_union_area,
                      gen_chain, gen_clustered, gen_random, gen_spirograph,
                      lens_area, monte_carlo_union_area, scaled_union_area)
from diskpack import files, union_area
from diskpack.union_area import _COVERED, _MIXED, _mc_grid, _near_pairs
from conftest import (quick_corpus, reference_exact_union_area,
                      reference_monte_carlo_union_area, reference_near_pairs)
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

    @pytest.mark.parametrize("radius,centers", [
        (1.0, [(1.0, 2.0, 3.0)]), (1.0, [(1.0,)]), (1.0, [("1", 2.0)]), (True, [(0.0, 0.0)]),
        ("2", [(0.0, 0.0)]), ([1.0], [(0.0, 0.0)]), (1.0, [(0.5, True)]),
        (1.0, [(10**400, 0.0)]), (10**400, [(0.0, 0.0)]), (1.0, "ab"),
        (1.0, np.zeros((2, 3))), (1.0, np.array([[True, False]]))],
        ids=["triple", "single", "str", "radius-true", "radius-str", "radius-list",
             "bool", "huge-int", "radius-huge-int", "str-centers", "array-n-3", "bool-array"])
    def test_rejects_centres_that_are_not_pairs_of_numbers(self, radius, centers):
        with pytest.raises(InputError):
            DiskSet(radius, centers)

    def test_pairs_and_arrays_make_equal_sets(self):
        pts = np.array([[0.5, -0.0], [3.0, 1e12], [-2.0, 7.25]])
        sets = [DiskSet(2, pts), DiskSet(2.0, pts.tolist()),
                DiskSet(2.0, tuple(Point(x, y) for x, y in pts.tolist())),
                DiskSet.from_pairs(map(tuple, pts), radius=np.float64(2.0))]
        for ds in sets:
            assert ds == sets[0] and hash(ds) == hash(sets[0])
            assert type(ds.radius) is float
            assert all(type(v) is float for p in ds.centers for v in p)
            # bit for bit, -0.0 included
            assert ds.centers_array().tobytes() == pts.tobytes()
        assert DiskSet(1.0, np.array([[0, 0], [3, 4]])) == DiskSet.from_pairs([(0, 0), (3, 4)])
        # the set keeps its own copy
        pts[0, 0] = 9.0
        assert sets[0].centers_array()[0, 0] == 0.5

    def test_immutable(self):
        # the set keeps its union area, so nothing it was built from may change
        ds = gen_random(5, 4.0, 1)
        for name in ("radius", "centers", "_centers_array", "_union_area"):
            with pytest.raises(AttributeError):
                setattr(ds, name, None)

    def test_duplicates_allowed(self):
        ds = DiskSet.from_pairs([(0, 0), (0, 0)])
        assert len(ds) == 2

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_centers_array_read_only_and_equal(self, n):
        ds = gen_random(n, 9.0, 3) if n else DiskSet(1.0, ())
        pts = ds.centers_array()
        assert pts.shape == (n, 2) and not pts.flags.writeable
        assert np.array_equal(pts, np.array(ds.centers, dtype=float).reshape(-1, 2))
        assert ds.centers_array() is pts
        with pytest.raises(ValueError):
            pts[...] = 0.0

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_subset_equals_fresh_set(self, n):
        ds = gen_random(n, 9.0, 4) if n else DiskSet(2.5, ())
        # the set's own area is kept, and no subset may take it
        exact_union_area(ds)
        for idx in ([], list(range(n))[::3], list(range(n))[::-2], [0, 0] if n else []):
            sub = ds.subset(idx)
            fresh = DiskSet(ds.radius, tuple(ds.centers[i] for i in idx))
            assert sub == fresh and hash(sub) == hash(fresh)
            assert np.array_equal(sub.centers_array(), fresh.centers_array())
            assert not sub.centers_array().flags.writeable
            # a subset of a subset
            inner = list(range(len(idx)))[1::2]
            assert sub.subset(inner) == DiskSet(ds.radius, tuple(fresh.centers[i] for i in inner))
            assert exact_union_area(sub) == exact_union_area(fresh)


def _memo_instances():
    base = gen_random(40, 9.0, 5)
    cluster = gen_random(200, 1.4 * math.sqrt(200) + 2, 42)
    return (quick_corpus()
            + [_shifted(base, s, -s) for s in (1e6, 1e9, 1e12, 3.3e12)]
            + [DiskSet(1.0, cluster.centers + _shifted(cluster, 1e12, 1e12).centers),
               DiskSet(0.37, base.centers), DiskSet(1.0, base.centers * 3)])


class TestAreaMemo:
    def test_computed_once_and_equal_to_a_fresh_set(self, monkeypatch):
        calls = []
        compute = union_area._exact_union_area

        def counted(disks):
            calls.append(disks)
            return compute(disks)

        monkeypatch.setattr(union_area, "_exact_union_area", counted)
        instances = _memo_instances()
        for ds in instances:
            first = exact_union_area(ds)
            again = exact_union_area(ds)
            fresh = exact_union_area(DiskSet(ds.radius, ds.centers))
            assert first.hex() == again.hex() == fresh.hex()
        # once for each set and once for its fresh copy
        assert len(calls) == 2 * len(instances)

    def test_digest_computed_once_and_equal_to_the_file_hash(self, monkeypatch):
        calls = []
        compute = files._instance_sha256

        def counted(disks):
            calls.append(disks)
            return compute(disks)

        monkeypatch.setattr(files, "_instance_sha256", counted)
        instances = _memo_instances() + [DiskSet(1.0, [(-0.0, 0.0), (0.0, -0.0), (1.5, -0.0)])]
        for ds in instances:
            want = hashlib.sha256(files.serialize_instance(ds).encode()).hexdigest()
            fresh = DiskSet(ds.radius, ds.centers)
            assert files.instance_sha256(ds) == files.instance_sha256(ds) == want
            assert fresh is not ds and files.instance_sha256(fresh) == want
        # once for each set and once for its fresh copy
        assert len(calls) == 2 * len(instances)

    def test_scaled_set_has_its_own_area(self):
        ds = gen_random(40, 9.0, 5)
        whole = exact_union_area(ds)
        assert scaled_union_area(ds, 0.5) == exact_union_area(DiskSet(0.5, ds.centers)) < whole


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

    def test_coincident_and_signed_zero_centres(self):
        # sorted(set(centers)) keeps the first of equal centres, and 0.0 ==
        # -0.0; here the sign of the surviving zero reaches arctan2 and
        # changes the last bit of the area
        base = [(1.1, 0.9), (0.0, 0.0), (0.0, -0.0), (0.3, 0.3), (0.3, 0.0),
                (0.3, -0.0), (0.3, 0.0), (-0.0, 0.0), (1.1, 0.9)]
        rng = SplitMix64(8)
        areas = set()
        for trial in range(40):
            pts = list(base)
            for k in range(len(pts) - 1, 0, -1):  # a seeded shuffle
                t = rng.randrange(k + 1)
                pts[k], pts[t] = pts[t], pts[k]
            for r in (0.9, 1.0, 1.3):
                ds = DiskSet.from_pairs(pts, radius=r)
                assert exact_union_area(ds) == reference_exact_union_area(ds)
                areas.add((r, exact_union_area(ds)))
        assert len(areas) > 3

    def test_exact_duplicates(self):
        for seed in range(4):
            ds = gen_random(30, 7.0, 80 + seed)
            twice = DiskSet(1.0, ds.centers + ds.centers[::-1] + ds.centers[::3])
            assert exact_union_area(twice) == reference_exact_union_area(twice)
            assert exact_union_area(twice) == exact_union_area(ds)

    def test_degree_skew(self):
        # 300 centres in a 0.5 box meet about 300 covers each; the 1000
        # spread disks a handful
        rng = SplitMix64(21)
        dense = [(20.0 + 0.5 * rng.next_double(), 20.0 + 0.5 * rng.next_double())
                 for _ in range(300)]
        ds = DiskSet(1.0, gen_random(1000, 46.0, 22).centers + tuple(map(Point._make, dense)))
        assert exact_union_area(ds) == reference_exact_union_area(ds)

    def test_width_classes(self):
        # circles with 1 to 140 covers (wrapping pieces included), so every
        # power-of-two row width up to 256 occurs
        rng = SplitMix64(23)
        for m in (3, 17, 33, 64, 65, 70, 129):
            ring = [(1.9 * math.cos(a), 1.9 * math.sin(a))
                    for a in (2.0 * math.pi * rng.next_double() for _ in range(m))]
            ds = DiskSet.from_pairs(ring + [(0.0, 0.0), (3.5, 0.1)])
            assert exact_union_area(ds) == reference_exact_union_area(ds)

    @pytest.mark.parametrize("r", [1e-200, 1e-3, 0.7, 1.0, 3.3, 1e150])
    def test_pairs_near_twice_the_radius(self, r):
        # neighbours a few ulps either side of 2r away, where the squared
        # pre-filter and hypot must agree on which pairs reach the arcs
        rng = SplitMix64(29)
        pts = [(0.0, 0.0)]
        for k in range(40):
            dy = 2.0 * r * rng.next_double()
            dx = math.sqrt(4.0 * r * r - dy * dy)
            for _ in range(k % 7):
                dx = math.nextafter(dx, math.inf if k % 2 else 0.0)
            sx, sy = (1.0 if k % 4 < 2 else -1.0), (1.0 if k % 3 else -1.0)
            pts.append((sx * dx, sy * dy))
        ds = DiskSet.from_pairs(pts, radius=r)
        assert exact_union_area(ds) == reference_exact_union_area(ds)

    @pytest.mark.parametrize("r", [3.3, 1e-160])
    def test_pairs_whose_square_rounds_to_the_limit(self, r):
        # hypot(dx, dy) < 2r although dx*dx + dy*dy >= (2r)^2, by rounding
        # (r = 3.3) or because the squares are subnormal (r = 1e-160): the
        # pre-filter must keep these pairs
        d = math.nextafter(2.0 * r, 0.0)
        rng = SplitMix64(31)
        pts = [(0.0, 0.0)]
        while len(pts) < 5:
            t = 2.0 * math.pi * rng.next_double()
            dx, dy = d * math.cos(t), d * math.sin(t)
            if math.hypot(dx, dy) < 2.0 * r and dx * dx + dy * dy >= (2.0 * r) ** 2:
                pts.append((dx, dy))
        ds = DiskSet.from_pairs(pts, radius=r)
        assert exact_union_area(ds) == reference_exact_union_area(ds)

    @pytest.mark.parametrize("r", [0.3, 0.7, 1.0])
    def test_scaled(self, r):
        for seed in range(6):
            ds = gen_random(60, 10.0, 700 + seed)
            assert scaled_union_area(ds, r) == \
                reference_exact_union_area(DiskSet(ds.radius * r, ds.centers))

    def test_monte_carlo_same_estimate(self):
        for seed, (ds, samples) in enumerate(_mc_cases()):
            assert monte_carlo_union_area(ds, samples, seed) == \
                reference_monte_carlo_union_area(ds, samples, seed)

    def test_monte_carlo_cells_decide_as_the_exact_test(self):
        # the corners of every covered or empty cell, and the points 2 ulps
        # either side of them in x and y, as a sample there would be placed
        for ds, samples in _mc_cases() + _mc_probe_cases():
            xmin, ymin, xmax, ymax = ds.bbox()
            w, h = xmax - xmin, ymax - ymin
            pts = ds.centers_array()
            kx, ky, status, *_ = _mc_grid(pts[:, 0], pts[:, 1], ds.radius,
                                          ds.bbox(), min(samples, 1 << 17))
            ncol, nrow = 1 << kx, 1 << ky
            decided = np.flatnonzero(status != _MIXED)
            b, a = np.divmod(decided, ncol)
            covered = status[decided] == _COVERED
            for da in (0, 1):
                for db in (0, 1):
                    x0 = xmin + w * ((a + da) / ncol)
                    y0 = ymin + h * ((b + db) / nrow)
                    for sx in (-2, 0, 2):
                        for sy in (-2, 0, 2):
                            x, y = _ulps(x0, sx), _ulps(y0, sy)
                            hit = np.zeros(len(x), dtype=bool)
                            for cx, cy in pts.tolist():
                                dx, dy = x - cx, y - cy
                                hit |= dx * dx + dy * dy <= ds.radius * ds.radius
                            assert hit[covered].all() and not hit[~covered].any()


def _mc_cases():
    base = gen_random(40, 9.0, 5)
    cluster = gen_random(60, 1.4 * math.sqrt(60) + 2, 42)
    return ([(gen_random(n, 1.4 * math.sqrt(n) + 2, 31 + n), samples)
             for n, samples in ((1, 1000), (8, 300_000), (150, 140_000))]
            + [(gen_clustered(500, 1, 12, 0.005, 9), 40_000),
               (DiskSet(1.0, [(0.3, -0.7)] * 1000), 40_000),
               (DiskSet(1.0, cluster.centers + _shifted(cluster, 1e12, 1e12).centers), 40_000),
               (_shifted(base, 1e6, -1e6), 60_000), (_shifted(base, 1e12, -1e12), 60_000),
               (DiskSet(1e-3, base.centers_array() * 1e-3), 60_000),
               (DiskSet(1e3, base.centers_array() * 1e3), 60_000),
               (gen_random(1, 3.0, 8), 60_000),
               (base, 1), (base, (1 << 17) + 3)])


def _mc_probe_cases():
    """Disks that pass through cell corners of the Monte Carlo grid: 40
    disks fix the bounding box, and 40 more sit at distance r, within
    rounding, from random inner corners, in random directions; at a shift
    of 1e6 the rounding is many times 2 ulps of r."""
    rng = SplitMix64(77)
    out = []
    for r, samples, shift in ((1.0, 100_000, 0.0), (0.37, 20_000, 0.0), (1.0, 1000, 0.0),
                              (1.0, 100_000, 1e6)):
        frame = DiskSet(r, gen_random(40, 9.0, 6).centers_array() * r + shift)
        xmin, ymin, xmax, ymax = frame.bbox()
        w, h = xmax - xmin, ymax - ymin
        placeholders = np.concatenate([frame.centers_array(), np.zeros((40, 2))])
        kx, ky, *_ = _mc_grid(placeholders[:, 0], placeholders[:, 1], r,
                              frame.bbox(), min(samples, 1 << 17))
        ncol, nrow = 1 << kx, 1 << ky
        probes = []
        while len(probes) < 40:
            x = xmin + w * (rng.randrange(ncol + 1) / ncol)
            y = ymin + h * (rng.randrange(nrow + 1) / nrow)
            t = 2.0 * math.pi * rng.next_double()
            cx, cy = x + r * math.cos(t), y + r * math.sin(t)
            if xmin + r <= cx <= xmax - r and ymin + r <= cy <= ymax - r:
                probes.append((cx, cy))
        ds = DiskSet(r, np.concatenate([frame.centers_array(), probes]))
        assert ds.bbox() == frame.bbox()
        out.append((ds, samples))
    return out


def _ulps(v, k):
    for _ in range(abs(k)):
        v = np.nextafter(v, np.inf if k > 0 else -np.inf)
    return v


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

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12, 1e300])
    @pytest.mark.parametrize("reach", [2.0, 0.5])
    @pytest.mark.parametrize("block", [union_area._BLOCK_PAIRS, 50])
    def test_blocks_equal_nine_lookups(self, monkeypatch, scale, reach, block):
        rng = SplitMix64(int(math.log10(scale)) + 11)
        pts = []
        for _ in range(3):
            cx, cy = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
            pts += [(cx + rng.uniform(0, 9), cy + rng.uniform(0, 9)) for _ in range(60)]
        pts += pts[::7] + pts[:3] * 4  # duplicates, some many times over
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        monkeypatch.setattr(union_area, "_BLOCK_PAIRS", block)
        got = list(_near_pairs(x, y, reach))
        want = list(reference_near_pairs(x, y, reach, block))
        assert len(got) == len(want)
        for g, e in zip(got, want):
            assert g[:2] == e[:2]
            assert np.array_equal(g[2], e[2]) and np.array_equal(g[3], e[3])

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

    @pytest.mark.xfail(strict=True, reason="at 3.3e12 the absolute-coordinate Green's-theorem "
                       "terms give 1.05e9 for a union of area 46.8; the cell-local "
                       "coordinates of ROADMAP item 1 would fix it")
    def test_shift_3_3e12_area_matches_translated(self):
        # translating by minus the first centre is exact (Sterbenz), so the
        # translated instance holds the same disks as the shifted one
        shifted = _shifted(gen_random(26, 8.0, 546), 3.3e12, -3.3e12)
        x0, y0 = shifted.centers[0]
        near = _shifted(shifted, -x0, -y0)
        assert exact_union_area(shifted) == pytest.approx(exact_union_area(near), rel=1e-9)

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
