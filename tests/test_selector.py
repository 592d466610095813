import itertools
import math

import pytest

from diskpack import (Assignment, Circle, DiskSet, InputError, OffsetSampling,
                      Point, RegularHexagon, SplitMix64, THREE_COLOUR_SIDE, TriLattice,
                      VerificationError, bound_table, disk_hexagon_area,
                      gen_chain, gen_clustered, gen_random, gen_spirograph,
                      kcolour_guarantee, min_overlap_closed_form,
                      solve_basic_3colour, solve_kcolour, solve_rado_1colour,
                      solve_square_2colour, solve_weighted_3colour, verify)

SQRT3 = math.sqrt(3.0)
DELTA = min_overlap_closed_form()


def assert_valid(disks, assignment, min_gap=None):
    gap = min_gap if min_gap is not None else 2.0 * disks.radius - 1e-8
    chosen = {}
    for i, c in enumerate(assignment.labels):
        if c is None:
            continue
        assert 0 <= c < assignment.k
        chosen.setdefault(c, []).append(disks.centers[i])
    for pts in chosen.values():
        for p, q in itertools.combinations(pts, 2):
            assert math.dist(p, q) >= gap


class TestBasic3Colour:
    def test_empty(self):
        assignment, report = solve_basic_3colour(DiskSet(1.0, ()))
        assert assignment.labels == ()
        assert report.ratio == 1.0

    def test_single_disk(self):
        assignment, report = solve_basic_3colour(DiskSet.from_pairs([(5.0, -3.0)]))
        assert assignment.selected_count == 1
        assert report.ratio == pytest.approx(1.0, abs=1e-9)

    def test_guarantees_on_corpus(self, small_corpus):
        bound = bound_table().c3_basic
        for ds in small_corpus:
            assignment, report = solve_basic_3colour(ds)
            assert_valid(ds, assignment)
            assert report.ratio >= bound - 1e-9
            need = math.ceil(report.union_area * SQRT3 / 8.0 - 1e-9)
            assert report.lattice_points_hit >= need
            assert report.positioning_depth >= need
            # per-cell accounting backs the guarantee
            assert report.cell_area_bound >= report.lattice_points_hit * DELTA - 1e-6
            assert report.selected_union_area >= report.cell_area_bound - 1e-6

    def test_spirograph_sandwich(self):
        ds = gen_spirograph(100, 0.01)
        _, report = solve_basic_3colour(ds)
        assert 0.3603 <= report.ratio <= 0.7125

    def test_deterministic(self):
        ds = gen_random(40, 10.0, 77)
        a1, r1 = solve_basic_3colour(ds)
        a2, r2 = solve_basic_3colour(ds)
        assert a1 == a2
        assert r1 == r2


class TestRado1Colour:
    def test_all_selected_disjoint(self, small_corpus):
        bound = bound_table().c1_lb
        for ds in small_corpus:
            assignment, report = solve_rado_1colour(ds)
            assert assignment.k == 1
            assert_valid(ds, assignment)
            assert report.ratio >= bound - 1e-9
            assert report.lattice_points_hit >= \
                math.ceil(report.union_area / (8.0 * SQRT3) - 1e-9)

    def test_spirograph_single_selection(self):
        ds = gen_spirograph(100, 0.01)
        assignment, report = solve_rado_1colour(ds)
        assert assignment.selected_count == 1
        assert 0.2267 <= report.ratio <= 0.26


class TestSquare2Colour:
    def test_guarantees_on_corpus(self, small_corpus):
        bound = bound_table().c2_basic
        for ds in small_corpus[::2]:
            assignment, report = solve_square_2colour(ds)
            assert assignment.k == 2
            assert_valid(ds, assignment)
            assert report.ratio >= bound - 1e-9
            assert report.lattice_points_hit >= \
                math.ceil(report.union_area / 8.0 - 1e-9)


class TestKColour:
    def test_rejects_non_loeschian(self):
        ds = gen_random(5, 6.0, 1)
        with pytest.raises(InputError, match="Loeschian"):
            solve_kcolour(ds, 5)

    @pytest.mark.parametrize("k", [3, 4, 7, 12])
    def test_guarantees(self, k, small_corpus):
        bound = kcolour_guarantee(k)
        for ds in small_corpus[::4]:
            assignment, report = solve_kcolour(ds, k)
            assert assignment.k == k
            assert_valid(ds, assignment)
            assert report.ratio >= bound - 1e-9

    def test_k1_falls_back_to_disjoint_selection(self):
        ds = gen_spirograph(40, 0.05)
        assignment, report = solve_kcolour(ds, 1)
        assert assignment.k == 1
        assert_valid(ds, assignment)
        assert report.ratio >= kcolour_guarantee(1) - 1e-9
        assert report.guarantee == kcolour_guarantee(1)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("k", [3, 4, 7, 12])
    def test_lattice_scales_with_radius(self, r, k):
        # the unscaled lattice gave two radius-2 disks 1 and 23 of
        # gen_random(60, 12.0, 3) one colour although they overlap
        for seed in range(3, 8):
            ds = DiskSet(r, gen_random(60, 12.0, seed).centers)
            assignment, report = solve_kcolour(ds, k)
            assert verify(ds, assignment).ratio == report.ratio
            assert report.ratio >= kcolour_guarantee(k) - 1e-9

    def test_single_disk(self):
        assignment, report = solve_kcolour(DiskSet.from_pairs([(0.0, 0.0)]), 7)
        assert assignment.selected_count == 1
        assert report.ratio == pytest.approx(1.0, abs=1e-9)


class TestTightConfiguration:
    def test_minimum_contribution_witness(self):
        # disks at distance 1 from their cell centers toward the shared
        # cell corner realize the minimum per-cell contribution
        lat = TriLattice(THREE_COLOUR_SIDE)
        pts = [lat.point(0, 0), lat.point(1, 0), lat.point(0, 1)]
        g = Point(sum(p[0] for p in pts) / 3.0, sum(p[1] for p in pts) / 3.0)
        for p in pts:
            d = math.dist(p, g)
            c = Point(p[0] + (g[0] - p[0]) / d, p[1] + (g[1] - p[1]) / d)
            overlap = disk_hexagon_area(Circle(c, 1.0), RegularHexagon(p, lat.side / SQRT3))
            assert overlap == pytest.approx(DELTA, abs=1e-6)


class TestWeighted3Colour:
    def test_single_disk_full_weight(self):
        ds = DiskSet.from_pairs([(2.3, -1.7)])
        assignment, report = solve_weighted_3colour(ds, OffsetSampling(grid_resolution=4))
        assert assignment.selected_count == 1
        assert report.cell_area_bound == pytest.approx(math.pi, abs=1e-9)

    def test_chain_tradeoff_instance(self):
        # three disks in a row, ends disjoint: picking both ends (weight 2*pi)
        # beats any two adjacent overlapping disks
        ds = gen_chain(3, 1.1)
        _, basic_report = solve_basic_3colour(ds)
        assert basic_report.selected_union_area >= 3.0 * DELTA - 1e-9
        assignment, report = solve_weighted_3colour(ds, OffsetSampling(grid_resolution=64))
        assert report.selected_union_area == pytest.approx(2.0 * math.pi, abs=1e-9)
        assert assignment.labels[1] is None
        assert report.cell_area_bound == pytest.approx(2.0 * math.pi, abs=1e-9)
        assert report.selected_union_area > 3.0 * DELTA

    def test_weight_dominates_basic(self):
        rng = SplitMix64(7)
        for trial in range(12):
            n = 2 + rng.randrange(10)
            ds = gen_random(n, 3.0 + 4.0 * rng.next_double(), trial + 300)
            _, basic = solve_basic_3colour(ds)
            a, weighted = solve_weighted_3colour(ds, OffsetSampling(grid_resolution=6))
            assert_valid(ds, a)
            assert weighted.cell_area_bound >= basic.cell_area_bound - 1e-9
            assert weighted.ratio >= bound_table().c3_basic - 1e-9

    def test_degenerate_sampling_rejected(self):
        with pytest.raises(InputError):
            OffsetSampling(grid_resolution=0)

    @pytest.mark.parametrize("grid", [2.5, 3.0, True, False, "3", None, -1])
    def test_non_integer_sampling_rejected(self, grid):
        with pytest.raises(InputError):
            OffsetSampling(grid_resolution=grid)

    def test_integer_sampling_accepted(self):
        assert OffsetSampling(grid_resolution=1).grid_resolution == 1
        assert OffsetSampling(grid_resolution=32).grid_resolution == 32
        assert OffsetSampling().grid_resolution == 256

    def test_threads_variable_is_ignored(self, monkeypatch):
        ds = gen_random(8, 5.0, 13)
        sampling = OffsetSampling(grid_resolution=6)
        monkeypatch.delenv("DISKPACK_THREADS", raising=False)
        base = solve_weighted_3colour(ds, sampling)
        for value in ("3", "zippy"):
            monkeypatch.setenv("DISKPACK_THREADS", value)
            assert solve_weighted_3colour(ds, sampling) == base


def radius_instances(r):
    """Five unit-radius instances with centres and radius scaled by r."""
    unit = [gen_random(12, 6.0, 1), gen_random(25, 9.0, 2), gen_spirograph(10, 0.2, 3),
            gen_clustered(20, 3, 8.0, 1.0, 4), gen_chain(6, 1.05)]
    return [(ds, DiskSet(r, tuple(Point(x * r, y * r) for x, y in ds.centers)))
            for ds in unit]


RADIUS_SOLVERS = {"basic3": solve_basic_3colour, "rado1": solve_rado_1colour,
                  "square2": solve_square_2colour,
                  "weighted3": lambda d: solve_weighted_3colour(d, OffsetSampling(16))}


class TestRadius:
    """The lattice solvers position disks of any radius on the unit-scaled
    instance and scale the lattice back."""

    @pytest.mark.parametrize("method", sorted(RADIUS_SOLVERS))
    @pytest.mark.parametrize("r", [0.5, 2.0, 10.0])
    def test_solves_and_verifies(self, method, r):
        for unit, ds in radius_instances(r):
            assignment, report = RADIUS_SOLVERS[method](ds)
            assert_valid(ds, assignment)
            checked = verify(ds, assignment)
            assert checked.union_area == report.union_area
            assert checked.selected_union_area == report.selected_union_area
            assert report.ratio >= report.guarantee
            base, base_report = RADIUS_SOLVERS[method](unit)
            assert assignment.lattice.side == pytest.approx(base.lattice.side * r, rel=1e-15)
            assert report.cell_area_bound == \
                pytest.approx(base_report.cell_area_bound * r * r, rel=1e-9)
            if r in (0.5, 2.0):  # centres scale exactly: the same solve
                assert assignment.labels == base.labels
                assert assignment.lattice.offset == Point(base.lattice.offset[0] * r,
                                                          base.lattice.offset[1] * r)

    @pytest.mark.parametrize("r", [1.0 - 1e-9, math.nextafter(1.0 + 1e-9, 0.0)])
    def test_radius_within_1e_9_is_solved_as_is(self, r):
        for _, ds in radius_instances(r):
            assignment, _ = solve_basic_3colour(ds)
            assert assignment.lattice.side == THREE_COLOUR_SIDE


class TestVerify:
    def test_accepts_solver_output(self):
        ds = gen_random(25, 8.0, 4)
        assignment, report = solve_basic_3colour(ds)
        fresh = verify(ds, assignment)
        assert fresh.ratio == pytest.approx(report.ratio, abs=1e-12)

    def test_rejects_same_colour_overlap(self):
        ds = DiskSet.from_pairs([(0.0, 0.0), (1.0, 0.0)])
        bad = Assignment((0, 0), 3, "basic3", None)
        with pytest.raises(VerificationError, match="disks 0 and 1"):
            verify(ds, bad)

    def test_rejects_wrong_length(self):
        ds = DiskSet.from_pairs([(0.0, 0.0), (4.0, 0.0)])
        with pytest.raises(InputError):
            verify(ds, Assignment((0,), 3, "basic3", None))

    def test_rejects_colour_out_of_range(self):
        ds = DiskSet.from_pairs([(0.0, 0.0)])
        with pytest.raises(VerificationError):
            verify(ds, Assignment((3,), 3, "basic3", None))

    def test_all_unselected(self):
        ds = DiskSet.from_pairs([(0.0, 0.0), (4.0, 0.0)])
        report = verify(ds, Assignment((None, None), 3, "basic3", None))
        assert report.selected_union_area == 0.0
        assert report.ratio == 0.0

    def test_touching_disks_are_disjoint(self):
        ds = DiskSet.from_pairs([(0.0, 0.0), (2.0, 0.0)])
        report = verify(ds, Assignment((0, 0), 1, "rado1", None))
        assert report.ratio == pytest.approx(1.0, abs=1e-9)
