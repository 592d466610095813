import math
import time

import numpy as np
import pytest

from diskpack import (CellCopies, Circle, DiskSet, InputError, ONE_COLOUR_SIDE, Point,
                      SplitMix64, SquareLattice, THREE_COLOUR_SIDE, TWO_COLOUR_SIDE,
                      TriLattice, exact_union_area, gen_chain,
                      gen_random, gen_spirograph,
                      max_distinct_translate_depth, solve_basic_3colour, translate_to_cell)
from diskpack.arrangement import _cell_sweep_candidates, _mod_two_pi
from conftest import (cell_copies, grid_depth_oracle, grid_distinct_oracle, max_depth,
                      quick_corpus, reference_max_distinct_translate_depth,
                      reference_sweep_candidates, reference_sweep_inputs,
                      reference_translate_to_cell, reference_wrap_to_cell, same_copies)


LAT = TriLattice(THREE_COLOUR_SIDE)


class TestTranslateToCell:
    def test_centroid_disk(self):
        centroid = Point((LAT.u[0] + LAT.v[0]) / 2.0, (LAT.u[1] + LAT.v[1]) / 2.0)
        copies = translate_to_cell(DiskSet(1.0, (centroid,)), LAT)
        assert 1 <= len(copies) <= 4
        assert (0, 0) in [tuple(t) for t in copies.ids.tolist()]

    def test_corner_disk_four_copies(self):
        copies = translate_to_cell(DiskSet(1.0, (Point(0.0, 0.0),)), LAT)
        assert len(copies) == 4
        assert sorted(tuple(t) for t in copies.ids.tolist()) == \
            [(-1, -1), (-1, 0), (0, -1), (0, 0)]

    def test_at_most_four_copies_each(self):
        for seed in range(6):
            ds = gen_random(60, 12.0, seed)
            copies = translate_to_cell(ds, LAT)
            assert len(copies) <= 4 * len(ds)
            per_disk = {}
            for source, tid in zip(copies.source.tolist(), copies.ids.tolist()):
                per_disk.setdefault(source, []).append(tuple(tid))
            for disk, ids in per_disk.items():
                assert 1 <= len(ids) <= 4
                assert len(set(ids)) == len(ids)

    def test_nonunit_rejected(self):
        with pytest.raises(InputError):
            translate_to_cell(DiskSet(0.5, (Point(0, 0),)), LAT)

    def test_translate_id_beyond_64_bits_rejected(self):
        # at x = 1e20 the cell index along u exceeds 2**63; at 1e19 it fits
        far = DiskSet(1.0, (Point(1e20, 0.0), Point(1e20, 1.5)))
        with pytest.raises(InputError, match="translate id does not fit in 64 bits"):
            solve_basic_3colour(far)
        assignment, _ = solve_basic_3colour(DiskSet(1.0, (Point(1e19, 0.0), Point(1e19, 1.5))))
        assert len(assignment.labels) == 2


class TestMaxDistinctTranslateDepth:
    def test_empty_rejected(self):
        with pytest.raises(InputError):
            max_distinct_translate_depth([], LAT)

    def test_single_circle(self):
        w = max_distinct_translate_depth(cell_copies([((1.0, 1.0), 1.0, (0, 0), 0)]), LAT)
        assert w.distinct_translates == 1
        assert math.dist(w.point, Point(1.0, 1.0)) <= 1.0 + 1e-9

    def test_same_circle_two_translates(self):
        w = max_distinct_translate_depth(
            cell_copies([((1.0, 1.0), 1.0, (0, 0), 0), ((1.0, 1.0), 1.0, (2, 5), 1)]), LAT)
        assert w.distinct_translates == 2
        assert set(w.per_translate_counts) == {(0, 0), (2, 5)}

    def test_three_circles_against_grid_oracle(self):
        tcs = cell_copies([((0.0, 0.0), 1.0, (0, 0), 0),
                           ((1.0, 0.0), 1.0, (1, 0), 1),
                           ((0.5, 0.8), 1.0, (0, 1), 2)])
        w = max_distinct_translate_depth(tcs, LAT)
        assert w.distinct_translates == 3
        assert grid_distinct_oracle(tcs, LAT, resolution=400) == 3
        assert w.distinct_translates == len(
            [c for c in w.per_translate_counts.values() if c > 0])

    def test_witness_point_covered_by_counted_circles(self):
        ds = gen_random(25, 8.0, 3)
        copies = translate_to_cell(ds, LAT)
        w = max_distinct_translate_depth(copies, LAT)
        for tid in w.per_translate_counts:
            hits = [c for c, t in zip(copies.centers.tolist(), copies.ids.tolist())
                    if tuple(t) == tid and math.dist(c, w.point) <= 1.0 + 1e-9]
            assert hits

    def test_matches_grid_oracle_small_instances(self):
        for seed in range(12):
            rng = SplitMix64(seed)
            n = 2 + rng.randrange(8)
            ds = gen_random(n, 5.0, seed + 500)
            copies = translate_to_cell(ds, LAT)
            w = max_distinct_translate_depth(copies, LAT)
            assert w.distinct_translates == grid_distinct_oracle(copies, LAT,
                                                                 resolution=420)

    def test_positioning_lower_bound(self, small_corpus):
        for ds in small_corpus:
            a = exact_union_area(ds)
            copies = translate_to_cell(ds, LAT)
            w = max_distinct_translate_depth(copies, LAT)
            assert w.distinct_translates >= math.ceil(a / LAT.cell_area - 1e-9)

    def test_order_independent(self):
        ds = gen_random(18, 7.0, 11)
        copies = translate_to_cell(ds, LAT)
        w1 = max_distinct_translate_depth(copies, LAT)
        w2 = max_distinct_translate_depth(
            CellCopies(copies.centers[::-1], copies.radii[::-1], copies.ids[::-1],
                       copies.source[::-1]), LAT)
        assert w1.point == w2.point
        assert w1.distinct_translates == w2.distinct_translates


    def test_mixed_radii_against_grid_oracle(self):
        # nested circles of different radii (a contained circle never crosses
        # its container), a centre shared by two translates and an exact
        # external tangency (1.5 + 0.75 == 2.25)
        tcs = cell_copies([((1.0, 1.0), 1.5, (0, 0), 0),
                           ((1.0, 1.0), 0.5, (1, 0), 1),
                           ((1.25, 1.0), 0.25, (0, 1), 2),
                           ((1.2, 1.1), 0.3, (2, 2), 3),
                           ((3.25, 1.0), 0.75, (3, 0), 4),
                           ((0.5, 0.25), 2.0, (0, 0), 5)])
        w = max_distinct_translate_depth(tcs, LAT)
        assert w.distinct_translates == 4
        assert w.distinct_translates == grid_distinct_oracle(tcs, LAT, resolution=400)
        ref = reference_max_distinct_translate_depth(tcs, LAT)
        assert (w.point, w.distinct_translates) == (ref.point, ref.distinct_translates)


def _exactness_corpus():
    fold = DiskSet(1.0, (Point(-1e-300, 0.0), Point(-1e-17, 0.5), Point(0.0, -1e-300)))
    dup = gen_random(12, 5.0, 9)
    return (quick_corpus(120, 60, 77)
            + [gen_spirograph(30, eps) for eps in (1e-9, 0.01, 0.3, 0.99)]
            + [DiskSet(1.0, dup.centers * 3), gen_chain(12, 2.0), gen_chain(9, 2.0, Point(0.1, 0.3)),
               DiskSet(1.0, (Point(3.0, 1.7),)), fold])


@pytest.mark.parametrize("lattice", [TriLattice(THREE_COLOUR_SIDE), TriLattice(ONE_COLOUR_SIDE),
                                     SquareLattice(TWO_COLOUR_SIDE)],
                         ids=["tri3", "tri1", "square2"])
def test_array_code_matches_scalar_reference(lattice):
    for ds in _exactness_corpus():
        copies = translate_to_cell(ds, lattice)
        assert len(copies) == len(copies.centers) == len(copies.ids) == len(copies.source)
        assert same_copies(copies, reference_translate_to_cell(ds, lattice))
        centers, radii, _, group_starts, groups = reference_sweep_inputs(copies)
        args = (centers, radii, groups, len(group_starts), lattice)
        assert _cell_sweep_candidates(*args) == reference_sweep_candidates(*args)
        w = max_distinct_translate_depth(copies, lattice)
        ref = reference_max_distinct_translate_depth(copies, lattice)
        assert w.point == ref.point
        assert w.distinct_translates == ref.distinct_translates
        assert w.per_translate_counts == ref.per_translate_counts


def test_wrap_to_cell_array_matches_scalar():
    pts = [(-1e-300, 0.0), (0.0, -1e-300), (-1e-17, 0.5), (1e12, -3e11), (4.0, 2.0 * math.sqrt(3.0)),
           (2.8284271247461903, 5.656854249492381), (-0.0, -0.0), (7.3, -2.1)]
    for lattice in (TriLattice(THREE_COLOUR_SIDE), TriLattice(ONE_COLOUR_SIDE, Point(0.3, -0.2)),
                    SquareLattice(TWO_COLOUR_SIDE)):
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        want = [reference_wrap_to_cell(lattice, Point(*p)) for p in pts]
        wx, wy, i, j = lattice.wrap_to_cell(xs, ys)
        got = [((x, y), (int(a), int(b)))
               for x, y, a, b in zip(wx.tolist(), wy.tolist(), i.tolist(), j.tolist())]
        assert got == want
        for p, w in zip(pts, want):
            x, y, a, b = lattice.wrap_to_cell(*p)
            assert ((x, y), (int(a), int(b))) == w


def test_mod_two_pi_matches_np_mod():
    two_pi = 2.0 * math.pi
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-two_pi, two_pi, 100_000),
                        [-two_pi, -math.pi, -1e-300, -0.0, 0.0, 1e-300, math.pi, two_pi,
                         np.nextafter(-math.pi, 0.0), np.nextafter(two_pi, 0.0)]])
    got = _mod_two_pi(x)
    want = np.mod(x, two_pi)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestMaxDepth:
    def test_empty_rejected(self):
        with pytest.raises(InputError):
            max_depth([])

    def test_disjoint_circles(self):
        circles = [Circle(Point(4.0 * k, 0.0), 1.0) for k in range(6)]
        _, depth = max_depth(circles)
        assert depth == 1

    def test_spirograph_common_point(self):
        ds = gen_spirograph(50, 0.01)
        circles = [Circle(c, 1.0) for c in ds.centers]
        pt, depth = max_depth(circles)
        assert depth == 50
        assert math.hypot(pt[0], pt[1]) < 0.05

    def test_matches_grid_oracle(self):
        for seed in range(10):
            rng = SplitMix64(seed + 40)
            n = 2 + rng.randrange(9)
            ds = gen_random(n, 4.5, seed + 40)
            circles = [Circle(c, 1.0) for c in ds.centers]
            _, depth = max_depth(circles)
            assert depth == grid_depth_oracle(circles, resolution=700)

    def test_nested_circles(self):
        circles = [Circle(Point(0.0, 0.0), 3.0), Circle(Point(0.1, 0.0), 1.0)]
        _, depth = max_depth(circles)
        assert depth == 2


def test_runtime_scales_subquadratically_smoke():
    # loose smoke check, not a strict assertion of the exponent
    ds250 = gen_random(250, 24.0, 1)
    ds500 = gen_random(500, 34.0, 2)
    t0 = time.perf_counter()
    max_distinct_translate_depth(translate_to_cell(ds250, LAT), LAT)
    t250 = time.perf_counter() - t0
    t0 = time.perf_counter()
    max_distinct_translate_depth(translate_to_cell(ds500, LAT), LAT)
    t500 = time.perf_counter() - t0
    assert t500 < 16.0 * max(t250, 0.01)
