import itertools
import math
import time

import numpy as np
import pytest

from diskpack import (EPS, CellCopies, Circle, DiskSet, InputError, ONE_COLOUR_SIDE, Point,
                      SplitMix64, SquareLattice, THREE_COLOUR_SIDE, TWO_COLOUR_SIDE,
                      TriLattice, exact_union_area, gen_chain, gen_clustered,
                      gen_random, gen_spirograph,
                      max_distinct_translate_depth, solve_basic_3colour, translate_to_cell)
from diskpack import arrangement
from diskpack.arrangement import _cell_sweep_candidates, _distinct_counts, _mod_two_pi
from conftest import (cell_copies, full_sweep_max_distinct_translate_depth, grid_depth_oracle,
                      grid_distinct_oracle, max_depth, quick_corpus,
                      reference_distinct_counts, reference_max_distinct_translate_depth,
                      reference_sweep_candidates, reference_sweep_inputs,
                      reference_translate_to_cell, reference_wrap_to_cell, same_copies)
from test_acceptance import build_corpus


LAT = TriLattice(THREE_COLOUR_SIDE)
ALL_LATTICES = [TriLattice(THREE_COLOUR_SIDE), TriLattice(ONE_COLOUR_SIDE),
                SquareLattice(TWO_COLOUR_SIDE)]
LATTICES = pytest.mark.parametrize("lattice", ALL_LATTICES, ids=["tri3", "tri1", "square2"])

# nested circles of different radii (a contained circle never crosses its
# container), a centre shared by two translates and an exact external
# tangency (1.5 + 0.75 == 2.25)
MIXED_RADII = [((1.0, 1.0), 1.5, (0, 0), 0),
               ((1.0, 1.0), 0.5, (1, 0), 1),
               ((1.25, 1.0), 0.25, (0, 1), 2),
               ((1.2, 1.1), 0.3, (2, 2), 3),
               ((3.25, 1.0), 0.75, (3, 0), 4),
               ((0.5, 0.25), 2.0, (0, 0), 5)]


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

    def test_witness_point_covered_by_counted_circles(self, small_corpus):
        # the near-tangent families put the witness on or next to circles
        instances = [gen_random(25, 8.0, 3)] + small_corpus + _hard_families()[len(_dense_family()):]
        for lattice, ds in itertools.product(ALL_LATTICES, instances):
            copies = translate_to_cell(ds, lattice)
            w = max_distinct_translate_depth(copies, lattice)
            qx, qy = w.point
            hits: dict[tuple[int, int], int] = {}
            for (cx, cy), r, tid in zip(copies.centers.tolist(), copies.radii.tolist(),
                                        map(tuple, copies.ids.tolist())):
                if (qx - cx) * (qx - cx) + (qy - cy) * (qy - cy) <= (r + EPS) * (r + EPS):
                    hits[tid] = hits.get(tid, 0) + 1
            assert w.per_translate_counts == hits
            assert w.distinct_translates == len(w.per_translate_counts)

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
        tcs = cell_copies(MIXED_RADII)
        w = max_distinct_translate_depth(tcs, LAT)
        assert w.distinct_translates == 4
        assert w.distinct_translates == grid_distinct_oracle(tcs, LAT, resolution=400)
        ref = reference_max_distinct_translate_depth(tcs, LAT)
        assert (w.point, w.distinct_translates) == (ref.point, ref.distinct_translates)


# Per lattice of ALL_LATTICES, centres in oblique directions about r - 1e-12
# from the corner at the origin, where translate_to_cell drops the copy that
# only touches translate (-1, -1), and about r + 1e-12 from the corner u + v,
# where it keeps the copy that touches translate (1, 1) at a point of it.
# Each decision turns on the last bit of the per-edge d2: squared with C pow
# instead of x * x, each of these centres gets another number of copies.
TANGENT_CENTRES = [
    [(0.9941037704013141, 0.10843289939815898), (0.8584117647041037, 0.5129612482591511)],
    [(2.510653229722525, 1.6984437426431147), (2.5778298130332895, 1.536834486607104)],
    [(0.9910268565699885, 0.13366289520658936), (0.7138794479937874, 0.7002686154113188)],
    [(5.128243053175937, 2.9741630213670778)],
    [(0.6053339322313996, 0.7959716266848156), (0.9536678533559868, 0.30086147223163023)],
    [(1.9956779617663754, 2.274776665016933), (1.9433710641014963, 2.362942678692301)],
]


def _ulps_around(x, y, steps=2):
    """(x, y) and the points 1 to ``steps`` ulps from it in both coordinates,
    either way."""
    out = [Point(x, y)]
    for toward in (-math.inf, math.inf):
        px, py = x, y
        for _ in range(steps):
            px, py = math.nextafter(px, toward), math.nextafter(py, toward)
            out.append(Point(px, py))
    return out


def _exactness_corpus():
    fold = DiskSet(1.0, (Point(-1e-300, 0.0), Point(-1e-17, 0.5), Point(0.0, -1e-300)))
    dup = gen_random(12, 5.0, 9)
    tangent = [DiskSet(1.0, tuple(p for c in centres for p in _ulps_around(*c)))
               for centres in TANGENT_CENTRES]
    return (quick_corpus(120, 60, 77)
            + [gen_spirograph(30, eps) for eps in (1e-9, 0.01, 0.3, 0.99)]
            + [DiskSet(1.0, dup.centers * 3), gen_chain(12, 2.0), gen_chain(9, 2.0, Point(0.1, 0.3)),
               DiskSet(1.0, (Point(3.0, 1.7),)), fold] + tangent)


@LATTICES
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


def _dense_family():
    return [gen_random(200, 1.4 * math.sqrt(200) + 2.0, seed) for seed in (1, 2, 3)]


def _hard_families():
    dup = gen_random(40, 7.0, 9)
    return (_dense_family()
            # every circle of a spirograph meets the common point
            + [gen_spirograph(n, eps) for n in (7, 30, 90) for eps in (1e-9, 0.01, 0.3, 0.99)]
            # tangent chains: consecutive disks touch at one point
            + [gen_chain(12, 2.0), gen_chain(9, 2.0, Point(0.1, 0.3)),
               gen_chain(30, 2.0, Point(-3.3, 7.1))]
            # duplicated centres
            + [DiskSet(1.0, dup.centers * 3), DiskSet(1.0, (Point(0.4, 0.4),) * 5),
               DiskSet(1.0, gen_spirograph(12, 0.2).centers * 2)]
            # clusters put several copies of one translate in one square's
            # list (148 to 222 copies)
            + [gen_clustered(60, 3, 10.0, 1.0, 5)])


def _duplicates_family():
    # 200 duplicates of one disk, 466 to 911 copies
    ds = gen_random(30, 1.4 * math.sqrt(30) + 2.0, 4)
    return [DiskSet(1.0, ds.centers + (ds.centers[0],) * 200)]


def _mixed_radii_copies():
    # 200 copies of radii 0.3 to 1.5 over 40 translates
    rng = SplitMix64(8)
    rows = []
    for t in range(200):
        a, b = rng.next_double(), rng.next_double()
        rows.append((LAT.point(a, b), 0.3 + 1.2 * rng.next_double(),
                     (rng.randrange(8), rng.randrange(5)), t))
    return cell_copies(rows)


@LATTICES
def test_witness_matches_full_sweep_on_corpus(lattice):
    for ds in build_corpus():
        copies = translate_to_cell(ds, lattice)
        assert max_distinct_translate_depth(copies, lattice) == \
            full_sweep_max_distinct_translate_depth(copies, lattice)


@LATTICES
def test_witness_matches_full_sweep_on_hard_families(lattice):
    for ds in _hard_families():
        copies = translate_to_cell(ds, lattice)
        assert max_distinct_translate_depth(copies, lattice) == \
            full_sweep_max_distinct_translate_depth(copies, lattice)


@LATTICES
def test_witness_matches_full_sweep_on_mixed_radii(lattice, monkeypatch):
    for rows in (MIXED_RADII, MIXED_RADII[::-1], MIXED_RADII[:3],
                 [((0.0, 0.0), 1.0, (0, 0), 0), ((1.0, 0.0), 1.0, (1, 0), 1),
                  ((0.5, 0.8), 1.0, (0, 1), 2)]):
        copies = cell_copies(rows)
        assert max_distinct_translate_depth(copies, lattice) == \
            full_sweep_max_distinct_translate_depth(copies, lattice)
    # per-copy radii through the branch and bound too
    copies = _mixed_radii_copies()
    assert len(copies) >= arrangement._BRANCH_MIN_COPIES
    assert max_distinct_translate_depth(copies, lattice) == \
        full_sweep_max_distinct_translate_depth(copies, lattice)
    monkeypatch.setattr(arrangement, "_BRANCH_MIN_COPIES", 0)
    for rows in (MIXED_RADII, MIXED_RADII[::-1]):
        copies = cell_copies(rows)
        assert max_distinct_translate_depth(copies, lattice) == \
            full_sweep_max_distinct_translate_depth(copies, lattice)


def _bound_cases(lattice):
    """(copies, sorted sweep inputs) of the families the bound tests use."""
    instances = quick_corpus() + _hard_families() + _duplicates_family()
    for copies in [translate_to_cell(ds, lattice) for ds in instances] + [_mixed_radii_copies()]:
        yield copies, reference_sweep_inputs(copies)


@LATTICES
def test_swept_rows_hold_every_circle_that_reaches_the_best_count(lattice):
    # the quadtree runs at any size here; every circle it leaves unswept
    # has a sweep maximum below the best count, and so has every wrapped
    # centre it leaves unscored
    for copies, (centers, radii, _, group_starts, groups) in _bound_cases(lattice):
        best = full_sweep_max_distinct_translate_depth(copies, lattice).distinct_translates
        leaves = arrangement._surviving_squares(centers, radii, groups, lattice)
        assert leaves.floor <= best
        unswept = np.setdiff1d(np.arange(len(centers)), leaves.rows)
        pts = _cell_sweep_candidates(centers, radii, groups, len(group_starts), lattice, unswept)
        counts = _distinct_counts(np.array(pts).reshape(-1, 2), centers, radii, group_starts)
        assert (counts < best).all()
        wx, wy, _, _ = lattice.wrap_to_cell(centers[:, 0], centers[:, 1])
        wrapped = np.stack([wx, wy], axis=1)
        far = np.setdiff1d(np.arange(len(wrapped)), arrangement._near_leaves(wrapped, leaves))
        assert (_distinct_counts(wrapped[far], centers, radii, group_starts) < best).all()


@LATTICES
@pytest.mark.parametrize("max_level", [None, 2, 4, 7])
def test_leaf_bounds_hold_at_every_point_of_the_leaf(lattice, max_level, monkeypatch):
    # leaves at the natural stop, or every survivor of one level: each lower
    # bound is the recount at the leaf's centre, and no recount at a point
    # of the leaf (corners included) exceeds its upper bound
    if max_level is not None:
        monkeypatch.setattr(arrangement, "_ROW_SQUARES", 10 ** 9)
        monkeypatch.setattr(arrangement, "_MAX_LEVEL", max_level)
    (ux, uy), (vx, vy) = lattice.u, lattice.v
    unit_half_diag = 0.5 * max(math.hypot(ux + vx, uy + vy), math.hypot(ux - vx, uy - vy))
    rng = np.random.default_rng(17)
    corners = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)]
    for _, (centers, radii, _, group_starts, groups) in _bound_cases(lattice):
        leaves = arrangement._surviving_squares(centers, radii, groups, lattice)
        assert np.array_equal(leaves.lower,
                              _distinct_counts(leaves.centres, centers, radii, group_starts))
        assert leaves.lower.max() <= leaves.floor <= leaves.upper.min()
        size = 2.0 ** -np.round(np.log2(unit_half_diag / leaves.reach))
        a, b = lattice.affine(leaves.centres[:, 0], leaves.centres[:, 1])
        for da, db in corners + [tuple(rng.uniform(-0.5, 0.5, 2)) for _ in range(4)]:
            px, py = lattice.point(a + da * size, b + db * size)
            counts = _distinct_counts(np.stack([px, py], axis=1), centers, radii, group_starts)
            assert (counts <= leaves.upper).all()


def test_floor_above_every_candidate_scores_all(monkeypatch):
    # two circles 2 + 5e-10 apart do not cross, so no sweep candidate lies in
    # both, but their EPS-closed disks share the cell's centre, which is the
    # first square's centre: the floor (2) exceeds every candidate (1); the
    # quadtree runs however few the copies
    monkeypatch.setattr(arrangement, "_BRANCH_MIN_COPIES", 0)
    cx, cy = LAT.point(0.5, 0.5)
    gap = 2.5e-10
    copies = cell_copies([((cx - 1.0 - gap, cy), 1.0, (0, 0), 0),
                          ((cx + 1.0 + gap, cy), 1.0, (1, 0), 1)])
    w = max_distinct_translate_depth(copies, LAT)
    assert w == full_sweep_max_distinct_translate_depth(copies, LAT)
    assert w.distinct_translates == 1

    # the same rule on a dense instance: a floor no kept candidate reaches
    # makes every circle and centre count, whatever was kept
    surviving_squares = arrangement._surviving_squares

    def unreachable_floor(*args):
        leaves = surviving_squares(*args)
        return leaves._replace(rows=leaves.rows[:1], floor=leaves.floor + 1)

    monkeypatch.setattr(arrangement, "_surviving_squares", unreachable_floor)
    copies = translate_to_cell(_dense_family()[0], LAT)
    assert max_distinct_translate_depth(copies, LAT) == \
        full_sweep_max_distinct_translate_depth(copies, LAT)


@LATTICES
def test_small_instances_skip_the_quadtree(lattice, monkeypatch):
    def no_quadtree(*args):
        raise AssertionError("branch and bound on a small instance")

    monkeypatch.setattr(arrangement, "_surviving_squares", no_quadtree)
    for ds in ([gen_random(12, 1.4 * math.sqrt(12) + 2.0, seed) for seed in range(4)]
               + [gen_spirograph(7, 0.01), gen_chain(9, 2.0)]):
        copies = translate_to_cell(ds, lattice)
        assert len(copies) < arrangement._BRANCH_MIN_COPIES
        assert max_distinct_translate_depth(copies, lattice) == \
            full_sweep_max_distinct_translate_depth(copies, lattice)


@LATTICES
def test_quadtree_matches_full_sweep_on_small_instances(lattice, monkeypatch):
    # the branch and bound stays exact below _BRANCH_MIN_COPIES, where it no
    # longer runs by default
    monkeypatch.setattr(arrangement, "_BRANCH_MIN_COPIES", 0)
    for ds in _hard_families()[len(_dense_family()):] + quick_corpus(40, 30, 5):
        copies = translate_to_cell(ds, lattice)
        assert max_distinct_translate_depth(copies, lattice) == \
            full_sweep_max_distinct_translate_depth(copies, lattice)


def test_distinct_counts_matches_cumulative_sum_count_in_any_chunk():
    rng = np.random.default_rng(3)
    for ds in _dense_family()[:1] + [gen_spirograph(40, 0.01), gen_chain(9, 2.0)]:
        centers, radii, _, group_starts, _ = reference_sweep_inputs(translate_to_cell(ds, LAT))
        a, b = rng.random((2, 301))
        cands = np.concatenate([np.stack(LAT.point(a, b), axis=1), centers[:50]])
        whole = _distinct_counts(cands, centers, radii, group_starts)
        for lo, hi in ((0, len(cands)), (0, 1), (7, 9), (300, 351), (350, 351)):
            q = cands[lo:hi]
            assert np.array_equal(_distinct_counts(q, centers, radii, group_starts), whole[lo:hi])
            assert np.array_equal(reference_distinct_counts(q, centers, radii, group_starts),
                                  whole[lo:hi])


@pytest.mark.parametrize("grow", [0.0, 0.1], ids=["plain", "grown"])
def test_distinct_counts_match_scalar_formula_at_the_boundary(grow):
    # candidates 0 to 4 ulps either side of r + EPS from random copy centres,
    # at the recount's radii and at the quadtree's grown ones: each count is
    # the scalar dx*dx + dy*dy <= (r + EPS) * (r + EPS), groups reduced by hand
    copies = translate_to_cell(gen_random(80, 1.4 * math.sqrt(80) + 2.0, 5), LAT)
    centers, radii, ids, group_starts, _ = reference_sweep_inputs(copies)
    radii = radii + grow
    rng = SplitMix64(31)
    cands = []
    for _ in range(3000):
        t = rng.randrange(len(centers))
        cx, cy = centers[t].tolist()
        rho = float(radii[t]) + EPS
        steps = rng.randrange(9) - 4
        for _ in range(abs(steps)):
            rho = math.nextafter(rho, math.copysign(math.inf, steps))
        theta = 2.0 * math.pi * rng.next_double()
        cands.append((cx + rho * math.cos(theta), cy + rho * math.sin(theta)))
    expected = []
    for qx, qy in cands:
        hit = set()
        for (cx, cy), r, tid in zip(centers.tolist(), radii.tolist(), ids):
            dx = qx - cx
            dy = qy - cy
            if dx * dx + dy * dy <= (r + EPS) * (r + EPS):
                hit.add(tid)
        expected.append(len(hit))
    got = _distinct_counts(np.array(cands), centers, radii, group_starts)
    assert got.tolist() == expected


@LATTICES
def test_pruning_sweeps_under_half_the_circles(lattice, monkeypatch):
    # deterministic guard against falling back to the full sweep
    swept = []
    sweep_rows = arrangement._sweep_rows

    def counting(*args):
        swept.append(len(args[-1]))
        return sweep_rows(*args)

    monkeypatch.setattr(arrangement, "_sweep_rows", counting)
    for ds in _dense_family():
        copies = translate_to_cell(ds, lattice)
        swept.clear()
        max_distinct_translate_depth(copies, lattice)
        assert 0 < sum(swept) < len(copies) / 2


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
