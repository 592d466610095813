"""The array selection routine against the scalar per-point scan it replaced.

Every solver result must equal the reference-built one under ``==``: same
labels, offsets, hit counts and cell sums, bit for bit.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from diskpack import (EPS, Assignment, DiskSet, OffsetSampling, ONE_COLOUR_SIDE, Point,
                      SplitMix64, THREE_COLOUR_SIDE, TWO_COLOUR_SIDE, TriLattice,
                      VerificationError, alpha_k, gen_chain, gen_clustered, gen_random,
                      gen_spirograph, max_distinct_translate_depth, solve_basic_3colour,
                      solve_kcolour, solve_rado_1colour, solve_square_2colour,
                      solve_weighted_3colour, translate_to_cell, verify)
from diskpack import selector
from diskpack.geometry import _edge_disk_area, _edge_disk_area_array
from diskpack.selector import _candidate_offsets, _select_at, _select_cells, _weight_bounds
from conftest import (REFERENCE_POSITIONED, full_search_solve_weighted, nearest, quick_corpus,
                      reference_kcolour_labels, reference_same_colour_check,
                      reference_select_at, reference_solve_positioned,
                      reference_solve_weighted, squared_distance)
from test_acceptance import build_corpus

SOLVERS = {"basic3": solve_basic_3colour, "rado1": solve_rado_1colour,
           "square2": solve_square_2colour}

# (dx, dy) at distance 1 + EPS where ``dx * dx + dy * dy <= (1 + EPS) * (1 + EPS)``
# and the same test squared with C ``pow`` disagree
POW_DISAGREES = [(0.9690906679913914, -0.24670484229540174),
                 (0.4230564293148208, 0.9061033382652303),
                 (0.9879738361154418, 0.15462115363474208),
                 (0.7313087544664841, 0.6820465582646685)]


def _positioned_corpus():
    corpus = list(quick_corpus(120, 60, 77))
    corpus += [gen_clustered(60, 20, 270.0, 2.0, s) for s in (1, 2, 42)]
    corpus.append(DiskSet.from_pairs([(0.0, 0.0), (0.0, 0.0), (1.5, 0.2), (1.5, 0.2),
                                      (1.5, 0.2), (-0.7, 1.1)]))
    corpus.append(gen_spirograph(40, 0.01))
    return corpus


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_positioned_solvers_match_scalar_reference(method):
    for ds in _positioned_corpus():
        assert SOLVERS[method](ds) == reference_solve_positioned(ds, method)


def _boundary_disks():
    """Disk centres at distance exactly 1 and 1 + EPS from lattice point (0, 0)."""
    pts = []
    for rho in (1.0, 1.0 + EPS, math.nextafter(1.0 + EPS, 2.0)):
        for k in range(12):
            t = k * math.pi / 6.0
            pts.append((rho * math.cos(t), rho * math.sin(t)))
        pts += [(rho, 0.0), (-rho, 0.0), (0.0, rho), (0.0, -rho)]
    return pts + POW_DISAGREES


@pytest.mark.parametrize("method", sorted(REFERENCE_POSITIONED))
def test_boundary_distances_match_scalar_reference(method):
    lattice, _, colour_fn = REFERENCE_POSITIONED[method]
    origin = (0.0, 0.0)
    pts = _boundary_disks()
    # one disk at a time, so the hit count shows each covering decision
    instances = [DiskSet.from_pairs([p]) for p in pts]
    instances.append(DiskSet.from_pairs(pts))
    for ds in instances:
        for offset in (origin, (0.25, -0.5)):
            lat = lattice.at(*offset)
            assert _select_at(ds, lat) == reference_select_at(ds, lat, colour_fn)
    hits = [_select_at(DiskSet.from_pairs([p]), lattice.at(*origin))[1]
            for p in POW_DISAGREES]
    assert hits == [1, 0, 1, 0]


@pytest.mark.parametrize("grid", [4, 6, 16])
def test_weighted_solver_matches_scalar_reference(grid):
    corpus = quick_corpus(8, 10, 5)
    corpus.append(DiskSet.from_pairs([(0.0, 0.0), (0.0, 0.0), (1.2, 0.4)]))
    for ds in corpus:
        sampling = OffsetSampling(grid_resolution=grid)
        assert solve_weighted_3colour(ds, sampling) == reference_solve_weighted(ds, sampling)


def _weighted_cases():
    """quick_corpus, sparse-select-like instances and the hard families."""
    largest = math.nextafter(1.0 + 1e-9, 0.0)   # the largest radius admitted
    spread = gen_random(10, 5.0, 21).centers
    return (quick_corpus()
            + [gen_random(12, 1.4 * math.sqrt(12) + 2.0, seed) for seed in range(6)]
            + [gen_spirograph(n, eps) for n, eps in ((7, 0.01), (12, 1e-9), (20, 0.3))]
            # duplicated centres and tangent chains
            + [DiskSet(1.0, gen_random(8, 4.0, 9).centers * 2),
               DiskSet.from_pairs([(0.4, 0.4)] * 5),
               gen_chain(6, 2.0), gen_chain(5, 2.0, Point(0.1, 0.3))]
            + [DiskSet(largest, spread), DiskSet(1.0 - 1e-9, spread)]
            + [DiskSet.from_pairs([(0.0, 0.0), (d, d)]) for d in (1e6, 1e12)])


@pytest.mark.parametrize("grid", [4, 6, 16, 32])
def test_weighted_solver_matches_full_search(grid):
    sampling = OffsetSampling(grid_resolution=grid)
    for ds in _weighted_cases():
        assert solve_weighted_3colour(ds, sampling) == full_search_solve_weighted(ds, sampling)


def _candidates(ds, grid):
    base = TriLattice(THREE_COLOUR_SIDE)
    copies = translate_to_cell(ds, base)
    witness = max_distinct_translate_depth(copies, base)
    return base, _candidate_offsets(base, copies, witness.point, grid)


def test_screen_bounds_every_candidate_offset():
    for ds in _weighted_cases():
        base, (ox, oy) = _candidates(ds, 6)
        bounds = _weight_bounds(ds, base, ox, oy)
        weights = np.concatenate([_select_cells(ds, base, ox[s:s + 64], oy[s:s + 64]).weights
                                  for s in range(0, len(ox), 64)])
        assert (bounds >= weights).all()


def test_screen_prunes_sparse_select_instances(monkeypatch):
    # deterministic guard against evaluating every offset exactly again
    evaluated = []

    def counting(disks, lattice, ox, oy):
        evaluated.append(len(ox))
        return select_cells(disks, lattice, ox, oy)

    select_cells = selector._select_cells
    monkeypatch.setattr(selector, "_select_cells", counting)
    for seed in range(8):
        ds = gen_random(12, 1.4 * math.sqrt(12) + 2.0, 900 + seed)
        m = len(_candidates(ds, 32)[1][0])
        evaluated.clear()
        solve_weighted_3colour(ds, OffsetSampling(grid_resolution=32))
        assert 0 < sum(evaluated) < m / 10


@pytest.mark.parametrize("d", [100.0, 3000.0, 1e6])
def test_cost_bounded_by_n_not_extent(d):
    ds = DiskSet.from_pairs([(0.0, 0.0), (d, d)])
    for solve in (solve_basic_3colour, solve_square_2colour,
                  lambda s: solve_weighted_3colour(s, OffsetSampling(grid_resolution=4))):
        start = time.perf_counter()
        assignment, _ = solve(ds)
        elapsed = time.perf_counter() - start
        assert assignment.selected_count == 2
        assert elapsed < 1.0


def test_lattice_sides_hold_at_most_one_point_per_disk():
    # the invariant selector._select_cells relies on: a disk of radius
    # r + EPS, r <= 1 + 1e-9 as translate_to_cell admits, holds at most one
    # lattice point
    for side in (THREE_COLOUR_SIDE, ONE_COLOUR_SIDE, TWO_COLOUR_SIDE):
        assert side > 2.0 * (1.0 + 1e-9 + EPS)


def test_edge_area_array_matches_scalar():
    rng = np.random.default_rng(11)
    ax, ay, bx, by = rng.uniform(-2.0, 2.0, (4, 20_000))
    ax[:200] = bx[:200]              # zero-length edges
    ay[:200] = by[:200]
    ay[200:400] = by[200:400] = 1.0  # tangent lines
    ay[400:600] = by[400:600] = math.nextafter(1.0, 2.0)
    for r in (1.0, 1.0 + 1e-9):
        got = _edge_disk_area_array(ax, ay, bx, by, r).tolist()
        want = [_edge_disk_area(*e, r)
                for e in zip(ax.tolist(), ay.tolist(), bx.tolist(), by.tolist())]
        assert got == want


def test_extreme_translation_solves_and_verifies():
    # the scalar scan validated each cell polygon in absolute coordinates,
    # which raised "degenerate polygon" once the shoelace sum cancelled
    base = gen_random(30, 9.0, 5)
    for shift in (1e9, 1e12):
        ds = DiskSet.from_pairs([(x + shift, y + shift) for x, y in base.centers])
        for solve in SOLVERS.values():
            assignment, report = solve(ds)
            assert verify(ds, assignment).ratio == report.ratio
            assert report.ratio >= report.guarantee - 1e-9


@pytest.mark.xfail(strict=True, reason="the union area at 3.3e12 is 1.05e9 instead of "
                   "46.8, so both ratios read about 3e-8; the cell-local coordinates "
                   "of ROADMAP item 1 would fix it")
def test_shift_3_3e12_meets_guarantee():
    base = gen_random(26, 8.0, 546)
    ds = DiskSet.from_pairs([(x + 3.3e12, y - 3.3e12) for x, y in base.centers])
    for solve in (solve_basic_3colour, solve_square_2colour):
        _, report = solve(ds)
        assert report.ratio >= report.guarantee


# disk pairs in the cell of lattice point (3, 2) of the k = 7 lattice whose
# d_new < d_cur - 1e-15 decision differs between x * x and C ``pow``
POW_SCAN_DISAGREES = [
    ((5.360751057693287, 1.8980007592405825), (5.684012374033767, 2.0416265071165873)),
    ((4.965659576797259, 2.5297565415907584), (5.768332624671367, 2.5232306497847747)),
    ((5.154719746422538, 2.4041861641587907), (5.1621620401304344, 2.421386333899259)),
    ((5.610291025235998, 2.759175308146296), (5.141874092926485, 2.7705659876582147))]


def _exact_ties(lat):
    """Points on the bisector of lattice points (1, 0) and (0, 1) whose
    squared distances to both are equal, nearer to them than to any other;
    the (d, i, j) key gives them to (0, 1), a j-major window to (1, 0)."""
    (x1, y1), (x2, y2) = lat.point(1, 0), lat.point(0, 1)
    mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
    ties = []
    for t in np.linspace(-0.2, 0.2, 401).tolist():
        x, y = mx + t * (y2 - y1), my - t * (x2 - x1)
        for x in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            if squared_distance((x, y), (x1, y1)) == squared_distance((x, y), (x2, y2)) \
                    and nearest(lat, (x, y)) == (0, 1):
                ties.append((x, y))
    assert len(ties) > 20
    return ties


def _floor_edges(lat, i, j):
    """Centres within 2 ulps, either side, of the edges and the short
    diagonal of the fundamental parallelogram at lattice point (i, j), where
    the affine floor can round across an edge, and the circumcentres of the
    parallelogram's two triangles."""
    o, u, v, w = (lat.point(i + a, j + b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)))
    on = [(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
          for a, b in ((o, u), (u, w), (w, v), (v, o), (u, v)) for t in (0.0, 0.3, 0.5, 0.9)]
    step = [-2, -1, 0, 1, 2]
    pts = [(x + sx * math.ulp(x), y + sy * math.ulp(y))
           for x, y in on for sx in step for sy in step]
    return pts + [((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)
                  for a, b, c in ((o, u, v), (u, w, v))]


def _kcolour_ties(k):
    """Centres on Voronoi edges and vertices of the k-colour lattice, exact
    ties between two lattice points, and disks equally far from one lattice
    point, where the (d, i, j) key and the d_new < d_cur - 1e-15 rule
    decide; and centres where the affine floor rounds, at the origin's cell,
    at the cell near (1e6, 1e6) and shifted by (1e6, 1e6)."""
    lat = TriLattice(alpha_k(k))
    far = lat.affine(1e6, 1e6)
    edges = _floor_edges(lat, 0, 0) + _floor_edges(lat, round(far[0]), round(far[1]))
    edges += [(x + 1e6, y + 1e6) for x, y in edges[:len(edges) // 2]]
    p = [lat.point(i, j) for i, j in ((0, 0), (1, 0), (0, 1), (2, 1), (-1, 3))]
    mid = [((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0) for a, b in zip(p, p[1:])]
    vertex = [((p[0][0] + p[1][0] + p[2][0]) / 3.0, (p[0][1] + p[1][1] + p[2][1]) / 3.0)]
    x, y = p[3]
    ring = [(x + 0.3 * math.cos(t), y + 0.3 * math.sin(t))
            for t in np.linspace(0.0, 2.0 * math.pi, 13).tolist()]
    near = [(x + 0.3 + e, y) for e in (-2e-16, -1e-16, 0.0, 1e-16, 4e-16)]
    return [DiskSet.from_pairs(mid + vertex + p), DiskSet.from_pairs(ring),
            DiskSet.from_pairs(near + near[::-1]), DiskSet.from_pairs(p + p),
            DiskSet.from_pairs(_exact_ties(lat)), DiskSet.from_pairs(edges)] + \
        [DiskSet.from_pairs(pair) for pair in POW_SCAN_DISAGREES] + \
        [DiskSet.from_pairs([c]) for c in edges]


@pytest.mark.parametrize("k", [3, 4, 7, 12])
def test_kcolour_labels_match_scalar_reference(k):
    for ds in build_corpus() + quick_corpus(120, 60, 77) + _kcolour_ties(k):
        assignment, report = solve_kcolour(ds, k)
        assert list(assignment.labels) == reference_kcolour_labels(ds, k)
        assert report.lattice_points_hit == assignment.selected_count


def _check_outcome(check, ds, labels):
    try:
        check(ds, labels)
    except VerificationError as exc:
        return str(exc)
    return None


def _verify_check(ds, labels):
    # verify accepts only the k a solver writes: basic3's 3, or loeschian7's
    # 7 for labellings with up to 7 colours
    method, k = ("basic3", 3) if all(c is None or c < 3 for c in labels) else ("loeschian7", 7)
    verify(ds, Assignment(tuple(labels), k, method, None))


def test_same_colour_check_matches_scalar_reference():
    rng = SplitMix64(808)
    corpus = quick_corpus(120, 60, 77) + [gen_clustered(80, 3, 12.0, 1.0, 9)]
    for ds in corpus:
        labelings = [list(solve_basic_3colour(ds)[0].labels), [0] * len(ds)]
        for colours in (2, 3, 5):
            labelings.append([None if rng.next_double() < 0.3 else rng.randrange(colours)
                              for _ in range(len(ds))])
        for labels in labelings:
            assert _check_outcome(_verify_check, ds, labels) == \
                _check_outcome(reference_same_colour_check, ds, labels)


def test_same_colour_check_at_the_threshold():
    gap = 2.0 - 1e-8
    for d in (math.nextafter(gap, 0.0), gap, math.nextafter(gap, 3.0)):
        for t in (0.0, 0.7, math.pi / 4.0):
            ds = DiskSet.from_pairs([(0.0, 0.0), (d * math.cos(t), d * math.sin(t))])
            got = _check_outcome(_verify_check, ds, [2, 2])
            assert got == _check_outcome(reference_same_colour_check, ds, [2, 2])
            if t == 0.0:
                assert (got is not None) == (d < gap)


def test_same_colour_check_order_and_duplicates():
    # colour 1 appears first, so its duplicated pair (3, 4) is reported
    # before colour 0's pair (1, 2)
    ds = DiskSet.from_pairs([(0.5, 10.0), (0.0, 0.0), (1.0, 0.0), (9.0, 9.0), (9.0, 9.0)])
    labels = [1, 0, 0, 1, 1]
    assert _check_outcome(_verify_check, ds, labels) == \
        "disks 3 and 4 share colour 1 but overlap" == \
        _check_outcome(reference_same_colour_check, ds, labels)
    labels = [0, 0, 0, 1, 1]
    assert _check_outcome(_verify_check, ds, labels) == \
        "disks 1 and 2 share colour 0 but overlap" == \
        _check_outcome(reference_same_colour_check, ds, labels)


def test_selection_memory_is_bounded_by_n():
    # 3000 copies of one disk share a lattice point of both lattices: the
    # scans must not pad every cell to the longest run
    n = 3000
    ds = DiskSet.from_pairs(list(gen_random(n, 1.4 * math.sqrt(n) + 2.0, 3).centers)
                            + [(0.0, 0.0)] * n)
    ds.centers_array()
    for select in (lambda: selector._nearest_cells(ds, TriLattice(alpha_k(7))),
                   lambda: _select_cells(ds, TriLattice(THREE_COLOUR_SIDE),
                                         np.zeros(1), np.zeros(1))):
        tracemalloc.start()
        try:
            select()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def test_scan_time_is_linear_in_the_disks_sharing_a_point():
    # 10^5 copies of one disk share a lattice point: the scan keeps the
    # first and labels no other.  One NumPy round per member took the solve
    # 1.16 to 1.36 s; finishing long runs in one loop takes 0.13 to 0.15 s
    base = gen_random(100, 16.0, 1)
    ds = DiskSet(1.0, base.centers + (base.centers[0],) * 100_000)
    ds.centers_array()
    want = solve_kcolour(base, 7)[0].labels + (None,) * 100_000
    elapsed = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        assignment, _ = solve_kcolour(ds, 7)
        elapsed = min(elapsed, time.perf_counter() - t0)
        assert assignment.labels == want
    assert elapsed < 0.2


def test_same_colour_check_pairs_only_coloured_disks(monkeypatch):
    seen = []
    near_pairs = selector._near_pairs

    def recording(x, y, reach):
        seen.append((x.tolist(), y.tolist()))
        return near_pairs(x, y, reach)

    monkeypatch.setattr(selector, "_near_pairs", recording)
    ds = DiskSet.from_pairs([(0.0, 0.0)] * 5 + [(3.0, 0.0), (0.5, 0.5), (9.0, 1.0)])
    labels = [None, 1, None, None, None, 0, None, 1]
    _verify_check(ds, labels)
    assert seen == [([0.0, 3.0, 9.0], [0.0, 0.0, 1.0])]


COINCIDENT_SOLVERS = dict(SOLVERS,
                          weighted3=lambda d: solve_weighted_3colour(d, OffsetSampling(32)))


@pytest.mark.parametrize("method", sorted(COINCIDENT_SOLVERS))
def test_coincident_copies_change_no_output(method):
    # 500 copies of the first disk: the first keeps its label, the copies
    # get none, and the lattice and the report are the base solve's
    solve = COINCIDENT_SOLVERS[method]
    base = gen_random(12, 6.85, 3)
    pts = base.centers_array()
    ds = DiskSet(1.0, np.concatenate([pts, np.repeat(pts[:1], 500, axis=0)]))
    want, want_report = solve(base)
    got, report = solve(ds)
    assert got.labels == want.labels + (None,) * 500
    assert got.lattice == want.lattice
    assert report == want_report


def test_coincident_disks_position_in_time_and_memory_bounded_by_the_distinct_ones():
    # 500 disks at one point: positioning wraps one centre, not 500.  Pushing
    # every copy through the depth search took 1.5 to 1.7 s and 327 MB
    ds = gen_clustered(500, 1, 12, 0.0, 0)
    assert len(set(ds.centers)) == 1
    want = solve_basic_3colour(DiskSet(1.0, ds.centers_array()[:1]))[0].labels + (None,) * 499
    elapsed = math.inf
    for _ in range(3):
        fresh = DiskSet(1.0, ds.centers_array())
        t0 = time.perf_counter()
        assignment, _ = solve_basic_3colour(fresh)
        elapsed = min(elapsed, time.perf_counter() - t0)
        assert assignment.labels == want
    assert elapsed < 0.2
    fresh = DiskSet(1.0, ds.centers_array())
    tracemalloc.start()
    try:
        solve_basic_3colour(fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
