"""The array selection routine against the scalar per-point scan it replaced.

Every solver result must equal the reference-built one under ``==``: same
labels, offsets, hit counts and cell sums, bit for bit.
"""

import math
import time

import numpy as np
import pytest

from diskpack import (EPS, Assignment, DiskSet, OffsetSampling, ONE_COLOUR_SIDE,
                      SplitMix64, THREE_COLOUR_SIDE, TWO_COLOUR_SIDE, TriLattice,
                      VerificationError, alpha_k, gen_clustered, gen_random,
                      gen_spirograph, solve_basic_3colour, solve_kcolour,
                      solve_rado_1colour, solve_square_2colour,
                      solve_weighted_3colour, verify)
from diskpack.geometry import _edge_disk_area, _edge_disk_area_array
from diskpack.selector import _select_at
from conftest import (REFERENCE_POSITIONED, quick_corpus, reference_kcolour_labels,
                      reference_same_colour_check, reference_select_at,
                      reference_solve_positioned, reference_solve_weighted)
from test_acceptance import build_corpus

SOLVERS = {"basic3": solve_basic_3colour, "rado1": solve_rado_1colour,
           "square2": solve_square_2colour}

# (dx, dy) at distance 1 + EPS, where ``dx ** 2 + dy ** 2 <= (1 + EPS) ** 2``
# and ``dx * dx + dy * dy <= (1 + EPS) ** 2`` disagree
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
    assert hits == [0, 1, 0, 1]


@pytest.mark.parametrize("grid", [4, 6, 16])
def test_weighted_solver_matches_scalar_reference(grid):
    corpus = quick_corpus(8, 10, 5)
    corpus.append(DiskSet.from_pairs([(0.0, 0.0), (0.0, 0.0), (1.2, 0.4)]))
    for ds in corpus:
        sampling = OffsetSampling(grid_resolution=grid)
        assert solve_weighted_3colour(ds, sampling) == reference_solve_weighted(ds, sampling)


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


# disk pairs in the cell of lattice point (3, 2) of the k = 7 lattice whose
# d_new < d_cur - 1e-15 decision differs between ``** 2`` and x * x
POW_SCAN_DISAGREES = [
    ((5.360751057693287, 1.8980007592405825), (5.684012374033767, 2.0416265071165873)),
    ((4.965659576797259, 2.5297565415907584), (5.768332624671367, 2.5232306497847747)),
    ((5.154719746422538, 2.4041861641587907), (5.1621620401304344, 2.421386333899259)),
    ((5.610291025235998, 2.759175308146296), (5.141874092926485, 2.7705659876582147))]


def _kcolour_ties(k):
    """Centres on Voronoi edges and vertices of the k-colour lattice, and
    disks equally far from one lattice point, where the (d, i, j) key and the
    d_new < d_cur - 1e-15 rule decide."""
    lat = TriLattice(alpha_k(k))
    p = [lat.point(i, j) for i, j in ((0, 0), (1, 0), (0, 1), (2, 1), (-1, 3))]
    mid = [((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0) for a, b in zip(p, p[1:])]
    vertex = [((p[0][0] + p[1][0] + p[2][0]) / 3.0, (p[0][1] + p[1][1] + p[2][1]) / 3.0)]
    x, y = p[3]
    ring = [(x + 0.3 * math.cos(t), y + 0.3 * math.sin(t))
            for t in np.linspace(0.0, 2.0 * math.pi, 13).tolist()]
    near = [(x + 0.3 + e, y) for e in (-2e-16, -1e-16, 0.0, 1e-16, 4e-16)]
    return [DiskSet.from_pairs(mid + vertex + p), DiskSet.from_pairs(ring),
            DiskSet.from_pairs(near + near[::-1]), DiskSet.from_pairs(p + p)] + \
        [DiskSet.from_pairs(pair) for pair in POW_SCAN_DISAGREES]


@pytest.mark.parametrize("k", [3, 4, 7])
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
    verify(ds, Assignment(tuple(labels), max([1] + [c + 1 for c in labels if c is not None]),
                          "basic3", None))


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
