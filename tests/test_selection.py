"""The array selection routine against the scalar per-point scan it replaced.

Every solver result must equal the reference-built one under ``==``: same
labels, offsets, hit counts and cell sums, bit for bit.
"""

import math
import time

import numpy as np
import pytest

from diskpack import (EPS, DiskSet, OffsetSampling, ONE_COLOUR_SIDE,
                      THREE_COLOUR_SIDE, TWO_COLOUR_SIDE, gen_clustered, gen_random,
                      gen_spirograph, solve_basic_3colour, solve_rado_1colour,
                      solve_square_2colour, solve_weighted_3colour, verify)
from diskpack.geometry import _edge_disk_area, _edge_disk_area_array
from diskpack.selector import _select_at
from conftest import (REFERENCE_POSITIONED, quick_corpus, reference_select_at,
                      reference_solve_positioned, reference_solve_weighted)

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
