"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy solver sweeps over the shared corpus run once in session fixtures and
record their wall-clock time; the criteria assert on the cached results and
on the recorded budgets.
"""

import math
import time

import pytest

from diskpack import (Circle, DiskSet, OffsetSampling, Point, SplitMix64,
                      THREE_COLOUR_SIDE, TriLattice, bound_table,
                      boundary_disk_hex_area, circle_polygon_intersection_area,
                      delta_k, exact_union_area, gen_chain, gen_clustered, gen_random,
                      gen_spirograph, kcolour_guarantee, lens_area,
                      loeschian_decompose, max_distinct_translate_depth,
                      min_overlap_closed_form, min_square_overlap,
                      monte_carlo_union_area, scaled_union_area,
                      solve_basic_3colour, solve_kcolour, solve_rado_1colour,
                      solve_square_2colour, solve_weighted_3colour,
                      translate_to_cell)
from diskpack.errors import InputError
from conftest import grid_distinct_oracle

SQRT3 = math.sqrt(3.0)
DELTA = min_overlap_closed_form()


def report_line(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def same_colour_disjoint(disks, assignment):
    by_colour = {}
    for i, c in enumerate(assignment.labels):
        if c is not None:
            by_colour.setdefault(c, []).append(disks.centers[i])
    gap = 2.0 * disks.radius - 1e-8
    for pts in by_colour.values():
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if math.dist(pts[a], pts[b]) < gap:
                    return False
    return True


def build_corpus():
    """>= 500 instances: random n in [1, 200], spirographs, clustered, chains."""
    corpus = []
    rng = SplitMix64(20260808)
    corpus.extend(DiskSet.from_pairs([(x, y)]) for x, y in
                  [(0.0, 0.0), (13.7, -2.9), (-400.5, 221.25), (0.3, 0.3), (5.0, 5.0)])
    for k in range(330):  # small
        n = 1 + rng.randrange(30)
        box = max(2.5, 1.8 * math.sqrt(n) * (0.6 + 1.4 * rng.next_double()))
        corpus.append(gen_random(n, box, 3000 + k))
    for k in range(90):  # medium
        n = 31 + rng.randrange(50)
        box = max(6.0, 1.7 * math.sqrt(n) * (0.7 + rng.next_double()))
        corpus.append(gen_random(n, box, 7000 + k))
    for k in range(20):  # large, includes the n = 200 endpoint
        n = 200 if k == 0 else 81 + rng.randrange(120)
        box = 1.55 * math.sqrt(n) * (0.8 + 0.6 * rng.next_double())
        corpus.append(gen_random(n, box, 9000 + k))
    for n in (3, 4, 5, 8, 12, 20, 50, 100):
        for eps in (0.3, 0.1, 0.05, 0.01):
            corpus.append(gen_spirograph(n, eps))
    for k in range(30):
        n = 2 + rng.randrange(60)
        corpus.append(gen_clustered(n, 1 + rng.randrange(5),
                                    5.0 + 14.0 * rng.next_double(),
                                    0.4 + 2.2 * rng.next_double(), 11000 + k))
    corpus.append(gen_chain(3, 1.1))
    corpus.append(gen_chain(5, 1.05))
    corpus.append(DiskSet.from_pairs([(0.0, 0.0), (2.0, 0.0)]))
    assert len(corpus) >= 500
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def basic_runs(corpus):
    t0 = time.perf_counter()
    runs = [(ds,) + solve_basic_3colour(ds) for ds in corpus]
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rado_runs(corpus):
    t0 = time.perf_counter()
    runs = [(ds,) + solve_rado_1colour(ds) for ds in corpus]
    return runs, time.perf_counter() - t0


def test_criterion_01_minimum_overlap_reproduction():
    t0 = time.perf_counter()
    best_t, best_v = 0.0, float("inf")
    n = 3000
    for k in range(n + 1):
        t = (math.pi / 3.0) * k / n
        v = boundary_disk_hex_area(t)
        if v < best_v:
            best_t, best_v = t, v
    lo, hi = max(best_t - 1e-3, 0.0), min(best_t + 1e-3, math.pi / 3.0)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = boundary_disk_hex_area(x1), boundary_disk_hex_area(x2)
    while hi - lo > 1e-13:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = boundary_disk_hex_area(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = boundary_disk_hex_area(x2)
    numeric_min = boundary_disk_hex_area(0.5 * (lo + hi))
    elapsed = time.perf_counter() - t0
    ok = (abs(numeric_min - DELTA) < 1e-9
          and abs(DELTA - 1.6645382) < 1e-6
          and abs(DELTA - 1.6645) < 1e-4
          and elapsed < 1.0)
    report_line(1, ok, f"min overlap {DELTA:.9f} == closed form +- 1e-9, "
                       f"{elapsed:.2f}s")


def test_criterion_02_piecewise_formula_consistency():
    t0 = time.perf_counter()
    hexa = TriLattice(THREE_COLOUR_SIDE).cell
    worst = 0.0
    for k in range(1000):
        t = (math.pi / 3.0) * (k + 0.5) / 1000.0
        oracle = circle_polygon_intersection_area(Circle(Point(math.cos(t), math.sin(t)), 1.0),
                                                  hexa)
        worst = max(worst, abs(boundary_disk_hex_area(t) - oracle))
    h = 1e-5
    fd = abs(boundary_disk_hex_area(math.pi / 6 + h)
             - boundary_disk_hex_area(math.pi / 6 - h)) / (2.0 * h)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and fd < 1e-6 and elapsed < 5.0
    report_line(2, ok, f"piecewise vs clip oracle max diff {worst:.2e}, "
                       f"derivative at the minimum {fd:.2e}, {elapsed:.2f}s")


def test_criterion_03_basic_three_colour_guarantee(basic_runs):
    runs, elapsed = basic_runs
    bound = bound_table().c3_basic
    ok = len(runs) >= 500 and elapsed < 120.0
    worst_ratio = 2.0
    for ds, assignment, report in runs:
        need = math.ceil(report.union_area * SQRT3 / 8.0 - 1e-9)
        if not (same_colour_disjoint(ds, assignment)
                and report.lattice_points_hit >= need
                and report.ratio >= bound - 1e-9):
            ok = False
            break
        worst_ratio = min(worst_ratio, report.ratio)
    report_line(3, ok, f"{len(runs)} instances, worst ratio {worst_ratio:.6f} "
                       f">= {bound:.6f}, solve time {elapsed:.1f}s")


def test_criterion_04_one_colour_guarantee(rado_runs):
    runs, elapsed = rado_runs
    bound = math.pi / (8.0 * SQRT3)
    ok = elapsed < 60.0
    worst_ratio = 2.0
    for ds, assignment, report in runs:
        if not (same_colour_disjoint(ds, assignment)
                and report.ratio >= bound - 1e-9):
            ok = False
            break
        worst_ratio = min(worst_ratio, report.ratio)
    report_line(4, ok, f"worst ratio {worst_ratio:.6f} >= {bound:.6f} "
                       f"(~1/4.41), solve time {elapsed:.1f}s")


def test_criterion_05_weighted_constant_and_dominance(corpus):
    t0 = time.perf_counter()
    from diskpack import weighted_bound_constant
    weighted_bound_constant.cache_clear()
    c = weighted_bound_constant()
    t_const = time.perf_counter() - t0
    scaled = SQRT3 / 8.0 * c
    ok = (abs(c - 2.207) <= 1e-3 and abs(scaled - 0.4778) <= 5e-4
          and t_const < 1.0)
    # substitute property: the weight maximizer never falls below the count
    # maximizer in total cell weight, and resolves the chain tradeoff to 2*pi
    small = [ds for ds in corpus if 2 <= len(ds) <= 10][:50]
    assert len(small) == 50
    for ds in small:
        _, basic = solve_basic_3colour(ds)
        _, weighted = solve_weighted_3colour(ds, OffsetSampling(grid_resolution=4))
        if weighted.cell_area_bound < basic.cell_area_bound - 1e-9:
            ok = False
            break
    _, chain_report = solve_weighted_3colour(gen_chain(3, 1.1),
                                             OffsetSampling(grid_resolution=64))
    ok = ok and abs(chain_report.selected_union_area - 2.0 * math.pi) < 1e-9
    ok = ok and chain_report.selected_union_area > 3.0 * DELTA
    report_line(5, ok, f"2*integral = {c:.6f} (2.207 +- 0.001), scaled "
                       f"{scaled:.6f} (~1/2.09); weight dominance on 50 "
                       f"instances; chain resolved to 2*pi")


def test_criterion_06_spirograph_sandwich():
    ds = gen_spirograph(100, 0.01)
    _, report = solve_basic_3colour(ds)
    const = (3.0 * math.pi - 3.0 * lens_area(1.0, 1.0, SQRT3)) / (4.0 * math.pi)
    ok = (0.3604 - 1e-9 <= report.ratio <= 0.7075 + 0.005
          and abs(const - 0.7067) <= 5e-4
          and abs(1.0 / const - 1.415) <= 5e-3)
    report_line(6, ok, f"ratio {report.ratio:.4f} in [0.3604, 0.7125]; "
                       f"three-disk optimum {const:.6f} ~ 1/1.41")


def test_criterion_07_positioning_lower_bound(basic_runs):
    runs, _ = basic_runs
    lat = TriLattice(THREE_COLOUR_SIDE)
    ok = True
    for ds, assignment, report in runs:
        need = math.ceil(report.union_area / lat.cell_area - 1e-9)
        if report.positioning_depth < need:
            ok = False
            break
    t0 = time.perf_counter()
    rng = SplitMix64(321)
    checked = 0
    for k in range(200):
        n = 1 + rng.randrange(12)
        box = 2.5 + 3.5 * rng.next_double()
        ds = gen_random(n, box, 50000 + k)
        copies = translate_to_cell(ds, lat)
        w = max_distinct_translate_depth(copies, lat)
        if w.distinct_translates != grid_distinct_oracle(copies, lat, resolution=560):
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 200 and elapsed < 120.0
    report_line(7, ok, f"depth >= ceil(A / cell) on all runs; grid oracle "
                       f"equality on {checked} small instances, {elapsed:.1f}s")


def test_criterion_08_radius_scaling_bound():
    t0 = time.perf_counter()
    rng = SplitMix64(777)
    ok = True
    for k in range(100):
        n = 1 + rng.randrange(15)
        box = 2.0 + 8.0 * rng.next_double()
        ds = gen_random(n, box, 70000 + k)
        a = exact_union_area(ds)
        for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            if scaled_union_area(ds, r) < r * r * a - 1e-9:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report_line(8, ok, f"100 instances x 9 scale factors all >= r^2 * A, "
                       f"{elapsed:.1f}s")


def test_criterion_09_k_colour_guarantees(corpus):
    t0 = time.perf_counter()
    ok = loeschian_decompose(5) is None
    try:
        solve_kcolour(corpus[0], 5)
        ok = False
    except InputError:
        pass
    ok = ok and abs(delta_k(3) - 4.0) < 1e-12
    sub = [ds for ds in corpus if 1 <= len(ds) <= 60][::14][:24]
    for k in (1, 3, 4, 7, 12):
        bound = kcolour_guarantee(k)
        for ds in sub:
            assignment, report = solve_kcolour(ds, k)
            if not (same_colour_disjoint(ds, assignment)
                    and report.ratio >= bound - 1e-9):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report_line(9, ok, f"k in (1, 3, 4, 7, 12) valid with ratio >= "
                       f"1/(1+delta_k)^2 on {len(sub)} instances; k=5 "
                       f"rejected, {elapsed:.1f}s")


def test_criterion_10_two_colour_guarantee(corpus):
    d2 = min_square_overlap()
    ok = abs(8.0 / d2 - 3.37) <= 0.01
    bound = d2 / 8.0
    sub = [ds for ds in corpus if len(ds) <= 80][::6][:60]
    for ds in sub:
        assignment, report = solve_square_2colour(ds)
        if not (same_colour_disjoint(ds, assignment)
                and report.ratio >= bound - 1e-9):
            ok = False
            break
    report_line(10, ok, f"8/min-square-overlap = {8.0 / d2:.4f} (3.37 +- "
                        f"0.01); ratio >= {bound:.6f} on {len(sub)} instances")


def test_criterion_11_union_area_oracle():
    t0 = time.perf_counter()
    two = DiskSet.from_pairs([(0.0, 0.0), (1.0, 0.0)])
    closed_form = 2.0 * math.pi - lens_area(1.0, 1.0, 1.0)
    ok = abs(exact_union_area(two) - closed_form) < 1e-9
    rng = SplitMix64(4242)
    worst_z = 0.0
    for k in range(50):
        n = 1 + rng.randrange(8)
        box = 2.0 + 5.0 * rng.next_double()
        ds = gen_random(n, box, 90000 + k)
        exact = exact_union_area(ds)
        est = monte_carlo_union_area(ds, 10_000_000, 1337 + k)
        z = abs(est.area - exact) / est.stderr if est.stderr > 0 else 0.0
        worst_z = max(worst_z, z)
        if z > 4.0:
            ok = False
    elapsed = time.perf_counter() - t0
    report_line(11, ok, f"50 instances x 1e7 samples, worst |z| = "
                        f"{worst_z:.2f} <= 4; two-disk closed form to 1e-9, "
                        f"{elapsed:.1f}s")
