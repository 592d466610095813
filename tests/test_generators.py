import math

import numpy as np
import pytest

from diskpack import (Circle, DiskSet, InputError, Point, SplitMix64,
                      TriLattice, enclosing_triangle_side, gen_chain,
                      gen_clustered, gen_depth_reduction, gen_random,
                      gen_spirograph, max_distinct_translate_depth,
                      translate_to_cell)
from diskpack.files import (instance_sha256, parse_instance, parse_result,
                            serialize_instance, serialize_result)
from diskpack.prng import GAMMA, double_block, mix64, u64_block
from diskpack import solve_basic_3colour, verify
from conftest import max_depth


class TestSplitMix:
    def test_reference_stream(self):
        # published splitmix64 outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_vector_matches_scalar(self):
        rng = SplitMix64(987654321)
        scalars = [rng.next_u64() for _ in range(100)]
        assert [int(v) for v in u64_block(987654321, 0, 100)] == scalars

    @pytest.mark.parametrize("seed", [0, 1, 987654321, 2**63 + 11, 2**64 - 1, 2**64 + 5])
    def test_blocks_match_scalar_stream(self, seed):
        # the state seed + k*GAMMA wraps mod 2^64 for almost every k; the
        # starts cover a block boundary (2^14) and indices near 2^64
        rng = SplitMix64(seed)
        stream = [rng.next_u64() for _ in range(2**14 + 3)]
        assert [int(v) for v in u64_block(seed, 0, len(stream))] == stream
        for start, count in ((0, 0), (0, 1), (5, 0), (2**14 - 2, 5), (2**14, 2**14 + 1),
                             (2**32 + 7, 40), (2**63 - 3, 9), (2**64 - 12, 10)):
            want = [mix64(seed + k * GAMMA) for k in range(start + 1, start + count + 1)]
            if start + count <= len(stream):
                assert want == stream[start:start + count]
            got = u64_block(seed, start, count)
            assert got.dtype == np.uint64 and [int(v) for v in got] == want
            d = double_block(seed, start, count)
            assert d.dtype == np.float64
            assert d.tolist() == [(w >> 11) * 2.0 ** -53 for w in want]

    def test_doubles_in_unit_interval(self):
        d = double_block(5, 0, 1000)
        assert float(d.min()) >= 0.0
        assert float(d.max()) < 1.0
        assert abs(float(d.mean()) - 0.5) < 0.05


class TestSpirograph:
    def test_geometry(self):
        ds = gen_spirograph(12, 0.25)
        assert len(ds) == 12
        for c in ds.centers:
            assert math.hypot(c[0], c[1]) == pytest.approx(0.75, abs=1e-12)
            # every disk holds the origin
            assert math.hypot(c[0], c[1]) <= 1.0

    def test_determinism(self):
        assert gen_spirograph(9, 0.1) == gen_spirograph(9, 0.1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            gen_spirograph(2, 0.1)
        with pytest.raises(InputError):
            gen_spirograph(5, 0.0)
        with pytest.raises(InputError):
            gen_spirograph(5, 1.0)
        for eps in (math.inf, math.nan):
            with pytest.raises(InputError):
                gen_spirograph(5, eps)

    def test_common_point_depth(self):
        ds = gen_spirograph(100, 0.01)
        _, depth = max_depth([Circle(c, 1.0) for c in ds.centers])
        assert depth == 100

    def test_three_disk_limit_constants(self):
        # a tight triple covers (3*pi - 3*lens)/4*pi of the limiting union
        from diskpack import lens_area
        ds = gen_spirograph(3, 1e-9)
        a = 3.0 * math.pi - 3.0 * lens_area(1.0, 1.0, math.sqrt(3.0))
        assert a == pytest.approx(8.8813, abs=1e-3)
        from diskpack import exact_union_area
        assert exact_union_area(ds) == pytest.approx(a, abs=1e-6)
        assert a / (4.0 * math.pi) == pytest.approx(0.7067, abs=5e-4)


class TestRandomAndClustered:
    def test_determinism_and_bounds(self):
        a = gen_random(50, 12.0, 9)
        b = gen_random(50, 12.0, 9)
        assert a == b
        assert all(0.0 <= c[0] <= 12.0 and 0.0 <= c[1] <= 12.0 for c in a.centers)
        assert gen_random(50, 12.0, 10) != a

    def test_single(self):
        assert len(gen_random(1, 5.0, 0)) == 1

    def test_rejects_bad(self):
        with pytest.raises(InputError):
            gen_random(0, 5.0, 1)
        with pytest.raises(InputError):
            gen_random(5, -1.0, 1)
        for bad in (math.inf, math.nan):
            with pytest.raises(InputError):
                gen_random(5, bad, 1)
            with pytest.raises(InputError):
                gen_clustered(5, 2, bad, 1.0, 1)
            with pytest.raises(InputError):
                gen_clustered(5, 2, 10.0, bad, 1)

    def test_clustered(self):
        ds = gen_clustered(30, 3, 20.0, 1.5, 4)
        assert len(ds) == 30
        assert ds == gen_clustered(30, 3, 20.0, 1.5, 4)

    @pytest.mark.parametrize("box", [9.3, 270.0, 1e12])
    @pytest.mark.parametrize("n", [1, 60, 2000])
    def test_centres_are_the_scalar_stream_bit_for_bit(self, n, box):
        # the generators draw from double_block; SplitMix64 is the reference
        def bits(ds):
            return [v.hex() for v in ds.centers_array().ravel().tolist()]

        for seed in (7, 2**64 - 1):
            rng = SplitMix64(seed)
            want = [rng.uniform(0.0, box) for _ in range(2 * n)]
            assert bits(gen_random(n, box, seed)) == [v.hex() for v in want]
            for clusters in (1, 3, 20):
                for spread in (0.0, 2.0, 3.5):
                    rng = SplitMix64(seed)
                    hubs = [(rng.uniform(0.0, box), rng.uniform(0.0, box))
                            for _ in range(clusters)]
                    want = []
                    for k in range(n):
                        hx, hy = hubs[k % clusters]
                        want += [hx + rng.uniform(-spread, spread),
                                 hy + rng.uniform(-spread, spread)]
                    assert bits(gen_clustered(n, clusters, box, spread, seed)) == \
                        [v.hex() for v in want]


class TestChain:
    def test_geometry(self):
        ds = gen_chain(3, 1.1)
        assert math.dist(ds.centers[0], ds.centers[2]) == pytest.approx(2.2)

    def test_rejects_bad(self):
        with pytest.raises(InputError):
            gen_chain(0, 1.0)
        with pytest.raises(InputError):
            gen_chain(3, 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(InputError):
                gen_chain(3, bad)


class TestDepthReduction:
    def test_single_disk(self):
        ds = DiskSet.from_pairs([(0.0, 0.0)])
        out = gen_depth_reduction(ds)
        assert len(out) == 1

    def test_depth_equals_positioning_count(self):
        # depth of the source set == max lattice points the reduced set admits
        for seed in range(8):
            rng = SplitMix64(seed + 60)
            n = 2 + rng.randrange(7)
            ds = gen_random(n, 4.0, seed + 60)
            depth = max_depth([Circle(c, 1.0) for c in ds.centers])[1]
            side = enclosing_triangle_side(ds)
            reduced = gen_depth_reduction(ds)
            lat = TriLattice(side)
            w = max_distinct_translate_depth(translate_to_cell(reduced, lat), lat)
            assert w.distinct_translates == depth

    def test_spirograph_depth_five(self):
        ds = gen_spirograph(5, 0.01)
        side = enclosing_triangle_side(ds)
        reduced = gen_depth_reduction(ds)
        lat = TriLattice(side)
        w = max_distinct_translate_depth(translate_to_cell(reduced, lat), lat)
        assert w.distinct_translates == 5


class TestFiles:
    def test_instance_round_trip_exact(self):
        ds = gen_random(17, 9.0, 123)
        text = serialize_instance(ds)
        back = parse_instance(text)
        assert back == ds
        assert serialize_instance(back) == text

    def test_awkward_floats_round_trip(self):
        ds = DiskSet(1.0, (Point(0.1, 1.0 / 3.0), Point(1e-17 + 2.0, -12345.678901234567)))
        assert parse_instance(serialize_instance(ds)) == ds

    def test_centres_written_as_format_17g(self):
        awkward = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, 2.0, -7.0,
                   1e12 + 0.1, -1e12 + 1.0 / 3.0, 3.3e12 + 0.5, 1e16]
        ds = DiskSet(1.0, tuple(Point(x, y) for x in awkward for y in awkward[::-1]))
        rows = ",\n    ".join(f"[{format(x, '.17g')}, {format(y, '.17g')}]"
                              for x, y in ds.centers)
        assert serialize_instance(ds) == ('{\n  "schema_version": 1,\n  "radius": 1,\n'
                                          f'  "centers": [\n    {rows}\n  ]\n}}\n')
        assert parse_instance(serialize_instance(ds)) == ds
        assert serialize_instance(DiskSet(2.5, ())).endswith('"centers": []\n}\n')

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_instance("not json")
        with pytest.raises(InputError):
            parse_instance('{"schema_version": 99, "radius": 1, "centers": []}')
        with pytest.raises(InputError):
            parse_instance('{"schema_version": 1, "radius": 1}')

    def test_result_round_trip_and_verify(self):
        ds = gen_random(12, 7.0, 5)
        assignment, report = solve_basic_3colour(ds)
        text = serialize_result(ds, assignment, report, {"method": "basic"})
        back, doc = parse_result(text)
        assert back.labels == assignment.labels
        assert back.k == assignment.k
        assert back.lattice == assignment.lattice
        assert doc["instance_sha256"] == instance_sha256(ds)
        fresh = verify(ds, back)
        assert fresh.ratio == pytest.approx(report.ratio, abs=1e-12)

    def test_serialization_deterministic(self):
        ds = gen_random(6, 5.0, 8)
        assignment, report = solve_basic_3colour(ds)
        assert serialize_result(ds, assignment, report) == \
            serialize_result(ds, assignment, report)
