import json
import math
from pathlib import Path

import pytest

from diskpack import (DiskSet, Point, TriLattice, THREE_COLOUR_SIDE, gen_random,
                      solve_basic_3colour)
from diskpack.cli import main
from diskpack.files import parse_instance, parse_result, serialize_instance, serialize_result
from diskpack.render import render_svg
from test_selector import radius_instances


class TestRenderSvg:
    def test_empty_instance(self):
        svg = render_svg(DiskSet(1.0, ()))
        assert svg.startswith("<svg")
        assert "</svg>" in svg

    def test_element_counts(self):
        ds = gen_random(9, 6.0, 3)
        assignment, _ = solve_basic_3colour(ds)
        lat = TriLattice(THREE_COLOUR_SIDE, offset=assignment.lattice.offset)
        svg = render_svg(ds, assignment, lat, show_cells=True)
        body = svg.split('class="lattice"')[0]
        assert body.count("<circle") == 9
        assert svg.count("<polygon") >= 1
        assert 'class="cells"' in svg and 'class="lattice"' in svg

    def test_colours_and_grey(self):
        ds = gen_random(9, 4.0, 3)
        assignment, _ = solve_basic_3colour(ds)
        svg = render_svg(ds, assignment)
        if any(c is None for c in assignment.labels):
            assert "#bbbbbb" in svg
        assert any(col in svg for col in ("#e41a1c", "#377eb8", "#4daf4a"))

    def test_byte_identical(self):
        ds = gen_random(7, 5.0, 11)
        assignment, _ = solve_basic_3colour(ds)
        assert render_svg(ds, assignment) == render_svg(ds, assignment)


class TestCli:
    def test_generate_solve_verify_roundtrip(self, tmp_path: Path):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        assert main(["generate", "random", "-n", "15", "--box", "9",
                     "--seed", "3", "-o", str(inst)]) == 0
        ds = parse_instance(inst.read_text())
        assert len(ds) == 15
        assert main(["solve", "-i", str(inst), "--colours", "3",
                     "-o", str(res)]) == 0
        assignment, doc = parse_result(res.read_text())
        assert len(assignment.labels) == 15
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 0

    @pytest.mark.parametrize("colours,extra", [("1", []), ("2", []),
                                               ("k", ["--k", "7"])])
    def test_other_solvers(self, tmp_path: Path, colours, extra):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "8", "--box", "7", "--seed", "5",
              "-o", str(inst)])
        assert main(["solve", "-i", str(inst), "--colours", colours,
                     *extra, "-o", str(res)]) == 0
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 0

    @pytest.mark.parametrize("r", [0.5, 2.0, 10.0])
    def test_any_radius_solves_and_verifies(self, tmp_path: Path, r):
        res = tmp_path / "res.json"
        for t, (_, ds) in enumerate(radius_instances(r)):
            inst = tmp_path / f"inst{t}.json"
            inst.write_text(serialize_instance(ds))
            for args in (["--colours", "1"], ["--colours", "2"], ["--colours", "3"],
                         ["--colours", "3", "--method", "weighted", "--grid", "16"]):
                assert main(["solve", "-i", str(inst), *args, "-o", str(res)]) == 0
                assert main(["verify", "-i", str(inst), "-r", str(res)]) == 0
                _, doc = parse_result(res.read_text())
                assert doc["report"]["ratio"] >= doc["report"]["guarantee"]

    def test_weighted_solver(self, tmp_path: Path):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "chain", "-n", "3", "--spacing", "1.1", "-o", str(inst)])
        assert main(["solve", "-i", str(inst), "--colours", "3", "--method",
                     "weighted", "--grid", "48", "-o", str(res)]) == 0
        _, doc = parse_result(res.read_text())
        assert doc["report"]["selected_union_area"] == \
            pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_invalid_input_exit_2(self, tmp_path: Path):
        assert main(["solve", "-i", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["area", "-i", str(bad)]) == 2
        inst = tmp_path / "inst.json"
        main(["generate", "random", "-n", "4", "--box", "5", "-o", str(inst)])
        assert main(["solve", "-i", str(inst), "--colours", "k", "--k", "5",
                     "-o", str(tmp_path / "r.json")]) == 2

    def test_tampered_result_exit_3(self, tmp_path: Path):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "10", "--box", "6", "--seed", "1",
              "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        doc = json.loads(res.read_text())
        doc["report"]["ratio"] = 0.999999
        res.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 3

    def test_mismatched_instance_exit_3(self, tmp_path: Path):
        inst = tmp_path / "inst.json"
        other = tmp_path / "other.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "6", "--box", "6", "--seed", "1",
              "-o", str(inst)])
        main(["generate", "random", "-n", "6", "--box", "6", "--seed", "2",
              "-o", str(other)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        assert main(["verify", "-i", str(other), "-r", str(res)]) == 3

    def test_area_command(self, tmp_path: Path, capsys):
        inst = tmp_path / "inst.json"
        main(["generate", "spirograph", "-n", "3", "--epsilon", "0.5",
              "-o", str(inst)])
        assert main(["area", "-i", str(inst), "--mc", "50000"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out and "monte-carlo" in out

    def test_bounds_command(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "c3_basic" in out and "1/2.77" in out

    def test_render_command(self, tmp_path: Path):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        svg = tmp_path / "out.svg"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        assert main(["render", "-i", str(inst), "-r", str(res), "--lattice",
                     "--cells", "-o", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    def test_render_unreadable_result_exit_2(self, tmp_path: Path):
        inst = tmp_path / "inst.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        for res in (tmp_path / "missing.json", binary):
            assert main(["render", "-i", str(inst), "-r", str(res),
                         "-o", str(tmp_path / "out.svg")]) == 2

    def test_render_unknown_lattice_kind_exit_2(self, tmp_path: Path, capsys):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        doc = json.loads(res.read_text())
        doc["lattice"]["kind"] = "hexagonal"
        res.write_text(json.dumps(doc))
        svg = tmp_path / "out.svg"
        assert main(["render", "-i", str(inst), "-r", str(res), "--lattice",
                     "-o", str(svg)]) == 2
        assert "hexagonal" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("field,value", [("kind", "hexagonal"), ("side", 0.0),
                                             ("side", -2.0), ("side", float("nan")),
                                             ("side", float("inf"))])
    def test_verify_invalid_lattice_exit_2(self, tmp_path: Path, capsys, field, value):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        doc = json.loads(res.read_text())
        doc["lattice"][field] = value
        res.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 2
        assert "lattice" in capsys.readouterr().err

    @pytest.mark.parametrize("report", [[], "abc", None])
    def test_verify_report_not_an_object_exit_2(self, tmp_path: Path, capsys, report):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        doc = json.loads(res.read_text())
        doc["report"] = report
        res.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 2
        assert "report" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["union_area", "selected_union_area", "ratio"])
    @pytest.mark.parametrize("value", ["abc", "1.5", [1.0], True, float("nan"), float("inf"),
                                       10 ** 400])
    def test_verify_report_value_not_a_number_exit_2(self, tmp_path: Path, capsys, key, value):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        doc = json.loads(res.read_text())
        doc["report"][key] = value
        res.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("labels", v) for v in (1.5, 2.0, "2", True, [1])]
                             + [("k", v) for v in (3.9, 3.0, "3", True, None)])
    def test_verify_label_or_k_not_an_integer_exit_2(self, tmp_path: Path, capsys, key, value):
        # labels and k must be JSON integers, so that verify checks the
        # file's own assignment and not a rounding of it
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        doc = json.loads(res.read_text())
        if key == "labels":
            doc["labels"][0] = value
        else:
            doc["k"] = value
        res.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("solver,k,code", [("basic3", 7, 3), ("foo", 3, 3),
                                               ("loeschian" + "1" * 31, int("1" * 31), 2)],
                             ids=["basic3-k7", "unknown-solver", "k-31-digits"])
    def test_verify_k_its_solver_does_not_write(self, tmp_path: Path, capsys, solver, k, code):
        # a k the solver does not write exits 3; a k too large for the
        # Loeschian search exits 2 instead of searching for years
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        doc = json.loads(res.read_text())
        doc["solver"], doc["k"] = solver, k
        res.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == code
        assert ("does not write" if code == 3 else "below 2^31") in capsys.readouterr().err

    def test_parse_result_keeps_valid_report(self):
        ds = gen_random(9, 6.0, 3)
        assignment, report = solve_basic_3colour(ds)
        text = serialize_result(ds, assignment, report)
        parsed, doc = parse_result(text)
        assert parsed == assignment
        assert doc == json.loads(text)

    def test_generate_depth_reduction_without_instance_exit_2(self, capsys):
        assert main(["generate", "depth-reduction"]) == 2
        assert "instance" in capsys.readouterr().err

    def test_solve_translate_id_beyond_64_bits_exit_2(self, tmp_path: Path, capsys):
        inst = tmp_path / "far.json"
        inst.write_text(serialize_instance(DiskSet(1.0, (Point(1e20, 0.0), Point(1e20, 1.5)))))
        assert main(["solve", "-i", str(inst), "-o", str(tmp_path / "res.json")]) == 2
        assert "64 bits" in capsys.readouterr().err

    def test_depth_reduction_generate(self, tmp_path: Path):
        inst = tmp_path / "inst.json"
        out = tmp_path / "red.json"
        main(["generate", "spirograph", "-n", "5", "--epsilon", "0.01",
              "-o", str(inst)])
        assert main(["generate", "depth-reduction", "-i", str(inst),
                     "-o", str(out)]) == 0
        assert len(parse_instance(out.read_text())) == 5

    def test_bench_command(self, capsys):
        assert main(["bench", "--sizes", "20", "--seed", "1"]) == 0
        assert "solve_basic_3colour" in capsys.readouterr().out

    @pytest.mark.parametrize("where", ["x", "y", "radius"])
    def test_instance_number_out_of_float_range_exit_2(self, tmp_path: Path, capsys, where):
        huge = "9" * 401
        x, y, radius = (huge if where == w else "1" for w in ("x", "y", "radius"))
        inst = tmp_path / "huge.json"
        inst.write_text(f'{{"schema_version": 1, "radius": {radius}, '
                        f'"centers": [[{x}, {y}]]}}')
        assert main(["area", "-i", str(inst)]) == 2
        assert "malformed instance" in capsys.readouterr().err

    @pytest.mark.parametrize("radius,centers", [("true", "[[0, 0]]"), ('"2"', "[[0, 0]]"),
                                                ("1", '[["0", true]]'), ("1", "[[0.5, true]]")],
                             ids=["radius-true", "radius-str", "str-and-bool", "bool"])
    def test_instance_value_not_a_number_exit_2(self, tmp_path: Path, capsys, radius, centers):
        # float() reads true as 1 and "2" as 2; a JSON number is required
        inst = tmp_path / "inst.json"
        inst.write_text(f'{{"schema_version": 1, "radius": {radius}, "centers": {centers}}}')
        assert main(["area", "-i", str(inst)]) == 2
        assert "malformed instance" in capsys.readouterr().err

    def test_nesting_too_deep_for_json_exit_2(self, tmp_path: Path, capsys):
        # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
        deep = "[" * 10**5 + "]" * 10**5
        inst = tmp_path / "inst.json"
        inst.write_text(f'{{"schema_version": 1, "radius": 1, "centers": {deep}}}')
        assert main(["area", "-i", str(inst)]) == 2
        res = tmp_path / "res.json"
        res.write_text(deep)
        main(["generate", "random", "-n", "3", "-o", str(inst)])
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 2
        assert capsys.readouterr().err.count("not valid JSON") == 2

    @pytest.mark.parametrize("field,value", [("labels", "[1e400]"), ("k", "1e400"),
                                             ("side", "9" * 401)], ids=["labels", "k", "side"])
    def test_result_number_out_of_range_exit_2(self, tmp_path: Path, capsys, field, value):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        main(["solve", "-i", str(inst), "-o", str(res)])
        doc = json.loads(res.read_text())
        target = doc["lattice"] if field == "side" else doc
        target[field] = "@HUGE@"
        res.write_text(json.dumps(doc).replace('"@HUGE@"', value))
        assert main(["verify", "-i", str(inst), "-r", str(res)]) == 2
        assert "malformed result" in capsys.readouterr().err

    @pytest.mark.parametrize("colours,extra", [("1", []), ("2", []), ("k", ["--k", "7"])])
    def test_weighted_method_needs_three_colours_exit_2(self, tmp_path: Path, capsys,
                                                        colours, extra):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        main(["generate", "random", "-n", "5", "--box", "5", "-o", str(inst)])
        assert main(["solve", "-i", str(inst), "--colours", colours, *extra,
                     "--method", "weighted", "-o", str(res)]) == 2
        assert "--colours 3" in capsys.readouterr().err
        assert not res.exists()
