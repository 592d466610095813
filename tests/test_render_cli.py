import json
import math
from pathlib import Path

import pytest

from diskpack import (DiskSet, TriLattice, THREE_COLOUR_SIDE, gen_random,
                      solve_basic_3colour)
from diskpack.cli import main
from diskpack.files import parse_instance, parse_result
from diskpack.render import render_svg


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
