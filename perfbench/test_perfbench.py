"""Tests of the benchmark itself: output schema, traced/untraced digests, seeds.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_schema(trace, section):
    proc = _bench("--workload", "verify-area", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.PREFIX
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name):
    item = workloads.WORKLOADS[name](5)[0]
    plain = workloads.run_item(item)
    original = workloads.dp.verify
    tracer = tracing.Tracer()
    tracer.install(workloads.dp)
    try:
        with tracer.span("op", op=0):
            traced = workloads.run_item(item)
    finally:
        tracer.uninstall()
    assert plain.failures == [] and traced.failures == []
    assert workloads.digest([plain]) == workloads.digest([traced])
    names = {s.name for s in tracer.spans}
    assert "op" in names and "selector.verify" in names
    assert workloads.dp.verify is original
    layers = tracing.summarize(tracer.spans, 1, traced.hits)
    assert 0.99 < sum(layers[f"share.{l}"] for l in tracing.LAYERS) < 1.01


def test_seed_changes_instances():
    def shas(seed):
        pool = workloads.WORKLOADS["dense-positioned"](seed)
        return [workloads.dpfiles.instance_sha256(i.tasks[0].disks) for i in pool]

    assert shas(1) == shas(1)
    assert shas(1) != shas(2)
    assert len(set(shas(1))) == len(shas(1))


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(30)]
    value, pct, beyond = run.tail(samples)
    assert beyond == 10 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "dense-positioned", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
