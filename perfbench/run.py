"""diskpack benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload dense-positioned --seed 1 --seconds 40 --trace 0

Each run starts child processes one at a time (see worker.py): several that
only set up, to take the median set-up time, then the measured one, which
runs ops for ``--seconds``.  With ``--trace 0`` it runs untraced and the last
stdout line carries the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it runs traced, and runs each prefix op untraced as well; the
last line carries the per-layer metrics, including the tracing overhead on
the prefix ops, and the run is correct only if the traced and untraced
prefix outputs are identical (same digest).
Failing ops are printed on stderr by instance and counted, never skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("dense-positioned", "sparse-select", "verify-area")
SETUP_ONLY_CHILDREN = 4
# a run must end within 180 s; children share what is left of this budget
RUN_BUDGET_S = 170.0


class WorkerFailed(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # one client, no worker threads: no solver pool, single-threaded BLAS
    env.pop("DISKPACK_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise WorkerFailed("run budget exhausted")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the run budget: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below eleven samples there
    is no such percentile and the maximum is returned with none beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _declared(section: str, values: dict[str, float]) -> dict[str, dict]:
    """Every metric BENCHMARK.json declares in ``section``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        setups = [_child(args, deadline, "--setup-only")["setup"]
                  for _ in range(SETUP_ONLY_CHILDREN)]
        child = _child(args, deadline, "--seconds", str(args.seconds),
                       "--trace", str(args.trace))
    except WorkerFailed as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setups.append(child["setup"])
    for f in child["failures"]:
        sys.stderr.write(f"FAILED {args.workload}: {f}\n")

    op_s = child["op_s"]
    value, pct, beyond = tail(op_s)
    attempted = len(op_s) + len(child["untraced_op_s"])
    failed = child["failed"]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(op_s), "op_s_tail_percentile": round(pct, 2), "op_s_tail_beyond": beyond,
        "digest": child["digest"], "setup_samples": len(setups),
    }
    if args.trace:
        plain = child["untraced_op_s"]
        overhead = sum(op_s[:len(plain)]) / sum(plain) - 1.0
        detail["untraced_digest"] = child["untraced_digest"]
        detail["spans_file"] = child["spans_file"]
        correct = failed == 0 and child["untraced_digest"] == child["digest"]
        values = dict(child["layers"])
        values.update({
            "bounds.bound_table.s": statistics.median(s["bound_table_s"] for s in setups),
            "generators.s": statistics.median(s["generators_s"] for s in setups),
            "fail_frac": failed / attempted,
            "area_rel_err_max": child["area_rel_err_max"],
            "trace.overhead": overhead,
        })
        metrics = _declared("per_layer", values)
    else:
        correct = failed == 0
        metrics = _declared("end_to_end", {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_s_p50": statistics.median(op_s),
            "op_s_tail": value,
            "disks_per_s": child["disks"] / sum(op_s),
            "peak_rss_mb": child["peak_rss_mb"],
            "ratio_mean": child["ratio_mean"],
        })
    if not correct:
        sys.stderr.write(f"benchmark output check failed: {failed} of {attempted} ops failed"
                         + ("" if failed else ", traced and untraced digests differ") + "\n")
    print(f"# {args.workload} seed {args.seed}: {len(op_s)} ops, tail = p{pct:.1f} "
          f"({beyond} beyond), digest {detail['digest'][:16]}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
