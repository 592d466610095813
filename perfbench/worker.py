"""One benchmark child process: set up a workload, run its ops, print a JSON line.

Started by run.py, one child at a time, so that ``ru_maxrss`` (a lifetime
high-water mark) belongs to one workload.  Modes:

  --setup-only      import, generate the pool, cold bound_table(), then stop
  --seconds S       run ops back to back for S seconds, and at least the
                    workload's prefix ops (the digest set)
  --trace 1         record spans around the program's public names; the
                    prefix ops also run untraced, for the overhead and to
                    compare outputs

diskpack is imported from ``src/`` of the checkout this file sits in, never
from anywhere else.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def _setup(workload_name: str, seed: int):
    import workloads  # imports diskpack
    dp = workloads.dp
    if not Path(dp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"diskpack was imported from {dp.__file__}, not from {SRC}")
    t = time.perf_counter()
    pool = workloads.WORKLOADS[workload_name](seed)
    generators_s = time.perf_counter() - t
    t = time.perf_counter()
    dp.bound_table()
    bound_table_s = time.perf_counter() - t
    setup = {"setup_s": time.perf_counter() - T0,
             "generators_s": generators_s, "bound_table_s": bound_table_s}
    return workloads, pool, setup


def _timed(workloads, item, tracer, op):
    t0 = time.perf_counter()
    if tracer is None:
        res = workloads.run_item(item)
    else:
        tracer.install(workloads.dp)
        try:
            with tracer.span("op", op=op):
                res = workloads.run_item(item)
        finally:
            tracer.uninstall()
    res.seconds = time.perf_counter() - t0
    return res


def _run(workloads, pool, seconds: float, tracer):
    """Ops back to back for ``seconds``, and at least the prefix.

    When tracing, each prefix op also runs untraced right next to its traced
    run, in alternating order, so both see the same machine state: their
    times give the tracing overhead and their outputs must be identical.
    """
    results, untraced = [], []
    start = time.perf_counter()
    i = 0
    while i < workloads.PREFIX or time.perf_counter() - start < seconds:
        item = pool[i % len(pool)]
        twin = tracer is not None and i < workloads.PREFIX
        if twin and i % 2 == 0:
            untraced.append(_timed(workloads, item, None, i))
        results.append(_timed(workloads, item, tracer, i))
        if twin and i % 2 == 1:
            untraced.append(_timed(workloads, item, None, i))
        i += 1
    return results, untraced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads, pool, setup = _setup(args.workload, args.seed)
    out = {"setup": setup}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        results, untraced = _run(workloads, pool, args.seconds, tracer)
        ratios = [r for res in results for r in res.ratios]
        out.update({
            "op_s": [r.seconds for r in results],
            "disks": sum(r.disks for r in results),
            "untraced_op_s": [r.seconds for r in untraced],
            "untraced_digest": workloads.digest(untraced),
            "failed": sum(1 for r in results + untraced if r.failures),
            "failures": [f for r in results + untraced for f in r.failures],
            "ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
            "digest": workloads.digest(results[:workloads.PREFIX]),
            "area_rel_err_max": workloads.area_rel_err_max(results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        if tracer is not None:
            out["layers"] = tracing.summarize(tracer.spans, len(results),
                                              sum(r.hits for r in results))
            spans_dir = HERE / "out"
            spans_dir.mkdir(exist_ok=True)
            spans_file = spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
            out["spans_file"] = str(spans_file.relative_to(HERE.parent))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
