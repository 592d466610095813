"""Command-line surface.

Exit codes: 0 success, 2 invalid input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import __version__
from .bounds import bound_table, delta_k, kcolour_guarantee, weighted_bound_constant
from .errors import InputError, VerificationError
from .files import (instance_sha256, parse_instance, parse_result,
                    serialize_instance, serialize_result)
from .generators import (gen_chain, gen_clustered, gen_depth_reduction,
                         gen_random, gen_spirograph)
from .lattice import lattice_of
from .render import render_svg
from .selector import (OffsetSampling, solve_basic_3colour, solve_kcolour,
                       solve_rado_1colour, solve_square_2colour,
                       solve_weighted_3colour, verify)
from .union_area import exact_union_area, monte_carlo_union_area


def _read(path: str | None, what: str) -> str:
    if path is None:
        raise InputError(f"no {what} file given")
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc


def _read_instance(path: str):
    return parse_instance(_read(path, "instance"))


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_generate(args) -> int:
    if args.kind == "random":
        disks = gen_random(args.n, args.box, args.seed)
    elif args.kind == "spirograph":
        disks = gen_spirograph(args.n, args.epsilon, args.seed)
    elif args.kind == "clustered":
        disks = gen_clustered(args.n, args.clusters, args.box, args.spread, args.seed)
    elif args.kind == "chain":
        disks = gen_chain(args.n, args.spacing)
    else:  # depth-reduction over an existing instance
        disks = gen_depth_reduction(_read_instance(args.instance))
    _write(args.output, serialize_instance(disks))
    return 0


def _cmd_solve(args) -> int:
    disks = _read_instance(args.instance)
    params: dict = {"colours": args.colours, "method": args.method}
    if args.colours == "3" and args.method == "weighted":
        sampling = OffsetSampling(grid_resolution=args.grid)
        assignment, report = solve_weighted_3colour(disks, sampling)
        params["grid"] = args.grid
    elif args.colours == "3":
        assignment, report = solve_basic_3colour(disks)
    elif args.colours == "1":
        assignment, report = solve_rado_1colour(disks)
    elif args.colours == "2":
        assignment, report = solve_square_2colour(disks)
    else:
        if args.k is None:
            raise InputError("--colours k requires --k")
        assignment, report = solve_kcolour(disks, args.k)
        params["k"] = args.k
    _write(args.output, serialize_result(disks, assignment, report, params))
    sys.stderr.write(
        f"union={report.union_area:.6f} selected={report.selected_union_area:.6f} "
        f"ratio={report.ratio:.6f} guarantee={report.guarantee:.6f} "
        f"hit={report.lattice_points_hit}\n")
    return 0


def _cmd_verify(args) -> int:
    disks = _read_instance(args.instance)
    assignment, doc = parse_result(_read(args.result, "result"))
    if doc.get("instance_sha256") != instance_sha256(disks):
        sys.stderr.write("verify: result does not reference this instance\n")
        return 3
    try:
        report = verify(disks, assignment)
    except VerificationError as exc:
        sys.stderr.write(f"verify: {exc}\n")
        return 3
    stored = doc.get("report", {})
    for key, fresh in (("union_area", report.union_area),
                       ("selected_union_area", report.selected_union_area),
                       ("ratio", report.ratio)):
        old = stored.get(key)
        if old is not None and abs(float(old) - fresh) > 1e-6 * max(1.0, abs(fresh)):
            sys.stderr.write(f"verify: stored {key}={old} but recomputed {fresh}\n")
            return 3
    print(f"ok ratio={report.ratio:.6f} selected={report.lattice_points_hit}")
    return 0


def _cmd_area(args) -> int:
    disks = _read_instance(args.instance)
    exact = exact_union_area(disks)
    print(f"exact {exact:.12f}")
    if args.mc:
        est = monte_carlo_union_area(disks, args.mc, args.seed)
        print(f"monte-carlo {est.area:.12f} stderr {est.stderr:.12f}")
    return 0


def _cmd_bounds(_args) -> int:
    t = bound_table()
    print(f"c1_lb              {t.c1_lb:.10f}  (1/{1.0 / t.c1_lb:.5f})")
    print(f"c3_basic           {t.c3_basic:.10f}  (1/{1.0 / t.c3_basic:.5f})")
    print(f"c3_weighted        {t.c3_weighted:.10f}  (1/{1.0 / t.c3_weighted:.5f})")
    print(f"c2_basic           {t.c2_basic:.10f}  (1/{1.0 / t.c2_basic:.5f})")
    print(f"c3_upper           {t.c3_upper:.10f}  (1/{1.0 / t.c3_upper:.5f})")
    print(f"min_hex_overlap    {t.min_hex_overlap:.10f}")
    print(f"min_square_overlap {t.min_square_overlap:.10f}")
    print(f"weight_integral    {weighted_bound_constant():.10f}")
    for k in (3, 4, 7, 12):
        print(f"delta_k({k:<2d})        {delta_k(k):.10f}  guarantee "
              f"{kcolour_guarantee(k):.10f}")
    return 0


def _cmd_render(args) -> int:
    disks = _read_instance(args.instance)
    assignment = None
    lattice = None
    if args.result:
        assignment, _ = parse_result(_read(args.result, "result"))
        info = assignment.lattice
        if info is not None and args.lattice:
            lattice = lattice_of(info.kind, info.side, info.offset)
    _write(args.output, render_svg(disks, assignment, lattice,
                                   show_cells=args.cells))
    return 0


def _cmd_bench(args) -> int:
    for n in args.sizes:
        disks = gen_random(n, max(4.0, 1.4 * math.sqrt(n) + 2.0), args.seed)
        t0 = time.perf_counter()
        _, report = solve_basic_3colour(disks)
        dt = time.perf_counter() - t0
        print(f"n={n:<5d} solve_basic_3colour {dt * 1000.0:8.1f} ms  "
              f"ratio={report.ratio:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskpack",
        description="Select and k-colour unit disks with lattice coverage guarantees.")
    ap.add_argument("--version", action="version", version=f"diskpack {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an instance file")
    g.add_argument("kind", choices=["random", "spirograph", "clustered", "chain",
                                    "depth-reduction"])
    g.add_argument("-n", type=int, default=20)
    g.add_argument("--box", type=float, default=10.0)
    g.add_argument("--epsilon", type=float, default=0.01)
    g.add_argument("--clusters", type=int, default=3)
    g.add_argument("--spread", type=float, default=2.0)
    g.add_argument("--spacing", type=float, default=1.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-i", "--instance", help="input instance for depth-reduction")
    g.add_argument("-o", "--output", default="-")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="run a solver on an instance")
    s.add_argument("-i", "--instance", required=True)
    s.add_argument("--colours", choices=["1", "2", "3", "k"], default="3",
                   help="colour count; 'k' needs --k and a Loeschian value")
    s.add_argument("--method", choices=["basic", "weighted"], default="basic")
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--grid", type=int, default=256,
                   help="offset grid resolution for --method weighted")
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="check a result file against its instance")
    v.add_argument("-i", "--instance", required=True)
    v.add_argument("-r", "--result", required=True)
    v.set_defaults(func=_cmd_verify)

    a = sub.add_parser("area", help="exact union area, optionally Monte Carlo")
    a.add_argument("-i", "--instance", required=True)
    a.add_argument("--mc", type=int, default=0, help="Monte Carlo sample count")
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=_cmd_area)

    b = sub.add_parser("bounds", help="print the table of theoretical constants")
    b.set_defaults(func=_cmd_bounds)

    r = sub.add_parser("render", help="write an SVG of an instance")
    r.add_argument("-i", "--instance", required=True)
    r.add_argument("-r", "--result")
    r.add_argument("--lattice", action="store_true")
    r.add_argument("--cells", action="store_true")
    r.add_argument("-o", "--output", default="-")
    r.set_defaults(func=_cmd_render)

    be = sub.add_parser("bench", help="timing smoke test")
    be.add_argument("--sizes", type=int, nargs="+", default=[100, 200])
    be.add_argument("--seed", type=int, default=42)
    be.set_defaults(func=_cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
