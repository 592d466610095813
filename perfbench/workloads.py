"""Workloads of the diskpack benchmark and the correctness gate every op passes.

A workload is a deterministic pool of items built from the run seed.  One op
pushes one item through the workload's pipeline: each solve is followed by the
gate (result-file round trip, ``verify()`` on the parsed result, ratio against
the guarantee), so an op's time includes checking its own output.  The
benchmark only calls diskpack's public functions, and always through a module
attribute (``dp.verify``), so the traced run can wrap them from outside.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import diskpack as dp
import diskpack.files as dpfiles

# an MC estimate further than this many standard errors from the exact area
# fails the op; a correct sampler trips it about once in 5e8 checks
MC_SIGMAS = 6.0
# relative tolerance between the areas solve reports and verify() recomputes
REPORT_RTOL = 1e-9

# every run completes at least this many ops; their outputs form the digest
PREFIX = 8

SOLVERS: dict[str, Callable] = {
    "basic3": lambda d: dp.solve_basic_3colour(d),
    "rado1": lambda d: dp.solve_rado_1colour(d),
    "square2": lambda d: dp.solve_square_2colour(d),
    "weighted3": lambda d: dp.solve_weighted_3colour(d, dp.OffsetSampling(grid_resolution=32)),
    "loeschian7": lambda d: dp.solve_kcolour(d, 7),
}


@dataclass(frozen=True)
class Task:
    solver: str
    disks: dp.DiskSet
    # tasks sharing a pair key solve translates of one instance
    pair: Optional[int] = None


@dataclass(frozen=True)
class MCCheck:
    disks: dp.DiskSet
    samples: int
    seed: int


@dataclass(frozen=True)
class Item:
    label: str
    tasks: tuple[Task, ...]
    mc: Optional[MCCheck] = None

    @property
    def disks(self) -> int:
        return sum(len(t.disks) for t in self.tasks)


@dataclass
class OpResult:
    disks: int
    ratios: list[float] = field(default_factory=list)
    hits: int = 0
    texts: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    areas: dict[int, float] = field(default_factory=dict)
    seconds: float = 0.0


def derive_seed(seed: int, workload: str, index: int, part: str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}/{part}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _box(n: int) -> float:
    # the family `diskpack bench` and the ROADMAP baseline use
    return 1.4 * math.sqrt(n) + 2.0


def _dense_positioned(seed: int) -> list[Item]:
    # random instances: after wrapping, every copy lands in one cell, so the
    # arrangement sweep does almost all the work; both lattice kinds are used
    n = 200
    items = []
    for i in range(48):
        d = dp.gen_random(n, _box(n), derive_seed(seed, "dense-positioned", i, "inst"))
        items.append(Item(f"dense-positioned#{i}",
                          tuple(Task(s, d) for s in ("basic3", "rado1", "square2"))))
    return items


def _sparse_select(seed: int) -> list[Item]:
    # few clustered disks over a large box, plus a small weighted solve: the
    # cost follows bounding-box area and the number of offsets, not n.  Twenty
    # clusters keep the bounding-box area within about 10 % across instances.
    items = []
    for i in range(48):
        clustered = dp.gen_clustered(60, 20, 270.0, 2.0,
                                     derive_seed(seed, "sparse-select", i, "clustered"))
        small = dp.gen_random(12, _box(12), derive_seed(seed, "sparse-select", i, "weighted"))
        items.append(Item(f"sparse-select#{i}",
                          (Task("basic3", clustered), Task("square2", clustered),
                           Task("weighted3", small))))
    return items


SHIFT = 1e6


def _verify_area(seed: int) -> list[Item]:
    # loeschian7 does no arrangement work, so union area, verify() and the
    # files layer dominate; each instance appears as is and translated
    n = 2000
    items = []
    for i in range(20):
        d = dp.gen_random(n, _box(n), derive_seed(seed, "verify-area", i, "inst"))
        moved = dp.DiskSet(d.radius, tuple((x + SHIFT, y + SHIFT) for x, y in d.centers))
        small = dp.gen_random(20, _box(20), derive_seed(seed, "verify-area", i, "mc"))
        for tag, disks in (("", d), ("+1e6", moved)):
            items.append(Item(f"verify-area#{i}{tag}", (Task("loeschian7", disks, pair=i),),
                              MCCheck(small, 100_000, derive_seed(seed, "verify-area", i, "mc-seed"))))
    return items


# workload name -> pool builder taking the run seed
WORKLOADS: dict[str, Callable[[int], list[Item]]] = {
    "dense-positioned": _dense_positioned,
    "sparse-select": _sparse_select,
    "verify-area": _verify_area,
}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REPORT_RTOL * max(1.0, abs(a), abs(b))


def _check_task(task: Task):
    """Solve, round-trip the result file and verify the parsed result."""
    assignment, report = SOLVERS[task.solver](task.disks)
    text = dpfiles.serialize_result(task.disks, assignment, report)
    parsed, doc = dpfiles.parse_result(text)
    problems = []
    if parsed != assignment:
        problems.append("result file does not round-trip the assignment")
    stored = doc.get("report")
    if not isinstance(stored, dict) or any(
            stored[k] != getattr(report, k, None) for k in stored):
        problems.append("result file does not round-trip the coverage report")
    checked = dp.verify(task.disks, parsed)
    if checked.ratio < checked.guarantee:
        problems.append(f"ratio {checked.ratio!r} below guarantee {checked.guarantee!r}")
    if not (_close(checked.union_area, report.union_area)
            and _close(checked.selected_union_area, report.selected_union_area)):
        problems.append("verify() disagrees with the solver's coverage report")
    return text, report, problems


def run_item(item: Item) -> OpResult:
    """Push one item through its pipeline; failures are recorded, never raised."""
    out = OpResult(disks=item.disks)
    for task in item.tasks:
        where = f"{item.label} {task.solver}"
        try:
            text, report, problems = _check_task(task)
        except Exception as exc:  # every failing instance is counted and reported
            out.failures.append(f"{where}: {type(exc).__name__}: {exc}")
            continue
        out.texts.append(text)
        out.ratios.append(report.ratio)
        out.hits += report.lattice_points_hit
        if task.pair is not None:
            out.areas[task.pair] = report.union_area
        out.failures.extend(f"{where}: {p}" for p in problems)
    if item.mc is not None:
        mc = item.mc
        try:
            est = dp.monte_carlo_union_area(mc.disks, mc.samples, mc.seed)
            exact = dp.exact_union_area(mc.disks)
        except Exception as exc:  # as above
            out.failures.append(f"{item.label} mc: {type(exc).__name__}: {exc}")
        else:
            out.texts.append(f"mc {est.area!r} {est.stderr!r} {exact!r}\n")
            if abs(est.area - exact) > MC_SIGMAS * est.stderr:
                out.failures.append(f"{item.label} mc: estimate {est.area!r} is more than "
                                    f"{MC_SIGMAS} standard errors from exact {exact!r}")
    if out.failures:
        out.texts.append("".join(f"FAIL {f}\n" for f in out.failures))
    return out


def digest(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        for t in r.texts:
            h.update(t.encode())
    return h.hexdigest()


def area_rel_err_max(results: list[OpResult]) -> float:
    """Largest relative union-area difference between translates of one instance."""
    by_pair: dict[int, set[float]] = {}
    for r in results:
        for key, area in r.areas.items():
            by_pair.setdefault(key, set()).add(area)
    errs = [(max(a) - min(a)) / min(a) for a in by_pair.values() if len(a) > 1]
    return max(errs, default=0.0)
