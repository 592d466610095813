"""Spans for the traced benchmark run, recorded from outside the program.

``install`` replaces public diskpack names the pipeline calls with wrappers
that record a span (name, start, end, parent span, op id) and return the
original result unchanged.  High-frequency calls (disk/cell overlap, lattice
point enumeration) are not spans: their count and time are added to the
enclosing span.  A span's self time is its duration minus its child spans and
the aggregated calls made inside it.  Names missing from the program are
skipped, so the trace keeps working when internals change; their metrics
then read 0.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

import diskpack.files
import diskpack.lattice


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: Optional[int]
    start: float
    end: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    # aggregated calls: name -> [calls, seconds, items]
    agg: dict[str, list] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: Optional[int] = None
        self._undo: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        if op is not None:
            self._op = op
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self._op, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name: str, fn: Callable, count: Optional[Callable]):
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    s.counters[key] = s.counters.get(key, 0) + value
            return result
        return wrapper

    def _agg_wrapper(self, name: str, fn: Callable, items: Optional[Callable]):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            if self._stack:
                entry = self._stack[-1].agg.setdefault(name, [0, 0.0, 0])
                entry[0] += 1
                entry[1] += dt
                if items is not None:
                    entry[2] += items(result)
            return result
        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, dp) -> None:
        """Wrap the public names the benchmark pipeline reaches."""
        selector = getattr(dp, "selector", None)
        spans = [
            (selector, "translate_to_cell", "arrangement.translate_to_cell",
             lambda a, k, r: {"calls": 1, "copies": len(r)}),
            (selector, "max_distinct_translate_depth",
             "arrangement.max_distinct_translate_depth",
             lambda a, k, r: {"calls": 1, "depth": getattr(r, "distinct_translates", 0)}),
            (selector, "exact_union_area", "union_area.exact", None),
            (dp, "exact_union_area", "union_area.exact", None),
            (dp, "monte_carlo_union_area", "union_area.mc",
             lambda a, k, r: {"samples": k.get("samples", a[1] if len(a) > 1 else 0)}),
            (dp, "verify", "selector.verify", None),
            (diskpack.files, "serialize_result", "files.serialize",
             lambda a, k, r: {"bytes": len(r.encode())}),
            (diskpack.files, "parse_result", "files.parse", None),
        ] + [(dp, name, f"selector.{name}", None) for name in (
            "solve_basic_3colour", "solve_rado_1colour", "solve_square_2colour",
            "solve_weighted_3colour", "solve_kcolour")]
        for owner, attr, name, count in spans:
            if hasattr(owner, attr):
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), count))
        if hasattr(selector, "circle_polygon_intersection_area"):
            self._patch(selector, "circle_polygon_intersection_area",
                        self._agg_wrapper("geometry.overlap",
                                          selector.circle_polygon_intersection_area, None))
        for cls in vars(diskpack.lattice).values():
            if isinstance(cls, type) and "points_in_box" in vars(cls):
                self._patch(cls, "points_in_box",
                            self._agg_wrapper("lattice.points_in_box", cls.points_in_box, len))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                d = asdict(s)
                d["start"] -= t0
                d["end"] -= t0
                f.write(json.dumps(d) + "\n")


def layer_of(name: str) -> str:
    if name == "op":
        return "bench"
    if name == "selector.verify":
        return "verify"
    return name.split(".")[0]


LAYERS = ("arrangement", "selector", "lattice", "geometry", "union_area", "verify",
          "files", "bench")


def summarize(spans: list[Span], ops: int, hits: int) -> dict[str, float]:
    """Per-layer metrics, per op where they are totals, from one traced run."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    incl: dict[str, float] = {}
    count: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    agg: dict[str, list] = {}
    for s in spans:
        dur = s.end - s.start
        agg_s = 0.0
        for name, (calls, secs, items) in s.agg.items():
            a = agg.setdefault(name, [0, 0.0, 0])
            a[0] += calls
            a[1] += secs
            a[2] += items
            agg_s += secs
            self_by_layer[layer_of(name)] += secs
        self_by_layer[layer_of(s.name)] += dur - child_time[s.id] - agg_s
        incl[s.name] = incl.get(s.name, 0.0) + dur
        for c, v in s.counters.items():
            count[f"{s.name}.{c}"] = count.get(f"{s.name}.{c}", 0) + v
    op_total = incl.get("op", 0.0)
    ops = max(ops, 1)

    def per_call(name: str, counter: str) -> float:
        calls = count.get(f"{name}.calls", 0)
        return count.get(f"{name}.{counter}", 0) / calls if calls else 0.0

    pib = agg.get("lattice.points_in_box", [0, 0.0, 0])
    ovl = agg.get("geometry.overlap", [0, 0.0, 0])
    exact_calls = sum(1 for s in spans if s.name == "union_area.exact")
    mc_s = incl.get("union_area.mc", 0.0)
    out = {
        "arrangement.max_distinct_translate_depth.s":
            incl.get("arrangement.max_distinct_translate_depth", 0.0) / ops,
        "arrangement.translate_to_cell.s": incl.get("arrangement.translate_to_cell", 0.0) / ops,
        "arrangement.copies": per_call("arrangement.translate_to_cell", "copies"),
        "arrangement.depth": per_call("arrangement.max_distinct_translate_depth", "depth"),
        "lattice.points_in_box.calls": pib[0] / ops,
        "lattice.points_in_box.s": pib[1] / ops,
        "lattice.points": pib[2] / ops,
        "geometry.overlap.calls": ovl[0] / ops,
        "geometry.overlap.s": ovl[1] / ops,
        "selector.hits": hits / ops,
        "selector.hit_ratio": hits / pib[2] if pib[2] else 0.0,
        "selector.self_s": self_by_layer["selector"] / ops,
        "union_area.exact.calls": exact_calls / ops,
        "union_area.exact.s": incl.get("union_area.exact", 0.0) / ops,
        "union_area.mc.samples_per_s":
            count.get("union_area.mc.samples", 0) / mc_s if mc_s > 0.0 else 0.0,
        "selector.verify.s": incl.get("selector.verify", 0.0) / ops,
        "files.serialize.s": incl.get("files.serialize", 0.0) / ops,
        "files.parse.s": incl.get("files.parse", 0.0) / ops,
        "files.bytes": count.get("files.serialize.bytes", 0) / ops,
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = self_by_layer[layer] / op_total if op_total > 0.0 else 0.0
    return out
