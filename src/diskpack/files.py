"""Instance and result files: canonical JSON with exact float round-trips.

Floats are serialized with 17 significant digits so parsing returns the
identical double; serialization is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from typing import Any

from .errors import InputError
from .geometry import Point
from .lattice import lattice_of
from .selector import Assignment, CoverageReport, LatticeInfo
from .union_area import DiskSet

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def serialize_instance(disks: DiskSet) -> str:
    # "%.17g" is format(x, ".17g"), and DiskSet holds finite centres only
    centers = ",\n    ".join(["[%.17g, %.17g]"] * len(disks)) % tuple(
        disks.centers_array().ravel().tolist())
    body = f"[\n    {centers}\n  ]" if len(disks) else "[]"
    return ("{\n"
            f'  "schema_version": {SCHEMA_VERSION},\n'
            f'  "radius": {_fmt(disks.radius)},\n'
            f'  "centers": {body}\n'
            "}\n")


def parse_instance(text: str) -> DiskSet:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("instance file must hold a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        return DiskSet(doc["radius"], doc["centers"])
    except (KeyError, InputError) as exc:
        raise InputError(f"malformed instance file: {exc}") from exc


def instance_sha256(disks: DiskSet) -> str:
    """sha256 of the set's instance file, computed once per set and kept with it."""
    return disks._instance_sha256


def _instance_sha256(disks: DiskSet) -> str:
    return hashlib.sha256(serialize_instance(disks).encode()).hexdigest()


def serialize_result(disks: DiskSet, assignment: Assignment, report: CoverageReport,
                     parameters: dict[str, Any] | None = None) -> str:
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "instance_sha256": instance_sha256(disks),
        "solver": assignment.method,
        "parameters": parameters or {},
        "k": assignment.k,
        "labels": list(assignment.labels),
        "lattice": None,
        "report": {
            "union_area": report.union_area,
            "selected_union_area": report.selected_union_area,
            "ratio": report.ratio,
            "guarantee": report.guarantee,
            "lattice_points_hit": report.lattice_points_hit,
            "positioning_depth": report.positioning_depth,
            "cell_area_bound": report.cell_area_bound,
        },
    }
    if assignment.lattice is not None:
        doc["lattice"] = {
            "kind": assignment.lattice.kind,
            "side": assignment.lattice.side,
            "offset": [assignment.lattice.offset[0], assignment.lattice.offset[1]],
        }
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=_reject_unknown) + "\n"


def _reject_unknown(obj: Any) -> Any:
    raise InputError(f"cannot serialize {type(obj).__name__}")


def parse_result(text: str) -> tuple[Assignment, dict[str, Any]]:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"result file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError("unsupported or malformed result file")
    try:
        labels = tuple(doc["labels"])
        k = doc["k"]
        method = str(doc["solver"])
        lattice = None
        if doc.get("lattice") is not None:
            lat = doc["lattice"]
            lattice = LatticeInfo(str(lat["kind"]), float(lat["side"]),
                                  Point(float(lat["offset"][0]), float(lat["offset"][1])))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed result file: {exc}") from exc
    # json.loads gives exactly int for a JSON integer; int() would read 1.5,
    # "2" or true as some label, and verify would check another assignment
    if type(k) is not int or any(type(c) is not int for c in labels if c is not None):
        raise InputError("malformed result file: a label or k is not an integer")
    report = doc.get("report", {})
    if not isinstance(report, dict):
        raise InputError("malformed result file: report is not an object")
    for key in ("union_area", "selected_union_area", "ratio"):
        value = report.get(key)
        # json.loads gives exactly int or float for a JSON number; verify
        # compares float(value), which a NaN passes and a huge int breaks
        if value is not None and (type(value) not in (int, float)
                                  or not abs(value) <= sys.float_info.max):
            raise InputError(f"malformed result file: report {key} is not a finite number")
    if lattice is not None:
        # rejects an unknown kind and a non-finite or non-positive side
        lattice_of(lattice.kind, lattice.side, lattice.offset)
    return Assignment(labels, k, method, lattice), doc
