"""Stored reference outputs and the comparisons made against them.

The reference files were recorded from the package by
``record_reference.py``; every run compares its outputs with them.
Integer, boolean, string and null fields must match exactly; float fields
(probability masses such as outlier mass, fidelity and estimator ratios)
within ``TOL``; output distributions within ``TOL`` total variation, the
executor-vs-reference tolerance of the package's own exactness checks.
Keys present in the reference must be present in the output; keys the
output adds are not compared.
"""
from __future__ import annotations

import json
from pathlib import Path

TOL = 1e-10
DECIMALS = 13               # stored floats are rounded; 256 * 5e-14 stays far below TOL
DIR = Path(__file__).resolve().parent / "reference"


def path_for(workload: str) -> Path:
    return DIR / f"{workload}.json"


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rounded(obj):
    if isinstance(obj, float):
        return round(obj, DECIMALS)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def save(path: Path, doc: dict) -> None:
    """One item per line, so a re-recorded reference diffs item by item."""
    items = _rounded(doc["items"])
    head = {k: v for k, v in doc.items() if k != "items"}
    lines = [json.dumps(head, sort_keys=True)[:-1] + ', "items": {']
    for i, key in enumerate(sorted(items)):
        sep = "," if i + 1 < len(items) else ""
        lines.append(f"{json.dumps(key)}: {json.dumps(items[key], sort_keys=True)}{sep}")
    lines.append("}}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dist_to_json(probs: dict[int, float]) -> list[list]:
    return [[int(k), float(p)] for k, p in sorted(probs.items())]


def tv(probs: dict[int, float], stored: list[list]) -> float:
    ref = {int(k): p for k, p in stored}
    keys = set(probs) | set(ref)
    return 0.5 * sum(abs(probs.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)


def mismatch(actual, expected, path: str = "$") -> str | None:
    """The first place ``actual`` departs from ``expected``, or None."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object, got {actual!r}"
        for key in sorted(expected):
            if key not in actual:
                return f"{path}.{key}: missing"
            found = mismatch(actual[key], expected[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected {len(expected)} entries, got {actual!r}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            found = mismatch(a, e, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        return None if abs(actual - expected) <= TOL else f"{path}: {actual!r} != {expected!r}"
    if type(actual) is not type(expected) or actual != expected:
        return f"{path}: {actual!r} != {expected!r}"
    return None
