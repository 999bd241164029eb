"""Every function, class and method in the package has a caller outside tests.

A name only tests call is test tooling and belongs in ``tests/``; the
public API the lab keeps for its users is listed with its reason.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "tree.save_tree": "the tree file format, for users who keep a tree",
    "tree.load_tree": "reads what save_tree writes",
    "circuits.format_circuit": "writes the circuit text format that parse reads",
    "statevec.run_hybrid": "the sampled executor for hybrid circuits",
    "statevec.run_jozsa": "the sampled executor for Jozsa circuits",
    "bottleneck.estimate_membership_probability": "criterion 9's estimator, and "
                                                  "the base of the Rao-Blackwell plan",
}


def _defined() -> list[str]:
    """module.name of each top-level function and class, module.Class.method
    of each method that is not a dunder."""
    out = []
    for path in sorted((ROOT / "src" / "weldlab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def _referenced() -> set[str]:
    """Every name and attribute read in src/, scripts/ and perfbench/."""
    names = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_package_name_has_a_caller_outside_tests():
    referenced = _referenced()
    unused = [name for name in _defined()
              if name.rsplit(".", 1)[-1] not in referenced and name not in PUBLIC]
    assert not unused, "called only from tests: " + ", ".join(unused)
