"""Every function, class, method and defaulted parameter in the package has
a caller outside tests.

A name or a parameter only tests use is test tooling and belongs in
``tests/``; the public API the lab keeps for its users is listed with its
reason.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "circuits.format_circuit": "writes the circuit text format that parse reads",
    "statevec.run_hybrid": "the sampled executor for hybrid circuits",
    "statevec.run_jozsa": "the sampled executor for Jozsa circuits",
    "bottleneck.estimate_membership_probability": "criterion 9's estimator, and "
                                                  "the base of the Rao-Blackwell plan",
}

PUBLIC_PARAMS = {
    "statevec.run_hybrid(handle)": "the caller's counting handle, for users who "
                                   "count the executor's queries",
    "statevec.run_jozsa(handle)": "as run_hybrid's",
    "cli.main(argv)": "the console script passes none and reads sys.argv; "
                      "argv is how a program runs the CLI in-process",
}


def _modules():
    for path in sorted((ROOT / "src" / "weldlab").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _defined() -> list[str]:
    """module.name of each top-level function and class, module.Class.method
    of each method that is not a dunder."""
    out = []
    for stem, tree in _modules():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append(f"{stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{stem}.{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def _outside_tests():
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _referenced() -> set[str]:
    """Every name and attribute read in src/, scripts/ and perfbench/."""
    names = set()
    for tree in _outside_tests():
        for node in ast.walk(tree):
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


def _defaulted():
    """(label, called name, offset, positional index or None, parameter) of
    each defaulted parameter of a top-level function or method.  The index of
    a method's parameter counts ``self`` (or ``cls``), which a call through an
    instance or class passes implicitly: its offset is 1.  An ``__init__`` is
    called by its class's name."""
    for stem, tree in _modules():
        for node in tree.body:
            defs = [(node, node.name, 0, node.name)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    defs.append((item, called, 0 if static else 1,
                                 f"{node.name}.{item.name}"))
            for fn, called, offset, qual in defs:
                a = fn.args
                positional = a.posonlyargs + a.args
                for p, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                        len(positional) - len(a.defaults)):
                    yield f"{stem}.{qual}({arg.arg})", called, offset, p, arg.arg
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield f"{stem}.{qual}({arg.arg})", called, offset, None, arg.arg


def _calls() -> dict[str, list[tuple[int, bool, set[str]]]]:
    """Called name -> (positional count, whether *args or **kwargs may pass
    anything, keyword names) of each call in src/, scripts/ and perfbench/."""
    out: dict[str, list] = {}
    for tree in _outside_tests():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is None:
                continue
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            out.setdefault(name, []).append(
                (len(node.args), spread, {k.arg for k in node.keywords}))
    return out


def test_every_defaulted_parameter_is_passed_outside_tests():
    calls = _calls()
    unset = []
    for label, called, offset, p, param in _defaulted():
        if label in PUBLIC_PARAMS:
            continue
        if not any(spread or param in kws or (p is not None and npos + offset > p)
                   for npos, spread, kws in calls.get(called, ())):
            unset.append(label)
    assert not unset, "set only by tests, or never: " + ", ".join(unset)


def test_every_exemption_names_a_package_name():
    # an exemption outlives the code it kept only until this test runs
    stale = sorted(set(PUBLIC) - set(_defined()))
    stale += sorted(set(PUBLIC_PARAMS) - {label for label, *_ in _defaulted()})
    assert not stale, "exempt, but not in src/weldlab: " + ", ".join(stale)
