"""Reachability audit: the statements of ``src/weldlab`` that nothing runs.

    python3 scripts/reach.py

The script traces line events in ``src/weldlab`` (``sys.settrace``) while
it runs ``tests/`` in-process with pytest, then one pass of every
perfbench item: each workload's set-up with seed 1, then each item's
``run()``.  It then prints, one a
line, each statement of the package that never ran (function and class
definitions, docstrings, ``global`` and ``nonlocal`` are not statements
that run).  A compound statement ran if a line of its header ran or any
statement of its body did.  Code that only runs in a worker process of
``harness.discovery_rate(jobs > 1)`` or in a subprocess is not seen.

It edits nothing: the tests run as they are, and perfbench is imported,
not changed.  The whole pass takes about a minute on 2 cores.
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weldlab"


def _tracer(hits: dict[str, set[int]]):
    """A ``settrace`` function that records, per package file, the lines run."""
    files = {str(p.resolve()): hits.setdefault(str(p.resolve()), set())
             for p in PACKAGE.glob("*.py")}
    local_by_name: dict[str, object] = {}

    def local_for(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        local = local_by_name.get(name, False)
        if local is False:
            lines = files.get(os.path.realpath(name))
            local = local_by_name[name] = None if lines is None else local_for(lines)
        return local

    return trace


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _bodies(node: ast.stmt) -> list[list[ast.stmt]]:
    out = [getattr(node, f) for f in ("body", "orelse", "finalbody") if getattr(node, f, None)]
    out += [h.body for h in getattr(node, "handlers", ())]
    out += [c.body for c in getattr(node, "cases", ())]
    return out


def unrun(tree: ast.Module, lines: set[int]) -> list[ast.stmt]:
    """The statements of ``tree`` no line of ``lines`` shows running."""
    missed: list[ast.stmt] = []

    def ran(node: ast.stmt) -> bool:
        """Whether ``node`` ran; records the statements under it that did not."""
        bodies = _bodies(node)
        header_end = min((b[0].lineno for b in bodies), default=node.end_lineno + 1) - 1
        here = any(line in lines for line in range(node.lineno, max(header_end, node.lineno) + 1))
        inner = [ran_all(b) for b in bodies]
        return here or any(inner)

    def ran_all(body: list[ast.stmt], defines: bool = False) -> bool:
        any_ran = False
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                ran_all(node.body, defines=True)
            elif isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    i == 0 and defines and _is_docstring(node)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            elif ran(node):
                any_ran = True
            else:
                missed.append(node)
        return any_ran

    ran_all(tree.body, defines=True)
    # a statement inside one that never ran is named once, by its outermost
    outer = [n for n in missed if not any(
        m is not n and m.lineno <= n.lineno and n.end_lineno <= m.end_lineno for m in missed)]
    return sorted(outer, key=lambda n: n.lineno)


def _run_bench() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as W
    for name, setup in W.SETUP_BY_WORKLOAD.items():
        items = setup(1)
        for item in items:
            item.run()
        print(f"perfbench {name}: {len(items)} items run", file=sys.stderr, flush=True)


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    hits: dict[str, set[int]] = {}
    sys.settrace(_tracer(hits))
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        _run_bench()
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"the test suite did not pass (pytest exit {code})", file=sys.stderr)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        for node in unrun(ast.parse(text), hits[str(path.resolve())]):
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {source[node.lineno - 1].strip()}")
            count += 1
    print(f"{count} statements never ran")
    return 1 if code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
