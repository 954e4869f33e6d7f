"""Print each statement of ``src/psidemod`` that no tier-1 test runs.

Usage, from the repository root:

    python3 tools/untested_statements.py

It runs the tier-1 suite in this process (``pytest --hypothesis-seed 0``,
so two runs draw the same examples) under a ``sys.settrace`` line tracer,
then prints every statement, as ``path:line: source``, whose lines the suite
never reached.  The suite's own report goes to stderr, so stdout holds only
the list.  Statements come from ``ast``; docstrings, bare annotations,
``global`` statements and the ``if __name__ == "__main__":`` block are
skipped, since none of them is a step of the program a test could reach.
A compound statement (``if``, ``for``, ``def``, ...) counts as run when its
header runs; its body's statements are listed on their own.

The report is informational: the exit status is 0 whatever it finds, and
whatever the tests themselves report.
"""

from __future__ import annotations

import ast
import contextlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "psidemod"


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _is_main_guard(node) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and len(test.comparators) == 1 and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def _header_lines(node) -> range:
    """The lines a statement runs on before its body: all of a simple
    statement, decorators and header of a compound one."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(node.lineno, body[0].lineno - 1) + 1)
    return range(start, node.end_lineno + 1)


def statements(tree: ast.Module):
    """(first line, header lines) of every statement the report counts."""
    found = []

    def visit(parent):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for node in getattr(parent, field, []):
                if isinstance(node, (ast.ExceptHandler, ast.match_case)):
                    visit(node)
                    continue
                if (_is_docstring(node, parent) or _is_main_guard(node)
                        or isinstance(node, ast.Global)
                        or (isinstance(node, ast.AnnAssign) and node.value is None)):
                    continue
                found.append((node.lineno, _header_lines(node)))
                visit(node)

    visit(tree)
    return found


def run_tier1() -> dict[str, set[int]]:
    """Lines of each package file that the tier-1 suite executed."""
    targets = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            targets[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        lines = targets.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed", "0",
                         "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return targets


def main() -> int:
    executed = run_tier1()
    report = []
    for path in sorted(executed):
        source = Path(path).read_text()
        lines = source.splitlines()
        for first, header in statements(ast.parse(source, path)):
            if executed[path].isdisjoint(header):
                relative = Path(path).relative_to(ROOT)
                report.append(f"{relative}:{first}: {lines[first - 1].strip()}")
    print(f"{len(report)} statements of src/psidemod that no tier-1 test runs")
    for line in report:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
