"""Print each statement of ``src/psidemod`` that no tier-1 test runs.

Usage, from the repository root:

    python3 tools/untested_statements.py

It runs the tier-1 suite in this process (``pytest --hypothesis-seed 0``,
so two runs draw the same examples) under a ``sys.settrace`` line tracer,
which also records the tests that reach each line (``tools/refusal_mutants.py``
reuses it), then prints every statement, as ``path:line: source``, whose
lines the suite never reached.  The suite's own report goes to stderr, so
stdout holds only the list.  Statements come from ``ast``; docstrings, bare
annotations, ``global`` statements and the ``if __name__ == "__main__":``
block are skipped, since none of them is a step of the program a test could
reach.
A compound statement (``if``, ``for``, ``def``, ...) counts as run when its
header runs; its body's statements are listed on their own.

The exit status is 0 whatever it finds, and whatever the tests themselves
report; the CI step that runs it fails when the list is not empty.
"""

from __future__ import annotations

import ast
import contextlib
import sys
from collections import defaultdict
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


class _CurrentTest:
    """Pytest plugin that knows which test is running, and which failed."""

    def __init__(self):
        self.nodeid = ""  # "" while no test runs: collection, imports
        self.failed: set[str] = set()

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.nodeid = item.nodeid
        yield
        self.nodeid = ""

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)


def trace_tier1(root: Path = ROOT) -> tuple[dict[str, dict[int, set[str]]], set[str]]:
    """Run the tier-1 suite of the tree at ``root`` (its ``src/psidemod`` and
    ``tests``) under a line tracer.  Returns, for each package file, the lines
    it executed, each with the ids of the tests that reached it ("" for lines
    run outside any test), and the ids of the tests that failed."""
    package = root / PACKAGE.relative_to(ROOT)
    targets = {str(path): defaultdict(set) for path in package.glob("*.py")}
    current = _CurrentTest()

    def local(frame, event, arg):
        if event == "line":
            targets[frame.f_code.co_filename][frame.f_lineno].add(current.nodeid)
        return local

    def tracer(frame, event, arg):
        lines = targets.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines[frame.f_lineno].add(current.nodeid)
        return local

    sys.path.insert(0, str(package.parent))
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed", "0",
                         "--continue-on-collection-errors", str(root / "tests")],
                        plugins=[current])
    finally:
        sys.settrace(None)
    return targets, current.failed


def main() -> int:
    executed, _ = trace_tier1()
    report = []
    for path in sorted(executed):
        source = Path(path).read_text()
        lines = source.splitlines()
        for first, header in statements(ast.parse(source, path)):
            if executed[path].keys().isdisjoint(header):
                relative = Path(path).relative_to(ROOT)
                report.append(f"{relative}:{first}: {lines[first - 1].strip()}")
    print(f"{len(report)} statements of src/psidemod that no tier-1 test runs", file=sys.stderr)
    for line in report:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
