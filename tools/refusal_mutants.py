"""Mutate the condition of each refusal in ``src/psidemod`` and report the
mutants that no tier-1 test kills.

Usage, from the repository root:

    python3 tools/refusal_mutants.py                    # every refusal
    python3 tools/refusal_mutants.py carrier.py:270 psa.py  # some of them
    python3 tools/refusal_mutants.py --allow tools/refusal_mutants.allow  # as a gate

A refusal is an ``if <condition>:`` whose body ends in ``raise``.  Each one
gets these mutants of its condition:

* a flipped strictness: each ``<``, ``<=``, ``>`` or ``>=`` to its partner;
* a scaled threshold: each nonzero numeric literal of the condition, and each
  name of a module-level numeric literal (such as ``_SLOPE_MARGIN``), times
  1.05 and times 0.95; an index inside a subscript is left alone;
* the condition removed: the refusal never fires.

The tier-1 suite first runs once under the line tracer of
``tools/untested_statements.py``, which records the tests that reach each
line.  Each mutant then runs, in a fresh copy of the package, only the tests
that reach its ``if``: those that reach the ``raise`` first, then the rest,
stopping at the first failure (``pytest -x``).  Tests that already fail on
the unmutated code are left out.  A mutant is killed when a test fails or
errors (a test module that no longer imports included) or its run passes
``_TIMEOUT_S``, and survives when every test passes.  Mutants run one per CPU
that the process may use; ``taskset`` narrows that.

It prints one line per survivor, ``path:line: condition -> mutant (n tests)``,
and a count on stderr.  It only reports, with exit status 0 whatever it
finds, unless ``--allow`` names a file of accepted survivors: one
``path: condition -> mutant  # reason`` a line, without the line number, so an
entry stays put when lines move.  The exit status is then 1 when a survivor
that the file does not name, or a mutant that errs, is left; entries that no
longer survive are named on stderr.  One run over the whole package took
about 8 minutes on 2 CPUs.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from untested_statements import PACKAGE, ROOT, _header_lines, trace_tier1  # noqa: E402

_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_SCALES = (1.05, 0.95)
_TIMEOUT_S = 600.0  # per mutant; far above any mutant's run so far


@dataclass(frozen=True)
class Mutant:
    path: Path
    line: int  # of the ``if``
    raise_line: int
    header: range  # the lines of the ``if`` header
    original: str
    mutated: str
    source: str  # the whole mutated file


def _numeric(node) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value != 0)


def _module_constants(tree: ast.Module) -> set[str]:
    """Names that the module binds, at its top level, to one numeric literal."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and _numeric(node.value)):
            names.add(node.targets[0].id)
    return names


def _indices(condition) -> set[int]:
    """ids of the nodes that sit inside a subscript's index."""
    inside = set()
    for node in ast.walk(condition):
        if isinstance(node, ast.Subscript):
            inside.update(id(child) for child in ast.walk(node.slice))
    return inside


def _variants(condition, constants: set[str]):
    """Each mutated condition, as an expression tree."""
    indices = _indices(condition)
    for position, node in enumerate(ast.walk(condition)):
        if isinstance(node, ast.Compare):
            for index, op in enumerate(node.ops):
                if type(op) in _FLIP:
                    mutated = copy.deepcopy(condition)
                    target = list(ast.walk(mutated))[position]
                    target.ops[index] = _FLIP[type(op)]()
                    yield mutated
        scalable = _numeric(node) or (isinstance(node, ast.Name) and node.id in constants
                                      and isinstance(node.ctx, ast.Load))
        if scalable and id(node) not in indices:
            for scale in _SCALES:
                mutated = copy.deepcopy(condition)
                replacement = (ast.Constant(node.value * scale) if isinstance(node, ast.Constant)
                               else ast.BinOp(ast.Name(node.id, ast.Load()), ast.Mult(),
                                              ast.Constant(scale)))
                yield _replace(mutated, list(ast.walk(mutated))[position], replacement)
    yield ast.Constant(False)


def _replace(root, target, replacement):
    """``root`` with ``target`` swapped for ``replacement``."""
    if root is target:
        return replacement
    for parent in ast.walk(root):
        for field, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, field, replacement)
                return root
            if isinstance(value, list) and any(item is target for item in value):
                setattr(parent, field, [replacement if item is target else item
                                        for item in value])
                return root
    raise ValueError("target is not inside root")


def _splice(source: bytes, node, text: str) -> str:
    """``source`` with ``node``'s extent replaced by ``text``; ``ast`` column
    offsets count UTF-8 bytes, so the splice works on bytes."""
    lines = source.splitlines(keepends=True)
    start = sum(len(line) for line in lines[:node.lineno - 1]) + node.col_offset
    end = sum(len(line) for line in lines[:node.end_lineno - 1]) + node.end_col_offset
    return (source[:start] + text.encode() + source[end:]).decode()


def mutants(path: Path):
    """Every mutant of every refusal in the file at ``path``."""
    source = path.read_bytes()
    tree = ast.parse(source, str(path))
    constants = _module_constants(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and isinstance(node.body[-1], ast.Raise)):
            continue
        original = ast.unparse(node.test)
        for variant in _variants(node.test, constants):
            mutated = ast.unparse(variant)
            yield Mutant(path, node.lineno, node.body[-1].lineno, _header_lines(node),
                         original, mutated, _splice(source, node.test, f"({mutated})"))


def _run(mutant: Mutant, tests: list[str]) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory() as scratch:
        package = Path(scratch) / PACKAGE.name
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        (package / mutant.path.name).write_text(mutant.source)
        env = dict(os.environ, PYTHONPATH=scratch, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--hypothesis-seed", "0", *(f"{ROOT}/{test}" for test in tests)]
        try:
            # the scratch directory as cwd keeps the hypothesis database out of the tree
            result = subprocess.run(command, cwd=scratch, env=env, capture_output=True,
                                    timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    if result.returncode == 0:
        return "survived"
    # a test module that no longer imports fails its collection instead
    if result.returncode in (1, 2) or b"ERROR collecting" in result.stdout:
        return "killed"
    tail = result.stdout.decode(errors="replace").strip().splitlines()[-1:]
    return f"error: pytest exit {result.returncode} {' '.join(tail)}"


def _selected(path: Path, line: int, only: list[str]) -> bool:
    if not only:
        return True
    for item in only:
        name, _, number = item.partition(":")
        if path.name == Path(name).name and (not number or int(number) == line):
            return True
    return False


def _allowed(path: Path) -> set[str]:
    """The ``path: condition -> mutant`` entries of an allow file."""
    entries = set()
    for line in path.read_text().splitlines():
        entry = line.partition("  # ")[0].strip()
        if entry and not entry.startswith("#"):
            entries.add(entry)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("only", nargs="*", help="file.py or file.py:line of the ``if`` to mutate")
    parser.add_argument("--allow", type=Path,
                        help="file of accepted survivors; exit 1 on any other survivor or error")
    args = parser.parse_args()
    allowed = set() if args.allow is None else _allowed(args.allow)

    candidates = [mutant for path in sorted(PACKAGE.glob("*.py")) for mutant in mutants(path)
                  if _selected(path, mutant.line, args.only)]
    executed, failing = trace_tier1()

    def tests_for(mutant: Mutant) -> list[str]:
        lines = executed[str(mutant.path)]
        reach_raise = lines.get(mutant.raise_line, set())
        reach_if = set().union(*(lines.get(line, set()) for line in mutant.header))
        keep = (reach_if | reach_raise) - failing - {""}
        return sorted(keep & reach_raise) + sorted(keep - reach_raise)

    def outcome(mutant: Mutant):
        tests = tests_for(mutant)
        return mutant, tests, _run(mutant, tests) if tests else "survived"

    counts: dict[str, int] = {}
    surviving, unexpected = set(), []
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for mutant, tests, result in pool.map(outcome, candidates):
            kind = result.split(":")[0]
            counts[kind] = counts.get(kind, 0) + 1
            if result != "killed":
                entry = f"{mutant.path.relative_to(ROOT)}: {mutant.original} -> {mutant.mutated}"
                where = f"{mutant.path.relative_to(ROOT)}:{mutant.line}"
                note = "" if result == "survived" else f" [{result}]"
                print(f"{where}: {mutant.original} -> {mutant.mutated} ({len(tests)} tests){note}",
                      flush=True)
                surviving.add(entry)
                if result != "survived" or entry not in allowed:
                    unexpected.append(f"{where}{note}")
    summary = ", ".join(f"{count} {kind}" for kind, count in sorted(counts.items()))
    print(f"{len(candidates)} mutants of refusals in src/psidemod: {summary}", file=sys.stderr)
    if args.allow is None:
        return 0
    for entry in sorted(allowed - surviving):
        print(f"allowed, but killed or not run: {entry}", file=sys.stderr)
    for where in unexpected:
        print(f"not allowed: {where}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
