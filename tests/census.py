"""Statement census: which ``src/repro`` statements nothing outside ``tests/`` enters.

Run from the repository root (a few minutes; nothing in the tree changes)::

    python -m tests.census           # unentered statements per package
    python -m tests.census --list    # ... and every unentered block

It copies ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and
``pyproject.toml`` into a scratch directory and runs every command of
:data:`COMMANDS` there in a fresh interpreter: CI's smoke list
(``tests/golden``'s ``SMOKE``), then the paths CI does not run.  A
``sitecustomize`` module on ``PYTHONPATH`` installs a line tracer
limited to the copy's ``src/repro``, and each process writes the lines
it ran when it exits.  A command that returns another exit code than
the one it is listed with fails the census (exit 1), and so does a count
of unentered non-error statements above :data:`CEILING`.

A statement is an AST statement of ``src/repro`` with bytecode on its
head lines (a compound statement's head ends where its body starts);
docstrings do not count.  It is *entered* when one of those lines ran.
``raise`` statements and everything inside an ``except`` body are error
paths, counted apart: no command is meant to reach them.

``tests/test_def_callers.py`` asks whether a name is read outside
``tests/``; this asks whether the code under it runs.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from tests.golden import SMOKE, Command

ROOT = Path(__file__).resolve().parents[1]

#: The most unentered non-error statements ``src/repro`` may hold.
CEILING = 544

#: Every command the census runs, in order, from the scratch copy's root
#: (``Command`` says how a line reads): CI's smoke list, then what CI
#: does not run.
COMMANDS: tuple[Command, ...] = (
    *SMOKE,
    Command("repro chaos --seed 3 --duration 50"),
    Command("repro serve --nodes 16 --queries 6 --budget 3 --seed 11 --repeats 2"),
    Command("repro serve --nodes 16 --queries 6 --budget 3 --seed 11 --state-dir {tmp}/serve"),
    Command("repro bounds -k 4 -n 1000 --max-cs 10"),
    Command("repro plan 'SELECT A.x FROM A, B WHERE A.k = B.k' --nodes 32 --sink 5"),
    Command("repro figures fig2"),
    # The full crash matrices.
    *(Command(f"repro chaos --crash-points 0 --crash-scope {scope}") for scope in ("fleet", "service", "layers")),
    # The examples.
    *(
        Command(f"python examples/{name}.py")
        for name in (
            "adaptive_runtime", "airline_ois", "multi_query_sharing", "network_monitoring",
            "quickstart", "runtime_validation", "scalability_study", "service_churn",
            "trace_walkthrough",
        )
    ),
    # The control-plane benchmark at smoke scale, traced, and the quick
    # benchmark suite.
    *(
        Command(f"python benchmarks/e2e/run.py --workload {w} --scale smoke --seconds 1 --trace 1")
        for w in ("plan_cold", "churn_warm", "layers_on", "fleet_shards")
    ),
    Command("python -m pytest benchmarks --ignore=benchmarks/e2e --benchmark-only -q -p no:cacheprovider"),
)

_SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_ROOT = os.environ["CENSUS_SRC"]
_seen = {}   # file -> lines that ran
_todo = {}   # code -> its lines not seen yet (empty: do not trace)
_local = {}  # code -> its line tracer


def _tracer(todo, seen):
    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in todo:
            todo.discard(frame.f_lineno)
            seen.add(frame.f_lineno)
            if not todo:
                frame.f_trace_lines = False
        return local
    return local


def _call(frame, event, arg):
    code = frame.f_code
    todo = _todo.get(code)
    if todo is None:
        todo = _todo[code] = (
            {line for _, _, line in code.co_lines() if line is not None}
            if code.co_filename.startswith(_ROOT) else set()
        )
        if todo:
            _local[code] = _tracer(todo, _seen.setdefault(code.co_filename, set()))
    return _local[code] if todo else None


@atexit.register
def _dump():
    sys.settrace(None)
    out = os.path.join(os.environ["CENSUS_OUT"], f"{os.getpid()}-{id(_seen)}.json")
    with open(out, "w") as handle:
        json.dump({path: sorted(lines) for path, lines in _seen.items()}, handle)


sys.settrace(_call)
threading.settrace(_call)
'''


def run_commands(commands=COMMANDS, *, verbose: bool = True):
    """Run ``commands`` traced: ``({path under src/repro: its source text},
    {path: lines that ran}, [(command, exit code) for every command that
    returned another exit code than its own])``, the texts as the commands
    saw them."""
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        scratch = Path(scratch)
        tree, hook, out, tmp = (scratch / name for name in ("tree", "hook", "out", "tmp"))
        for name in ("src", "tests", "benchmarks", "examples"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
        shutil.copy2(ROOT / "pyproject.toml", tree)  # pytest's config: bench_*.py files
        for directory in (hook, out, tmp):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        src = tree / "src" / "repro"
        sources = {path.relative_to(src).as_posix(): path.read_text() for path in src.rglob("*.py")}
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(map(str, (hook, tree / "src", tree))),
            CENSUS_SRC=str(src) + os.sep,
            CENSUS_OUT=str(out),
            PYTHONDONTWRITEBYTECODE="1",
        )
        failed: list[tuple[Command, int]] = []
        for command in commands:
            argv, target = command.subprocess_argv(tmp)
            started = time.perf_counter()
            with open(target or os.devnull, "w") as stdout:
                done = subprocess.run(argv, cwd=tree, env=env, stdout=stdout,
                                      stderr=subprocess.PIPE, text=True)
            if done.returncode != command.rc:
                failed.append((command, done.returncode))
            if verbose:
                print(f"  [{time.perf_counter() - started:5.1f} s, rc {done.returncode}] {command.line}",
                      file=sys.stderr)
        ran: dict[str, set[int]] = defaultdict(set)
        for dump in out.glob("*.json"):
            for path, lines in json.loads(dump.read_text()).items():
                ran[Path(path).relative_to(src).as_posix()].update(lines)
    return sources, dict(ran), failed


@dataclass
class Statement:
    path: str            # under src/repro
    node: ast.stmt
    scope: str           # qualified name of the enclosing def / class, or "<module>"
    error: bool          # a raise, or inside an except body
    head: range          # lines whose bytecode belongs to this statement itself
    entered: bool = False


def _head(node: ast.stmt) -> range:
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and not isinstance(node, ast.Match):
        start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        return range(start, max(node.lineno, body[0].lineno - 1) + 1)
    return range(node.lineno, (node.end_lineno or node.lineno) + 1)


def _is_docstring(node: ast.stmt, index: int) -> bool:
    return (
        index == 0
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _executable_lines(source: str, path: str) -> set[int]:
    lines: set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statements(source: str, rel: str) -> list[Statement]:
    """Every counted statement of ``source`` (``src/repro/<rel>``), in
    source order."""
    tree = ast.parse(source)
    executable = _executable_lines(source, rel)
    found: list[Statement] = []
    # (statement list, scope, inside an except body, owner is a def/class/module)
    stack = [(tree.body, "<module>", False, True)]
    while stack:
        body, scope, error, owner = stack.pop()
        for index, node in enumerate(body):
            if owner and _is_docstring(node, index):
                continue
            head = _head(node)
            if executable.intersection(head):
                found.append(Statement(rel, node, scope, error or isinstance(node, ast.Raise), head))
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            defines = inner is not scope
            for field in ("body", "orelse", "finalbody"):
                stack.append((getattr(node, field, None) or [], inner, error, defines and field == "body"))
            for handler in getattr(node, "handlers", ()):
                stack.append((handler.body, inner, True, False))
            for case in getattr(node, "cases", ()):
                stack.append((case.body, inner, error, False))
    found.sort(key=lambda s: (s.node.lineno, s.node.col_offset))
    return found


def census(sources: dict[str, str], ran: dict[str, set[int]]) -> list[Statement]:
    """Every counted ``src/repro`` statement, each marked entered or not."""
    found: list[Statement] = []
    for rel in sorted(sources):
        lines = ran.get(rel, set())
        for statement in statements(sources[rel], rel):
            statement.entered = not lines.isdisjoint(statement.head)
            found.append(statement)
    return found


def package(rel: str) -> str:
    head, sep, _ = rel.partition("/")
    return f"{head}/" if sep else head


def unentered_figure(found: list[Statement]) -> tuple[int, int]:
    """``(unentered, total)`` over the statements that are not error paths."""
    counted = [s for s in found if not s.error]
    return sum(not s.entered for s in counted), len(counted)


def functions(found: list[Statement]) -> dict[tuple[str, str], bool]:
    """``{(path, qualified name): entered}`` for every def with a counted body."""
    entered: dict[tuple[str, str], bool] = {}
    for s in found:
        if s.scope != "<module>":
            key = (s.path, s.scope)
            entered[key] = entered.get(key, False) or s.entered
    return entered


def blocks(found: list[Statement]):
    """Runs of unentered non-error statements with no other counted one
    between them, in one scope: ``(path, first line, last line, scope,
    statements)``."""
    runs = groupby(found, key=lambda s: (s.path, s.scope, not (s.entered or s.error)))
    for (path, scope, unentered), run in runs:
        if unentered:
            run = list(run)
            last = max(s.node.end_lineno for s in run)
            yield path, run[0].node.lineno, last, scope, len(run)


def report(found: list[Statement], *, listing: bool) -> str:
    rows: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for s in found:
        row = rows[package(s.path)]
        row[2 * s.error] += not s.entered
        row[2 * s.error + 1] += 1
    width = max(len(name) for name in rows) + 2
    lines = [f"{'package':{width}}unentered / statements   error paths unentered / total"]
    for name, (miss, total, err_miss, err_total) in sorted(rows.items()):
        lines.append(f"{name:{width}}{miss:>9} / {total:<10}   {err_miss:>21} / {err_total}")
    miss, total = unentered_figure(found)
    never = [key for key, entered in functions(found).items() if not entered]
    lines.append(f"total unentered non-error statements: {miss} of {total}")
    lines.append(f"functions never entered: {len(never)}")
    if listing:
        lines.append("")
        lines.extend(
            f"src/repro/{path}:{first}-{last} {scope} ({n} statement{'s' * (n > 1)})"
            for path, first, last, scope, n in blocks(found)
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.census", description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true", help="name every unentered block")
    args = parser.parse_args(argv)
    sources, ran, failed = run_commands()
    found = census(sources, ran)
    print(report(found, listing=args.list))
    for command, rc in failed:
        print(f"error: exit {rc}, expected {command.rc}: {command.line}", file=sys.stderr)
    unentered, _ = unentered_figure(found)
    if unentered > CEILING:
        print(f"error: {unentered} unentered non-error statements, above the ceiling of {CEILING}",
              file=sys.stderr)
    return 1 if failed or unentered > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
