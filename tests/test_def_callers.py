"""Every definition has a caller outside the tests.

Each function, method and class name defined under ``src/`` must appear
somewhere outside ``tests/``: in ``src/``, ``benchmarks/``,
``examples/`` or a console script of ``pyproject.toml``.  A capability
only tests enter is code nothing runs; it goes, or it is listed in
:data:`ALLOWED` with the reason it stays.

A name appears where it is read: a bare name, an attribute, or a word
of a string constant (``getattr`` dispatch, ``"module:function"``
targets).  The ``def``/``class`` line itself, import statements and
``__all__`` do not count, so a re-export alone keeps nothing alive.
Dunder methods are called by Python and are skipped.  The rule is by
name: a method is kept by any use of that name, which under-reports but
never flags code that runs.

CI prints the allowlist's size beside the ``src/`` and ``tests/`` line
counts.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTSIDE_TESTS = ("src", "benchmarks", "examples")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Names kept although nothing outside ``tests/`` uses them, each with
#: its reason.
ALLOWED = {
    # The paper's analytical results, checked against the planners.
    "bottom_up_space_bound": "paper formula: the Bottom-Up search-space bound",
    "top_down_suboptimality_bound": "paper formula: the Top-Down suboptimality bound",
    "estimated_cost": "paper formula: a level's estimate of a traversal cost",
    "backup_coordinator": "paper formula: the backup that takes over a failed coordinator",
    # Input decoders (ROADMAP item 19 owns their error audit).
    "query_from_json": "input decoder: the inverse of query_to_json",
    "from_json": "input decoder: FigureResult.from_json, the inverse of to_json",
}


def defined(root: Path = ROOT) -> dict[str, list[str]]:
    """``{name: ["path:line", ...]}`` for every def and class under ``src/``."""
    found: dict[str, list[str]] = {}
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            where = f"{path.relative_to(root).as_posix()}:{node.lineno}"
            found.setdefault(node.name, []).append(where)
    return found


def _skipped(tree: ast.AST) -> set[int]:
    """Ids of the nodes inside imports and ``__all__`` assignments."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(map(id, ast.walk(node)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == "__all__" for target in targets):
                skip.update(map(id, ast.walk(node)))
    return skip


def used(root: Path = ROOT) -> set[str]:
    """Every name read outside ``tests/``, plus the console-script targets."""
    seen: set[str] = set()
    for top in OUTSIDE_TESTS:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skip = _skipped(tree)
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    seen.update(_WORD.findall(node.value))
    seen.update(_WORD.findall(" ".join(_console_scripts(root / "pyproject.toml"))))
    return seen


def _console_scripts(pyproject: Path) -> list[str]:
    """The ``module:function`` targets of ``[project.scripts]`` (read
    line by line: ``tomllib`` is not in every supported Python)."""
    if not pyproject.exists():
        return []
    section, targets = None, []
    for line in pyproject.read_text().splitlines():
        if line.startswith("["):
            section = line.strip()
        elif section == "[project.scripts]" and "=" in line:
            targets.append(line.split("=", 1)[1].strip().strip('"'))
    return targets


def uncalled(root: Path = ROOT) -> dict[str, list[str]]:
    """Definitions under ``src/`` whose name nothing outside ``tests/`` reads."""
    seen = used(root)
    return {name: where for name, where in sorted(defined(root).items()) if name not in seen}


def test_every_definition_has_a_caller_outside_tests():
    survivors = {name: where for name, where in uncalled().items() if name not in ALLOWED}
    assert survivors == {}, (
        "defined under src/ but used only by tests (delete, or allowlist with a reason)"
    )


def test_every_allowlisted_name_is_still_needed():
    stale = sorted(set(ALLOWED) - set(uncalled()))
    assert stale == [], "allowlisted names that are gone or now have a caller"


def test_the_scan_counts_uses_not_definitions_imports_or_exports(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pkg" / "__init__.py").write_text(
        "from pkg.mod import exported, imported\n"
        "__all__ = ['exported']\n"
    )
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "def called(): pass\n"
        "def dispatched(): pass\n"
        "def imported(): pass\n"
        "def exported(): pass\n"
        "def tested(): pass\n"
        "def script(): pass\n"
        "class Thing:\n"
        "    def __repr__(self): return 'x'\n"
        "    def method(self): return called()\n"
        "getattr(Thing(), 'dispatched')\n"
        "Thing().method()\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text("from pkg.mod import tested\ntested()\n")
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "pkg"\n[project.scripts]\npkg = "pkg.mod:script"\n'
    )
    assert sorted(uncalled(tmp_path)) == ["exported", "imported", "tested"]
