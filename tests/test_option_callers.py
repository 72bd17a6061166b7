"""Every knob has a caller outside the tests.

A *knob* is a value a caller may pass or leave at its default:

* each defaulted parameter of a public function, method or constructor
  under ``src/repro`` (public: no part of its dotted name starts with
  ``_``; a class's ``__init__`` is the class);
* each defaulted field of an option bag (:data:`OPTION_BAGS`).  Report
  and record dataclasses are not option bags, their fields are results;
  nor are types decoded from user documents (lab specs, candidates,
  fault events), whose keys are the file format.  (The retry policy's
  and the circuit breaker's tuning are module constants of
  :mod:`repro.resilience.policy`.)

Each knob must be set by a call under ``src/`` or ``benchmarks/``.  One
that only ``tests/`` or ``examples/`` set is a module constant, or it
goes with the branches only it reached; :data:`KEPT` lists the
exceptions, each with its reason.  A test that wants another value
monkeypatches the constant.

A call sets a knob when it passes it by keyword, by position, or in a
``**`` mapping whose string keys its module writes (dict keys,
subscript stores); a keyword passed to a *forwarder* -- a function
whose ``**kwargs`` reach the callable, found to a fixed point
(``make_optimizer``, a subclass ``__init__`` handing ``**kwargs`` to
``super().__init__``) -- sets it too, and so does a keyword of
``dataclasses.replace(...)`` (option-bag fields).  Calls resolve by
name: ``x.run(...)`` may reach every public callable named ``run``,
which under-reports but never flags a knob a call sets.  A local name
bound in the calling function (``cls = A if ... else B``) resolves to
the callables its binding names, a parameter of it to the callables its
callers pass there (``registry._declare(Histogram, ...)``),
``super().__init__`` to the enclosing class's bases, and
``getattr(module, name)(...)`` to every callable whose name is a string
constant of the calling module.

CI prints ``knobs: N (kept: K)`` and ``layer-config knobs: N (set
outside tests: M)`` from :func:`settings`.
"""

import ast
import dataclasses
import fnmatch
import functools
from pathlib import Path

from repro.adaptive.loop import AdaptivityConfig
from repro.durability import DurabilityConfig
from repro.fleet.tenancy import Tenant
from repro.network.topology import TransitStubParams
from repro.obs.telemetry import TelemetryConfig
from repro.resilience.degradation import ResilienceConfig
from repro.resources.manager import ResourceConfig
from repro.workload.profiles import HeterogeneousFleetProfile

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "tests")
CALLERS = ("src/", "benchmarks/")
CONFIGS = (ResilienceConfig, AdaptivityConfig, TelemetryConfig, DurabilityConfig, ResourceConfig)

#: Dataclasses whose defaulted fields are knobs.
OPTION_BAGS = (*CONFIGS, TransitStubParams, HeterogeneousFleetProfile, Tenant)

#: Knobs kept although nothing under ``src/`` or ``benchmarks/`` sets
#: them: ``{pattern over "callable(knob)": reason}`` (fnmatch patterns).
KEPT = {
    "DurabilityConfig(fsync)": "safety code: a test arms it through a service",
    "serve_main(argv)": "entry point: the console script passes none, tests pass argv",
    "optimal_tree_placement(constraint)": (
        "reference: the exhaustive search the constrained placement is checked against"
    ),
    "figure0[5-9]_*(*)": (
        "figure scale: tests/experiments/test_figures.py shrinks the paper's sizes "
        "to keep tier-1 time down"
    ),
}


@dataclasses.dataclass(frozen=True)
class Signature:
    """One public callable: how calls name it, its positional
    parameters in order, and its knobs."""

    key: str
    name: str
    positional: tuple[str, ...]
    knobs: tuple[str, ...]


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _function(fn: ast.FunctionDef, key: str, name: str, method: bool) -> Signature:
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    kwonly = [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return Signature(key, name, tuple(positional), tuple(defaulted + kwonly))


def callables(trees: dict[str, ast.Module], bags=OPTION_BAGS) -> list[Signature]:
    """Every public function, method and constructor under ``src/``
    with a knob, and the option ``bags``."""
    found = []
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _public(node.name) and node.name != "__init__":
                found.append(_function(node, node.name, node.name, method=False))
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for fn in node.body:
                    if not (isinstance(fn, ast.FunctionDef) and _public(fn.name)):
                        continue
                    if fn.name == "__init__":
                        found.append(_function(fn, node.name, node.name, method=True))
                    else:
                        found.append(_function(fn, f"{node.name}.{fn.name}", fn.name, method=True))
    for cls in bags:
        fields = [f for f in dataclasses.fields(cls) if f.init]
        knobs = [
            f.name
            for f in fields
            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        ]
        found.append(Signature(cls.__name__, cls.__name__, tuple(f.name for f in fields), tuple(knobs)))
    return [c for c in found if c.knobs]


def _name(func) -> str | None:
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _functions(trees):
    """``(call name, function, enclosing class)`` for every module-level
    function and method; a class's ``__init__`` is called by its name."""
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node, None
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        yield (node.name if fn.name == "__init__" else fn.name), fn, node


def _scopes(tree: ast.Module):
    """``(call, enclosing function, enclosing class)`` for every call."""

    def walk(node, fn, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, fn, cls
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child, cls)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, None, child)
            else:
                yield from walk(child, fn, cls)

    yield from walk(tree, None, None)


def _strings(tree: ast.Module) -> set[str]:
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _positional(fn: ast.FunctionDef, cls) -> list[str]:
    """``fn``'s positional parameters as a call passes them."""
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return params[1:] if cls is not None and params[:1] in (["self"], ["cls"]) else params


def _splatted(call: ast.Call) -> set[str]:
    """The names read in ``call``'s ``**`` arguments."""
    return {n.id for k in call.keywords if k.arg is None for n in ast.walk(k.value) if isinstance(n, ast.Name)}


class _Resolver:
    """Resolves the callables a call may reach."""

    def __init__(self, trees, table: list[Signature]) -> None:
        self.by_name: dict[str, list[Signature]] = {}
        for c in table:
            self.by_name.setdefault(c.name, []).append(c)
        self.bases = {
            node.name: [_name(b) for b in node.bases]
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        # (call name, parameter index or name) -> callables passed there.
        self.passed: dict[tuple[str, int | str], set[str]] = {}
        for tree in trees.values():
            for call in ast.walk(tree):
                if isinstance(call, ast.Call):
                    args = [*enumerate(call.args), *((k.arg, k.value) for k in call.keywords)]
                    for where, arg in args:
                        if _name(arg) in self.by_name:
                            self.passed.setdefault((_name(call.func), where), set()).add(_name(arg))
        self.reach = self._forwarders(trees)

    def callees(self, call: ast.Call, fn, cls, strings: set[str] = frozenset()) -> set[str]:
        """The names ``call`` may reach."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _name(func.value.func) == "super"
        ):
            return set(self.bases.get(cls.name, []) if cls is not None else []) & self.by_name.keys()
        if isinstance(func, ast.Call) and _name(func.func) == "getattr":
            return strings & self.by_name.keys()
        name = _name(func)
        if name in self.by_name:
            return {name}
        if not isinstance(func, ast.Name) or fn is None:
            return set()
        found = set()
        for node in ast.walk(fn):  # a local binding
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
                found |= {_name(n) for n in ast.walk(node.value)} & self.by_name.keys()
        positional = _positional(fn, cls)
        if name in positional:  # a parameter: what its callers pass
            caller = cls.name if cls is not None and fn.name == "__init__" else fn.name
            found |= self.passed.get((caller, positional.index(name)), set())
            found |= self.passed.get((caller, name), set())
        return found

    def _forwarders(self, trees) -> dict[tuple[str, str | None], set[str]]:
        """``{(call name, parameter): names it reaches}``, to a fixed
        point: the function's ``**kwargs`` (parameter ``None``) or a
        mapping parameter it splats into a call."""
        functions = list(_functions(trees))
        reach: dict[tuple[str, str | None], set[str]] = {}
        changed = True
        while changed:
            changed = False
            for name, fn, cls in functions:
                args = fn.args
                params = {a.arg: a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if args.kwarg is not None:
                    params[args.kwarg.arg] = None
                for call in ast.walk(fn):
                    if not isinstance(call, ast.Call) or not _splatted(call) & params.keys():
                        continue
                    found = set()
                    for callee in self.callees(call, fn, cls) | {_name(call.func)}:
                        found |= ({callee} & self.by_name.keys()) | reach.get((callee, None), set())
                    for param in _splatted(call) & params.keys():
                        key = (name, params[param])
                        if not found <= reach.get(key, set()):
                            reach.setdefault(key, set()).update(found)
                            changed = True
        return reach


@functools.cache
def _trees() -> dict[str, ast.Module]:
    return {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
        for root in SCANNED
        for path in sorted((ROOT / root).rglob("*.py"))
    }


def scan(trees: dict[str, ast.Module], bags=OPTION_BAGS) -> dict[tuple[str, str], set[str]]:
    """``{(callable key, knob): files setting it}`` over ``trees``."""
    table = callables(trees, bags)
    resolve = _Resolver(trees, table)
    by_name, reach = resolve.by_name, resolve.reach
    bag_knobs = [c for c in table if c.key in {cls.__name__ for cls in bags}]
    found = {(c.key, knob): set() for c in table for knob in c.knobs}

    def mark(c: Signature, knob: str, path: str) -> None:
        if (c.key, knob) in found:
            found[c.key, knob].add(path)

    for path, tree in trees.items():
        strings = _strings(tree)
        splatted: set[str] = set()
        for call, fn, cls in _scopes(tree):
            direct = resolve.callees(call, fn, cls, strings)
            for name in direct:
                for c in by_name[name]:
                    for index, arg in enumerate(call.args):
                        if isinstance(arg, ast.Starred):
                            for knob in c.positional[index:]:
                                mark(c, knob, path)
                            break
                        if index < len(c.positional):
                            mark(c, c.positional[index], path)
            forwarded = set()
            for name in direct | {_name(call.func)}:
                forwarded |= reach.get((name, None), set())
                for keyword in call.keywords:
                    splatted |= reach.get((name, keyword.arg), set())
            for name in direct | forwarded:
                for c in by_name[name]:
                    for keyword in call.keywords:
                        if keyword.arg is None:
                            splatted.add(name)
                        else:
                            mark(c, keyword.arg, path)
            if _name(call.func) == "replace":
                for keyword in call.keywords:
                    for c in bag_knobs:
                        mark(c, keyword.arg, path)
        keys = {
            key
            for node in ast.walk(tree)
            for key in (
                [k.value for k in node.keys if isinstance(k, ast.Constant)]
                if isinstance(node, ast.Dict)
                else [node.slice.value]
                if isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.slice, ast.Constant)
                else []
            )
        }
        for name in splatted:
            for c in by_name[name]:
                for key in keys:
                    mark(c, key, path)
    return found


@functools.cache
def settings() -> dict[tuple[str, str], set[str]]:
    """``{(callable, knob): files setting it}`` over the repository (one
    scan per run; callers only read it)."""
    return scan(_trees())


def _outside_callers(found) -> list[str]:
    """Knobs no call under ``src/`` or ``benchmarks/`` sets, as
    ``callable(knob)``."""
    return sorted(
        f"{key}({knob})"
        for (key, knob), paths in found.items()
        if not any(p.startswith(CALLERS) for p in paths)
    )


def kept(found=None) -> dict[str, list[str]]:
    """``{KEPT pattern: the unset knobs it keeps}``."""
    found = settings() if found is None else found
    names = _outside_callers(found)
    return {pattern: fnmatch.filter(names, pattern) for pattern in KEPT}


def unset(found=None) -> list[str]:
    """Knobs no call under ``src/`` or ``benchmarks/`` sets, less
    :data:`KEPT`, as ``callable(knob)``."""
    found = settings() if found is None else found
    held = {name for names in kept(found).values() for name in names}
    return [name for name in _outside_callers(found) if name not in held]


def figure() -> str:
    """The CI line: how many knobs, and how many of them :data:`KEPT`
    holds."""
    return f"knobs: {len(settings())} (kept: {sum(map(len, kept().values()))})"


def layer_config_figure() -> str:
    """The CI line: how many layer-config knobs (defaulted fields), and
    how many of them something outside ``tests/`` sets."""
    found = settings()
    fields = [key for key in found if key[0] in {cls.__name__ for cls in CONFIGS}]
    outside = [key for key in fields if any(not p.startswith("tests/") for p in found[key])]
    return f"layer-config knobs: {len(fields)} (set outside tests: {len(outside)})"


def test_every_option_is_set_somewhere():
    assert unset() == [], "knobs only tests or examples set (make them constants)"


def test_every_layer_config_field_has_a_caller_outside_tests():
    configs = tuple(f"{cls.__name__}(" for cls in CONFIGS)
    assert [name for name in unset() if name.startswith(configs)] == []


def test_every_kept_entry_keeps_a_knob():
    assert [pattern for pattern, names in kept().items() if not names] == []


def _planted(source: str) -> dict[tuple[str, str], set[str]]:
    """The scan over one planted module and a test that calls into it."""
    module, _, test = source.partition("# tests\n")
    trees = {"src/repro/planted.py": ast.parse(module), "tests/test_planted.py": ast.parse(test)}
    return scan(trees, bags=())


def test_the_tests_only_gate_sees_a_tests_only_field():
    found = {
        ("ResourceConfig", "shed"): {"tests/resources/test_x.py"},
        ("ResourceConfig", "load_weight"): {"src/repro/cli.py", "tests/y.py"},
        ("DurabilityConfig", "fsync"): {"tests/durability/test_journal.py"},
        ("TelemetryConfig", "cadence"): {"examples/quickstart.py"},
        ("StreamQueryService", "cache"): {"benchmarks/e2e/workloads.py"},
    }
    assert unset(found) == ["ResourceConfig(shed)", "TelemetryConfig(cadence)"]


def test_the_gate_sees_a_parameter_only_tests_set():
    found = _planted(
        "def plan(query, budget=3, seed=0):\n"
        "    pass\n"
        "def main():\n"
        "    plan(1, 4)\n"
        "# tests\n"
        "plan(1, seed=7)\n"
    )
    assert unset(found) == ["plan(seed)"]


def test_the_gate_follows_a_forwarder():
    found = _planted(
        "class Planner:\n"
        "    def __init__(self, rates, reuse=True, depth=2):\n"
        "        pass\n"
        "def make(name, **kwargs):\n"
        "    cls = Planner if name else None\n"
        "    return cls(name, **kwargs)\n"
        "def main():\n"
        "    make('a', reuse=False)\n"
    )
    assert unset(found) == ["Planner(depth)"]


def test_the_gate_sees_a_super_init_setting():
    found = _planted(
        "class Rule:\n"
        "    def __init__(self, name, severity='warn', hold=0):\n"
        "        pass\n"
        "class Threshold(Rule):\n"
        "    def __init__(self, name, **kwargs):\n"
        "        super().__init__(name, 'page', **kwargs)\n"
        "def main():\n"
        "    Threshold('x', hold=2)\n"
        "# tests\n"
        "Rule('y', hold=1)\n"
    )
    assert unset(found) == []
    found = _planted(
        "class Rule:\n"
        "    def __init__(self, name, severity='warn', hold=0):\n"
        "        pass\n"
        "class Threshold(Rule):\n"
        "    def __init__(self, name):\n"
        "        super().__init__(name, 'page')\n"
        "# tests\n"
        "Rule('y', hold=1)\n"
    )
    assert unset(found) == ["Rule(hold)"]


def test_the_scan_sees_each_kind_of_setting():
    found = settings()
    # A keyword in a direct call, a positional argument, a keyword
    # through a forwarder, and a string key forwarded as service_kwargs.
    assert "src/repro/durability/harness.py" in found["DurabilityConfig", "snapshot_interval"]
    assert "src/repro/workload/scenarios.py" in found["transit_stub", "params"]
    assert "src/repro/fleet/controller.py" in found["TopDownOptimizer", "ads"]
    assert "src/repro/lab/candidate.py" in found["StreamQueryService", "adaptivity"]
