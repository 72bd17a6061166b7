"""Every option has a caller.

Each field of the five layer configs and each keyword of the four wide
constructors must be set by at least one call site under ``src/``,
``benchmarks/``, ``examples/`` or ``tests/``; an option nothing sets is
a configuration space nothing exercises, and becomes a constant.  A
layer-config field must moreover be set somewhere outside ``tests/``:
a knob only tests turn is a constant too (``DurabilityConfig.fsync``,
safety code, excepted).

A name counts as set by:

* a keyword or positional argument in a call to the class, or a keyword
  in a call to a *forwarder* -- a function that passes its ``**kwargs``
  on to the class or to another forwarder (``make_optimizer``, the
  CLI's ``_service``);
* a keyword in ``dataclasses.replace(...)`` (config fields);
* a string key (dict literal or subscript store) in a module that
  forwards a ``**`` mapping, or ``service_kwargs``, to the class.

CI prints ``layer-config fields: N (set outside tests: M)`` from
:func:`settings`.
"""

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

from repro.adaptive.loop import AdaptivityConfig
from repro.core.bottom_up import BottomUpOptimizer
from repro.core.top_down import TopDownOptimizer
from repro.durability import DurabilityConfig
from repro.fleet import FleetController
from repro.obs.telemetry import TelemetryConfig
from repro.resilience.degradation import ResilienceConfig
from repro.resources.manager import ResourceConfig
from repro.service import StreamQueryService

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "tests")
CONFIGS = (ResilienceConfig, AdaptivityConfig, TelemetryConfig, DurabilityConfig, ResourceConfig)
CONSTRUCTORS = (StreamQueryService, FleetController, TopDownOptimizer, BottomUpOptimizer)


def options() -> dict[str, tuple[str, ...]]:
    """``{class name: settable names}`` for the nine classes."""
    table = {cls.__name__: tuple(f.name for f in dataclasses.fields(cls)) for cls in CONFIGS}
    for cls in CONSTRUCTORS:
        table[cls.__name__] = tuple(inspect.signature(cls.__init__).parameters)[1:]
    return table


def _name(func) -> str | None:
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _splats(call: ast.Call, name: str) -> bool:
    return any(k.arg is None and getattr(k.value, "id", None) == name for k in call.keywords)


def _forwarders(trees, table) -> dict[str, set[str]]:
    """``{function name: classes its **kwargs reach}``, to a fixed point."""
    functions = [
        fn
        for tree in trees.values()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.args.kwarg is not None
    ]
    reach: dict[str, set[str]] = {}
    changed = True
    while changed:
        changed = False
        for fn in functions:
            kwarg = fn.args.kwarg.arg
            named = {_name(n) for n in ast.walk(fn)} & table.keys()
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and _splats(call, kwarg)):
                    continue
                callee = _name(call.func)
                if callee in table:
                    found = {callee}
                elif callee in reach:
                    found = reach[callee]
                else:  # ``cls(**kwargs)`` with ``cls`` one of the classes named here
                    found = named
                if not found <= reach.get(fn.name, set()):
                    reach.setdefault(fn.name, set()).update(found)
                    changed = True
    return reach


@functools.cache
def settings() -> dict[tuple[str, str], set[str]]:
    """``{(class, option): files setting it}`` over every option (one
    scan per run; callers only read it)."""
    table = options()
    trees = {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
        for root in SCANNED
        for path in sorted((ROOT / root).rglob("*.py"))
    }
    reach = _forwarders(trees, table)
    found: dict[tuple[str, str], set[str]] = {
        (cls, option): set() for cls, names in table.items() for option in names
    }

    def mark(cls: str, option: str, path: str) -> None:
        if (cls, option) in found:
            found[cls, option].add(path)

    for path, tree in trees.items():
        splatted: set[str] = set()
        keys: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _name(node.func)
                if callee in table:
                    for index, arg in enumerate(node.args):
                        if not isinstance(arg, ast.Starred) and index < len(table[callee]):
                            mark(callee, table[callee][index], path)
                for cls in {callee} & table.keys() | reach.get(callee, set()):
                    for keyword in node.keywords:
                        if keyword.arg is None:
                            splatted.add(cls)
                        else:
                            mark(cls, keyword.arg, path)
                        if keyword.arg == "service_kwargs":
                            splatted.add("StreamQueryService")
                if callee == "replace":
                    for keyword in node.keywords:
                        for cls in CONFIGS:
                            mark(cls.__name__, keyword.arg, path)
            elif isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys if isinstance(k, ast.Constant))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if isinstance(node.slice, ast.Constant):
                    keys.add(node.slice.value)
        for cls in splatted:
            for key in keys:
                mark(cls, key, path)
    return found


def layer_config_figure() -> str:
    """The CI line: how many layer-config fields, and how many of them
    something outside ``tests/`` sets."""
    found = settings()
    fields = [key for key in found if key[0] in {cls.__name__ for cls in CONFIGS}]
    outside = [key for key in fields if any(not p.startswith("tests/") for p in found[key])]
    return f"layer-config fields: {len(fields)} (set outside tests: {len(outside)})"


#: Layer-config fields kept although only tests set them.
TESTS_ONLY_EXEMPT = {("DurabilityConfig", "fsync")}


def layer_fields_only_tests_set(found=None) -> list[str]:
    """Layer-config fields no call site outside ``tests/`` sets."""
    found = settings() if found is None else found
    configs = {cls.__name__ for cls in CONFIGS}
    return sorted(
        f"{cls}.{option}"
        for (cls, option), paths in found.items()
        if cls in configs
        and (cls, option) not in TESTS_ONLY_EXEMPT
        and all(path.startswith("tests/") for path in paths)
    )


def test_every_option_is_set_somewhere():
    unset = sorted(f"{cls}.{option}" for (cls, option), paths in settings().items() if not paths)
    assert unset == [], f"options no call site sets (make them constants): {unset}"


def test_every_layer_config_field_has_a_caller_outside_tests():
    assert layer_fields_only_tests_set() == [], (
        "layer-config fields only tests set (make them constants)"
    )


def test_the_tests_only_gate_sees_a_tests_only_field():
    found = {
        ("ResourceConfig", "shed"): {"tests/resources/test_x.py"},
        ("ResourceConfig", "load_weight"): {"src/repro/cli.py", "tests/y.py"},
        ("DurabilityConfig", "fsync"): {"tests/durability/test_journal.py"},
        ("StreamQueryService", "cache"): {"tests/z.py"},
    }
    assert layer_fields_only_tests_set(found) == ["ResourceConfig.shed"]


def test_the_scan_sees_each_kind_of_setting():
    found = settings()
    # A keyword in a direct call, a positional argument, a keyword
    # through a forwarder, and a string key forwarded as service_kwargs.
    assert "src/repro/durability/harness.py" in found["DurabilityConfig", "snapshot_interval"]
    assert "src/repro/cli.py" in found["StreamQueryService", "network"]
    assert "src/repro/fleet/controller.py" in found["TopDownOptimizer", "ads"]
    assert "src/repro/lab/candidate.py" in found["StreamQueryService", "adaptivity"]
