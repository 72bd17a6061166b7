"""One instrumentation hook: code reports to the ambient context only.

Spans, span counters and op counts reach whatever the caller installed
with :func:`repro.obs.tracing` / :func:`repro.perf.profiled`, through
the module-level hooks of :mod:`repro.obs.tracer`.  Nothing in
``src/repro`` polls for an installed profiler, takes a tracer as an
argument, or reads one off another object.  The causal tracer rides on
messages and is a separate thing: parameters annotated with it are
exempt.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC.parent).as_posix(), ast.parse(path.read_text())


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def active_polls(modules=None) -> list[str]:
    """``active(...)`` calls anywhere in ``src/repro``."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in modules or _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "active"
    ]


def tracer_parameters(modules=None) -> list[str]:
    """Functions outside ``repro/obs/`` declaring a ``tracer`` parameter
    (the causal tracer's plumbing excepted)."""
    found = []
    for name, tree in modules or _modules():
        if name.startswith("repro/obs/"):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.arg != "tracer":
                    continue
                if arg.annotation is not None and "CausalTracer" in ast.unparse(arg.annotation):
                    continue
                found.append(f"{name}:{node.lineno}")
    return found


def foreign_tracer_reads(modules=None) -> list[str]:
    """``<object>.tracer`` attribute reads on anything but ``self``."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in modules or _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "tracer"
        and ast.unparse(node.value) != "self"
    ]


def test_no_module_polls_for_a_profiler():
    assert active_polls() == []


def test_no_function_takes_a_tracer():
    assert tracer_parameters() == []


def test_no_module_reads_a_tracer_off_another_object():
    assert foreign_tracer_reads() == []


def test_the_gate_sees_what_it_forbids():
    source = (
        "def plan(query, tracer=None):\n"
        "    prof = _perf.active()\n"
        "    return service.tracer, self.tracer\n"
        "def attach(tracer: 'CausalTracer | None'):\n"
        "    pass\n"
    )
    planted = [("repro/core/planted.py", ast.parse(source))]
    assert active_polls(planted) == ["repro/core/planted.py:2"]
    assert tracer_parameters(planted) == ["repro/core/planted.py:1"]
    assert foreign_tracer_reads(planted) == ["repro/core/planted.py:3"]
    # Inside repro/obs/ a tracer parameter is the API itself.
    assert tracer_parameters([("repro/obs/planted.py", ast.parse(source))]) == []
