"""One instrumentation hook: code reports to the ambient context only.

Spans, span counters, op counts and causal message hops reach whatever
the caller installed with :func:`repro.obs.tracing`,
:func:`repro.perf.profiled` and :func:`repro.obs.causal_tracing`,
through the context of :mod:`repro.obs.tracer`.  Nothing in
``src/repro`` polls for an installed profiler, takes a span or causal
tracer as an argument, or reads one off another object.  Only the
serializers that export a causal tracer they are handed take one.
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


#: Parameter and attribute names that carry a span or causal tracer.
TRACER_NAMES = ("tracer", "causal")

#: The serializers that export a causal tracer they are handed.
SERIALIZERS = {
    ("repro/serialization.py", "causal_trace_to_json"),
    ("repro/serialization.py", "chrome_trace_to_json"),
}


def _takes_a_tracer(arg: ast.arg) -> bool:
    if arg.arg in TRACER_NAMES:
        return True
    return arg.annotation is not None and "CausalTracer" in ast.unparse(arg.annotation)


def tracer_parameters(modules=None) -> list[str]:
    """Functions outside ``repro/obs/`` taking a span or causal tracer:
    a ``tracer`` / ``causal`` parameter, or one annotated
    ``CausalTracer`` (the serializers excepted)."""
    found = []
    for name, tree in modules or _modules():
        if name.startswith("repro/obs/"):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (name, getattr(node, "name", None)) in SERIALIZERS:
                continue
            args = node.args
            if any(
                _takes_a_tracer(arg)
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            ):
                found.append(f"{name}:{node.lineno}")
    return found


def foreign_tracer_reads(modules=None) -> list[str]:
    """``<object>.tracer`` / ``<object>.causal`` reads on anything but
    ``self`` or an argparse namespace (``args.causal`` is the
    ``--causal`` flag, not a tracer)."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in modules or _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in TRACER_NAMES
        and ast.unparse(node.value) not in ("self", "args")
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
        "def attach(trace: 'CausalTracer | None'):\n"
        "    pass\n"
        "def build(network, causal=None):\n"
        "    return service.causal, self.causal, args.causal\n"
        "def causal_trace_to_json(tracer: CausalTracer):\n"
        "    pass\n"
    )
    planted = [("repro/core/planted.py", ast.parse(source))]
    assert active_polls(planted) == ["repro/core/planted.py:2"]
    assert tracer_parameters(planted) == [
        "repro/core/planted.py:1",
        "repro/core/planted.py:4",
        "repro/core/planted.py:6",
        "repro/core/planted.py:8",
    ]
    assert foreign_tracer_reads(planted) == [
        "repro/core/planted.py:3",
        "repro/core/planted.py:7",
    ]
    # Inside repro/obs/ a tracer parameter is the API itself, and the
    # serializers export the causal tracer they are handed.
    assert tracer_parameters([("repro/obs/planted.py", ast.parse(source))]) == []
    serializers = [("repro/serialization.py", ast.parse(source))]
    assert tracer_parameters(serializers) == [
        "repro/serialization.py:1",
        "repro/serialization.py:4",
        "repro/serialization.py:6",
    ]
