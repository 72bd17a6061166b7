"""Smoke tests: the shipped examples must run end to end.

Each example is executed in-process (importing its module and calling
``main()``), asserting it completes and prints its headline sections.
The slowest examples are exercised at reduced scale by the benchmarks
instead.
"""

import importlib.util
import io
import pathlib
from contextlib import redirect_stdout

import pytest

from tests.query.replay import assert_replays

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _run_example(stem: str):
    """``(stdout, main()'s return value)`` of one example."""
    spec = importlib.util.spec_from_file_location(stem, EXAMPLES_DIR / f"{stem}.py")
    assert spec and spec.loader
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        result = module.main()
    return buffer.getvalue(), result


class TestExamples:
    def test_airline_ois(self):
        out, _ = _run_example("airline_ois")
        assert "Network-aware join ordering" in out
        assert "Operator reuse" in out
        assert "reused the deployed" in out

    def test_network_monitoring(self):
        out, _ = _run_example("network_monitoring")
        assert "deploying the dashboards" in out
        assert "saved by sharing" in out

    def test_quickstart(self):
        out, _ = _run_example("quickstart")
        assert "Cumulative communication cost" in out
        assert "top-down is within" in out

    def test_adaptive_runtime(self):
        out, service = _run_example("adaptive_runtime")
        assert "adaptation recovered" in out
        assert "queries migrated: 2 of 8" in out
        # The printed lines come from a state a fresh one can rebuild.
        assert_replays(service)
