"""Self-test of the benchmark harness at ``--scale smoke``.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of tier-1).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.e2e import compare, metrics, run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def drive(workload: str, seed: int, trace: int) -> dict:
    """One run of the driver's command line at smoke scale."""
    done = subprocess.run(
        [*DECLARED["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, cwd=ROOT,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.fixture(scope="module")
def runs() -> dict:
    """(workload, seed, trace) -> metrics, each combination run once."""
    cache: dict = {}

    def get(workload: str, seed: int, trace: int) -> dict:
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = drive(*key)
        return cache[key]

    return get


def test_benchmark_json_matches_the_metric_tables():
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert WORKLOADS == list(metrics.ALL)
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + WORKLOADS)
    for row in DECLARED["end_to_end"]:
        unit, better, bound, workloads = metrics.END_TO_END[row["name"]]
        assert (row["unit"], row["better"]) == (unit, better)
        assert workloads == metrics.ALL and 0 < row["bound"] <= 0.25
        # Across seeds cost_ratio needs room; between runs of one seed it has none.
        assert row["bound"] == bound or row["name"] == "cost_ratio"
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}
    listed = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]}
    assert listed == metrics.PER_LAYER
    # The layers_on-only timings are suite metrics, listed per layer.
    assert set(metrics.SUITE_ONLY) <= set(listed)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_once_with_its_unit(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        found = runs(workload, 11, trace)
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        assert {n: v["unit"] for n, v in found.items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in found.values())
    assert all(v["value"] > 0 for v in runs(workload, 11, 0).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed_and_differ_for_another(runs, workload):
    first = {**runs(workload, 11, 0), **runs(workload, 11, 1)}
    again = {**drive(workload, 11, 0), **drive(workload, 11, 1)}
    other = {**runs(workload, 12, 0), **runs(workload, 12, 1)}
    exact = [
        name
        for name, row in first.items()
        if row["unit"] in metrics.EXACT_UNITS or name == "cost_ratio"
    ]
    assert "cost_ratio" in exact and len(exact) > 10
    assert {n: first[n]["value"] for n in exact} == {n: again[n]["value"] for n in exact}
    assert first["cost_ratio"]["value"] != other["cost_ratio"]["value"]
    assert any(first[n]["value"] != other[n]["value"] for n in exact if n != "cost_ratio")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_file_is_a_forest_with_children_inside_parents(runs, workload):
    runs(workload, 11, 1)
    doc = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    spans = doc["spans"]
    assert spans and doc["workload"] == workload
    for name, start, end, parent, op in spans:
        assert 0 <= name < len(doc["names"]) and 0 <= op < len(doc["ops"])
        assert start <= end
        if parent >= 0:
            _n, p_start, p_end, _p, _o = spans[parent]
            assert parent < len(spans) and p_start <= start and end <= p_end


def test_workloads_stress_the_layer_they_were_chosen_for(runs):
    churn = runs("churn_warm", 11, 1)
    assert churn["core.top_down.plan_calls"]["value"] == 0
    assert churn["service.cache.hit_ratio"]["value"] == 1.0
    cold = runs("plan_cold", 11, 1)
    assert cold["service.cache.hit_ratio"]["value"] == 0.0
    assert cold["core.top_down.plan_calls"]["value"] > 0
    assert runs("fleet_shards", 11, 1)["core.bottom_up.plan_calls"]["value"] > 0
    layers = runs("layers_on", 11, 1)
    for name in ("resources.gate_ms", "durability.snapshot_calls", "recover_s", "reopt_s"):
        assert layers[name]["value"] > 0
        assert cold[name]["value"] == 0


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(
        run, "planner_sanity", lambda seed, tally: tally.check(False, "injected failure")
    )
    code = run.main(["--workload", "plan_cold", "--scale", "smoke", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["failed"] == 1 and result["correct"] is False


def test_suite_result_carries_provenance_and_compares(tmp_path, capsys):
    out = tmp_path / "a.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.run", "--scale", "smoke", "--seconds", "1",
         "--reps", "2", "--trace", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    for key in ("seed", "reps", "seconds", "scale_factor", "nproc", "python", "numpy",
                "commit", "total_run_s"):  # fmt: skip
        assert key in result
    for workload, entry in result["workloads"].items():
        assert entry["failed"] == 0
        expected = {n for n, spec in metrics.END_TO_END.items() if workload in spec[3]}
        assert set(entry["metrics"]) == expected
        assert all(len(m["values"]) == 2 and m["samples"] >= 1 for m in entry["metrics"].values())
        assert set(entry["per_layer"]) == set(metrics.PER_LAYER)
        assert f"{workload}:" in done.stdout
    assert "reopt_s" in result["workloads"]["layers_on"]["metrics"]
    assert "reopt_s" not in result["workloads"]["plan_cold"]["metrics"]

    assert compare.main([str(out), str(out)]) == 0
    assert "0 worse" in capsys.readouterr().out
    slower = json.loads(out.read_text())
    row = slower["workloads"]["plan_cold"]["metrics"]["admit_per_s"]
    for key in ("median", "q1", "q3"):
        row[key] /= 2
    row["values"] = [v / 2 for v in row["values"]]
    slower["workloads"]["fleet_shards"]["metrics"]["failed_share"]["median"] = 0.01
    doctored = tmp_path / "b.json"
    doctored.write_text(json.dumps(slower))
    assert compare.main([str(out), str(doctored)]) == 1
    report = capsys.readouterr().out
    assert "2 worse" in report and "admit_per_s" in report
