"""CLI surface of the durability layer: recover, chaos --crash-points,
and the serve/fleet --state-dir plumbing."""

import json

import pytest

from repro.cli import build_parser, main
from repro.durability.harness import run_steps, service_scenario
from repro.durability.journal import JOURNAL_FILE


def _crashed_state_dir(tmp_path):
    """A finished scripted run with a torn journal tail."""
    scenario = service_scenario()
    state_dir = tmp_path / "state"
    controller = scenario.factory(state_dir)
    run_steps(scenario, controller)
    journal = state_dir / JOURNAL_FILE
    raw = journal.read_bytes()
    journal.write_bytes(raw[: len(raw) - 9])
    return state_dir


class TestRecoverCli:
    def test_parser(self):
        args = build_parser().parse_args(["recover", "/tmp/x"])
        assert args.state_dir == "/tmp/x" and not args.json
        assert args.func.__name__ == "_cmd_recover"

    def test_inspect_reports_the_torn_tail(self, tmp_path, capsys):
        state_dir = _crashed_state_dir(tmp_path)
        rc = main(["recover", str(state_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "would drop: 1 line(s)" in out
        assert "snapshot" in out
        assert "recovery would" in out

    def test_inspect_json_is_machine_readable(self, tmp_path, capsys):
        state_dir = _crashed_state_dir(tmp_path)
        rc = main(["recover", str(state_dir), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["journal"]["dropped_lines"] == 1
        assert doc["journal"]["dropped_bytes"] > 0
        assert doc["recovery"]["scope"] == "service"

    def test_a_snapshot_of_another_state_version_is_an_error_line(self, tmp_path, capsys):
        from repro.durability import load_latest
        from repro.durability.snapshot import SnapshotWriter

        state_dir = _crashed_state_dir(tmp_path)
        snapshot, _ = load_latest(state_dir)
        snapshot["state"]["version"] = 7
        SnapshotWriter(state_dir).write(
            snapshot["lsn"], snapshot["scope"], snapshot["state"], time=snapshot["time"]
        )
        rc = main(["recover", str(state_dir)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            "error: snapshot state version is 7, this build restores version 1\n"
        )

    def test_missing_directory_fails_cleanly(self, tmp_path, capsys):
        rc = main(["recover", str(tmp_path / "absent")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestServeStateDir:
    def test_serve_journals_when_asked(self, tmp_path, capsys):
        rc = main([
            "serve", "--nodes", "24", "--streams", "5", "--queries", "4",
            "--budget", "4", "--repeats", "1", "--lifetime", "3",
            "--max-cs", "4", "--seed", "9",
            "--state-dir", str(tmp_path / "state"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "durability:" in out
        assert (tmp_path / "state" / JOURNAL_FILE).exists()

    def test_serve_stays_in_memory_by_default(self, capsys):
        rc = main([
            "serve", "--nodes", "24", "--streams", "5", "--queries", "4",
            "--budget", "4", "--repeats", "1", "--lifetime", "3",
            "--max-cs", "4", "--seed", "9",
        ])
        assert rc == 0
        assert "durability:" not in capsys.readouterr().out


class TestFleetStateDir:
    def test_fleet_journals_when_asked(self, tmp_path, capsys):
        rc = main([
            "fleet", "--shards", "2", "--nodes", "24", "--streams", "5",
            "--queries", "4", "--budget", "4", "--repeats", "1",
            "--lifetime", "3", "--max-cs", "4", "--seed", "9",
            "--state-dir", str(tmp_path / "state"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "durability:" in out
        assert (tmp_path / "state" / JOURNAL_FILE).exists()


class TestChaosCrashPoints:
    def test_small_service_matrix_converges(self, tmp_path, capsys):
        rc = main([
            "chaos", "--crash-points", "3", "--crash-scope", "service",
            "--state-dir", str(tmp_path / "matrix"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crash-restart matrix: service scenario" in out
        assert "3/3 crash points converged" in out

    def test_json_report(self, tmp_path, capsys):
        rc = main([
            "chaos", "--crash-points", "2", "--crash-scope", "service",
            "--state-dir", str(tmp_path / "matrix"), "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert len(doc["points"]) == 2
        assert all(p["digest_match"] for p in doc["points"])

    @pytest.mark.parametrize("scope", ["service", "fleet", "layers"])
    def test_the_json_report_names_the_scope_it_ran(self, scope, tmp_path, capsys):
        rc = main([
            "chaos", "--crash-points", "1", "--crash-scope", scope,
            "--state-dir", str(tmp_path / "matrix"), "--json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["scope"] == scope

    def test_the_layered_scope_runs_the_all_layers_scenario(self, tmp_path, capsys):
        rc = main([
            "chaos", "--crash-points", "2", "--crash-scope", "layers",
            "--state-dir", str(tmp_path / "matrix"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("crash-restart matrix: layers scenario")
        assert "2/2 crash points converged" in out
        # The only scenario whose snapshots carry a faults section.
        from repro.durability import load_latest

        snapshot, _ = load_latest(tmp_path / "matrix" / "probe")
        assert snapshot["state"]["faults"]["applied"]
