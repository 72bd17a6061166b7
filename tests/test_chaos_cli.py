"""End-to-end smoke tests for the ``chaos`` subcommand."""

import json

import repro
from repro.cli import build_parser, main


class TestChaosCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 0
        assert args.duration == 40.0
        assert args.func.__name__ == "_cmd_chaos"

    def test_chaos_drill_validates_clean(self, capsys):
        rc = main([
            "chaos", "--seed", "7", "--duration", "30",
            "--nodes", "24", "--streams", "5", "--queries", "6",
            "--max-cs", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos drill" in out
        assert "fault plan:" in out
        assert "faults applied:" in out
        assert "validation: hierarchy invariants hold" in out

    def test_emit_plan_prints_a_loadable_fault_plan(self, capsys):
        rc = main([
            "chaos", "--seed", "7", "--duration", "30",
            "--nodes", "24", "--streams", "5", "--queries", "6",
            "--max-cs", "4", "--emit-plan",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["kind"] == "repro.fault_plan"
        plan = repro.fault_plan_from_json(out)
        assert len(plan) > 0

    def test_plan_file_round_trip(self, capsys, tmp_path):
        common = [
            "--duration", "25", "--nodes", "24", "--streams", "5",
            "--queries", "6", "--max-cs", "4",
        ]
        rc = main(["chaos", "--seed", "3", *common, "--emit-plan"])
        assert rc == 0
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        rc = main(["chaos", "--seed", "3", *common, "--plan", str(plan_file)])
        assert rc == 0
        assert "validation:" in capsys.readouterr().out

    def test_missing_plan_file_is_a_usage_error(self, capsys, tmp_path):
        rc = main(["chaos", "--plan", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_plan_file_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "repro.network"}')
        rc = main(["chaos", "--plan", str(bad)])
        assert rc == 2
        assert "not a fault plan" in capsys.readouterr().err

    def test_a_crash_matrix_without_state_dir_leaves_no_directory(self, capsys, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        rc = main(["chaos", "--crash-points", "1", "--crash-scope", "service", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["converged"]
        assert list(tmp_path.iterdir()) == []
