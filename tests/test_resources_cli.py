"""End-to-end smoke tests for the ``resources`` subcommand."""

import json

from repro.cli import build_parser, main

SMALL = [
    "--nodes", "24", "--streams", "5", "--queries", "8",
    "--repeats", "2", "--lifetime", "3",
    "--max-cs", "4", "--seed", "9",
]


class TestResourcesCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["resources"])
        assert args.capacity_profile == "uniform"
        assert args.utilization_bound == 1.0
        assert args.load_weight == 0.0
        assert args.func.__name__ == "_cmd_resources"

    ROOMY = ["--cpu", "5000", "--memory", "5000", "--bandwidth", "5000"]

    def test_uniform_profile_feasible(self, capsys):
        rc = main(["resources", *self.ROOMY, *SMALL])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resource-aware placement: top-down" in out
        assert "profile uniform" in out
        assert "max utilization" in out
        assert "feasibility: ok" in out

    def test_unbounded_profile_is_passive(self, capsys):
        rc = main(["resources", "--capacity-profile", "unbounded", *SMALL])
        assert rc == 0
        assert "unconstrained" in capsys.readouterr().out

    def test_starved_fleet_exits_1(self, capsys):
        rc = main([
            "resources", "--cpu", "10", "--memory", "10", "--bandwidth", "10",
            "--lifetime", "50", *SMALL[:-4],
        ])
        assert rc == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_idle_nodes_are_not_hot(self, capsys):
        # After the drain every node is at 0.00: none of them is hot.
        rc = main(["resources", *self.ROOMY, *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "  hot nodes: none\n" in out
        assert "=0.00" not in out

    def test_json_report(self, capsys):
        rc = main(["resources", "--json", *self.ROOMY, *SMALL])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity_profile"] == "uniform"
        assert payload["infeasible"] is False
        assert payload["resources"]["ledger"]["constrained"] is True
        assert payload["resources"]["utilization_bound"] == 1.0
        assert payload["admitted"] > 0

    def test_json_infeasible_exits_1(self, capsys):
        rc = main([
            "resources", "--json",
            "--cpu", "10", "--memory", "10", "--bandwidth", "10",
            "--lifetime", "50", *SMALL[:-4],
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["infeasible"] is True
        assert payload["resources"]["parked"]

    def test_hotspot_profile_runs(self, capsys):
        rc = main([
            "resources", "--capacity-profile", "hotspot",
            "--cpu", "2000", "--memory", "2000", "--bandwidth", "2000",
            *SMALL,
        ])
        out = capsys.readouterr().out
        assert "profile hotspot" in out
        assert rc in (0, 1)

    def test_heterogeneous_profile_runs(self, capsys):
        rc = main([
            "resources", "--capacity-profile", "heterogeneous", *SMALL,
        ])
        out = capsys.readouterr().out
        assert "profile heterogeneous" in out
        assert rc in (0, 1)

    def test_bad_bound_exits_2(self, capsys):
        rc = main(["resources", "--utilization-bound", "-1", *SMALL])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
