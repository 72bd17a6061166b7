"""Smoke tests for the ``trace`` and ``metrics`` CLI subcommands."""

import json

from repro.cli import build_parser, main


class TestTraceCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.query == 0
        assert args.algorithm == "top-down"
        assert args.func.__name__ == "_cmd_trace"

    def test_trace_prints_span_tree_and_explanation(self, capsys):
        rc = main([
            "trace", "--query", "0", "--nodes", "24", "--streams", "5",
            "--queries", "4", "--max-cs", "4", "--seed", "9",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimizer trace:" in out
        assert "optimize algorithm=top-down" in out
        assert "plans_examined=" in out
        assert "plan explanation:" in out
        assert "join order:" in out

    def test_trace_bottom_up(self, capsys):
        rc = main([
            "trace", "--query", "1", "--nodes", "16", "--streams", "4",
            "--queries", "3", "--max-cs", "4", "--algorithm", "bottom-up",
            "--seed", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm=bottom-up" in out
        assert "climb" in out

    def test_trace_json_output(self, capsys):
        rc = main([
            "trace", "--query", "0", "--nodes", "16", "--streams", "4",
            "--queries", "3", "--max-cs", "4", "--json", "--seed", "2",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"]["kind"] == "repro.trace"
        assert doc["trace"]["root"]["name"] == "optimize"
        assert doc["explanation"]["kind"] == "repro.explanation"
        assert doc["explanation"]["operators"]

    def test_trace_query_index_out_of_range(self, capsys):
        rc = main([
            "trace", "--query", "99", "--nodes", "16", "--streams", "4",
            "--queries", "3", "--max-cs", "4",
        ])
        assert rc == 2
        assert "--query must be in" in capsys.readouterr().err


class TestMetricsCli:
    def test_metrics_prometheus_exposition(self, capsys):
        rc = main([
            "metrics", "--nodes", "16", "--streams", "4", "--queries", "4",
            "--max-cs", "4", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE service_planning_seconds histogram" in out
        assert 'service_planning_seconds_bucket{le="+Inf"}' in out
        assert "# TYPE service_admitted_total counter" in out
        assert "# TYPE runtime_total_cost gauge" in out

    def test_metrics_json_snapshot(self, capsys):
        rc = main([
            "metrics", "--nodes", "16", "--streams", "4", "--queries", "4",
            "--max-cs", "4", "--format", "json", "--seed", "3",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["service_planning_seconds"]["type"] == "histogram"
        assert doc["service_planning_seconds"]["count"] > 0
        assert doc["service_admitted_total"]["value"] > 0
        assert doc["runtime_total_cost"]["type"] == "gauge"


class TestTraceCausalCli:
    ARGS = [
        "trace", "--query", "0", "--nodes", "24", "--streams", "5",
        "--queries", "4", "--max-cs", "4", "--seed", "9",
    ]

    def test_causal_summary_and_tree(self, capsys):
        rc = main(self.ARGS + ["--causal"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "causal trace: top-down deploying" in out
        assert "data-flow cost" in out
        assert "deploy:" in out
        assert "QuerySubmit" in out

    def test_causal_json_envelope(self, capsys):
        rc = main(self.ARGS + ["--causal", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "repro.causal_trace"
        (trace,) = doc["traces"]
        assert trace["hops"]
        assert trace["flow_cost"] > 0

    def test_chrome_export(self, capsys):
        rc = main(self.ARGS + ["--chrome"])
        assert rc == 0
        events = json.loads(capsys.readouterr().out)
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "M" for e in events)

    def test_causal_rejects_flat_algorithms(self, capsys):
        rc = main(self.ARGS + ["--causal", "--algorithm", "optimal"])
        assert rc == 2
        assert "hierarchical" in capsys.readouterr().err
