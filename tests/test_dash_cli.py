"""Smoke tests for ``repro dash`` (the telemetry control tower)."""

import json

import pytest

from repro.cli import build_parser, main


class TestDashCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["dash"])
        assert args.seed == 7
        assert args.ticks == 24
        assert args.shards == 2
        assert args.from_file is None
        assert not args.json and not args.once
        assert args.func.__name__ == "_cmd_dash"

    def test_once_json_emits_an_envelope(self, capsys):
        rc = main([
            "dash", "--once", "--json",
            "--ticks", "8", "--queries", "4", "--nodes", "24",
        ])
        assert rc == 0  # --once always exits 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "repro.telemetry"
        assert doc["series"]
        assert doc["alerts"]

    def test_terminal_render_and_firing_exit_code(self, capsys):
        rc = main(["dash", "--ticks", "12", "--queries", "6"])
        out = capsys.readouterr().out
        assert "repro dash -- fleet telemetry" in out
        assert "ALERTS" in out
        assert "flight recorder:" in out
        firing = "[firing" in out
        assert rc == (1 if firing else 0)

    def test_from_file_roundtrip_and_html(self, tmp_path, capsys):
        rc = main([
            "dash", "--once", "--json",
            "--ticks", "8", "--queries", "4", "--nodes", "24",
        ])
        assert rc == 0
        envelope = capsys.readouterr().out
        saved = tmp_path / "telemetry.json"
        saved.write_text(envelope)

        html = tmp_path / "dash.html"
        rc = main([
            "dash", "--from", str(saved), "--once", "--json",
            "--html", str(html),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # stdout: the "wrote" notice, then the identical envelope
        body = out[out.index("{"):]
        assert json.loads(body) == json.loads(envelope)
        report = html.read_text()
        assert report.startswith("<!DOCTYPE html>")
        assert "repro dash" in report
        assert "svg" in report

    def test_csv_export(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        rc = main([
            "dash", "--once",
            "--ticks", "8", "--queries", "4", "--nodes", "24",
            "--csv", str(csv),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"wrote {csv}" in out
        # writing an artifact suppresses the terminal dashboard
        assert "repro dash -- fleet telemetry" not in out
        lines = csv.read_text().splitlines()
        assert lines[0] == "series,time,value"
        assert len(lines) > 1
        # every row is series,float,float
        for row in lines[1:]:
            name, t, v = row.rsplit(",", 2)
            assert name
            float(t), float(v)

    def test_csv_matches_the_envelope(self, tmp_path, capsys):
        rc = main([
            "dash", "--once", "--json",
            "--ticks", "8", "--queries", "4", "--nodes", "24",
        ])
        assert rc == 0
        envelope = json.loads(capsys.readouterr().out)

        csv = tmp_path / "series.csv"
        rc = main([
            "dash", "--once",
            "--ticks", "8", "--queries", "4", "--nodes", "24",
            "--csv", str(csv),
        ])
        assert rc == 0
        capsys.readouterr()
        from repro.obs.timeseries import series_to_csv

        assert csv.read_text() == series_to_csv(envelope["series"])

    def test_from_file_rejects_wrong_kind(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "repro.network"}))
        rc = main(["dash", "--from", str(bad), "--once"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "telemetry envelope" in err

    @pytest.mark.parametrize(
        "field",
        (
            {"series": {"a": 5}},
            {"alerts": 5},
            {"series": {"service.x": [[1]]}},
        ),
        ids=("series-not-a-list", "alerts-not-a-list", "point-without-value"),
    )
    def test_from_file_rejects_a_malformed_field(self, tmp_path, capsys, field):
        # Each used to crash a renderer with a traceback and exit 1.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "repro.telemetry", "version": 1, **field}))
        rc = main(["dash", "--from", str(bad), "--once"])
        assert rc == 2
        assert "is not a telemetry envelope" in capsys.readouterr().err

    def test_from_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["dash", "--from", str(tmp_path / "nope.json"), "--once"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_from_garbage_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        rc = main(["dash", "--from", str(bad), "--once"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
