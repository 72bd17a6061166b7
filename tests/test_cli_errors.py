"""Bad input to the CLI is a usage error: one ``error:`` line, exit 2."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

#: The world every service-driving subcommand builds, kept small.
BASE = ["--nodes", "8", "--streams", "3", "--queries", "2", "--max-cs", "4"]


def usage_error(argv, capsys) -> str:
    """Run ``argv``; assert one ``error:`` line and exit 2; return it."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        *[[cmd, *BASE, "--repeats", "0"]
          for cmd in ("serve", "fleet", "resources", "metrics")],
        *[[cmd, *BASE, "--arrivals", "0"]
          for cmd in ("serve", "fleet", "resources")],
        ["serve", *BASE, "--lifetime", "0"],
        ["serve", *BASE, "--nodes", "2"],
        ["serve", *BASE, "--streams", "1"],
        ["dash", "--once", "--nodes", "3"],
        ["dash", "--once", "--shards", "0"],
        ["adapt", *BASE, "--factor", "0"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_a_bad_count_is_a_usage_error(argv, capsys):
    usage_error(argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["dash", "--from", "{path}", "--once"],
        ["lab", "report", "{path}"],
        ["chaos", "--plan", "{path}"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_json_document_that_is_no_object_is_refused(argv, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    argv = [str(path) if a == "{path}" else a for a in argv]
    assert f"{path} is not a" in usage_error(argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--causal", "--json", "--query", "0", *BASE],
        ["chaos", "--emit-plan", *BASE],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_closed_output_pipe_exits_141_without_a_traceback(argv):
    """``repro ... | head`` closes the pipe under a command's output:
    exit as a process killed by SIGPIPE, and print nothing."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
