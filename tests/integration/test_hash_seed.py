"""Results do not follow the hash seed.

Python salts ``str`` hashing per process (``PYTHONHASHSEED``), so a set
of stream names -- a view signature's sources, predicates and filters, a
task's advertised unions -- iterates in an order the seed picks.  Rates
multiply in ascending value order, reuse groupings are enumerated by the
input positions they cover, and node loads are summed exactly, so no
such order reaches a price, a tie-break or a load.

This runs a lab scenario and the fleet chaos drill's telemetry envelope
in fresh interpreters under two hash seeds and requires the same bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def run_cli(args: list[str], hash_seed: int) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
        timeout=300,
    )
    return done.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["lab", "run", "benchmarks/scenarios/resources_hotspot.json", "--quiet", "--json", "-"],
        ["dash", "--once", "--json"],
    ],
    ids=["lab-resources-hotspot", "dash-fleet-drill"],
)
def test_envelope_bytes_do_not_follow_the_hash_seed(args):
    first, second = (run_cli(args, seed) for seed in (0, 1))
    assert first, "the command printed no envelope"
    assert first == second
