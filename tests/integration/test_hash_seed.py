"""Results do not follow the hash seed.

Python salts ``str`` hashing per process (``PYTHONHASHSEED``), so a set
of stream names -- a view signature's sources, predicates and filters, a
task's advertised unions -- iterates in an order the seed picks.  Rates
multiply in ascending value order, reuse groupings are enumerated by the
input positions they cover, and node loads are summed exactly, so no
such order reaches a price, a tie-break or a load.

This runs a lab scenario and the fleet chaos drill's telemetry envelope
in fresh interpreters under two hash seeds and requires both to print
the same bytes, which are what their golden files hold
(``tests/golden/``, floats to their last digits).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.golden import BY_NAME, matches

ROOT = Path(__file__).resolve().parents[2]


def run_cli(args: tuple[str, ...], hash_seed: int) -> tuple[int, str]:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize(
    "name", ["lab-resources_hotspot", "dash"], ids=["lab-resources-hotspot", "dash-fleet-drill"]
)
def test_envelope_bytes_do_not_follow_the_hash_seed(name):
    case = BY_NAME[name]
    runs = [run_cli(case.argv, seed) for seed in (0, 1)]
    assert runs[0] == runs[1]
    rc, text = runs[0]
    assert rc == case.rc
    assert matches(case.path.read_text(), text)
