"""The CI smoke commands, in one list, and the golden corpus of their outputs.

:data:`SMOKE` is every command CI's smoke step runs, in order, with the
exit code it must return.  CI runs it (``python -m tests.golden --smoke
DIR``), ``tests/census.py`` traces it, and the commands that name a
golden file are the corpus: their stdout is kept in
``tests/golden/<file>``.  ``test_golden.py`` runs each of those in
process through :func:`repro.cli.main` and compares its output with the
file, and ``tests/integration/test_hash_seed.py`` compares
fresh-interpreter runs under two hash seeds against the same files.
Floats compare to nine significant digits (:func:`matches`); every other
character must be equal.  A change that moves an output regenerates the
corpus and shows the move as a file diff::

    PYTHONPATH=src python -m tests.golden            # report what differs
    PYTHONPATH=src python -m tests.golden --update   # rewrite the files
    PYTHONPATH=src python -m tests.golden --smoke /tmp/smoke   # run all of SMOKE

Nothing is masked: every output depends only on the seed and the
command line, so a wall-clock reading in one fails here.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

_SMALL = "--nodes 24 --streams 5"
_TRACE = f"--query 0 {_SMALL} --queries 4 --max-cs 4 --seed 9"
_CHURN = f"{_SMALL} --queries 8 --repeats 2 --lifetime 3 --max-cs 4 --seed 9"
_ADAPT = f"--seed 2 {_SMALL} --queries 4 --ticks 20"


@dataclass(frozen=True)
class Command:
    """One command line, run from the repository root.

    ``repro`` is ``python -m repro.cli``; ``{tmp}`` is a scratch directory
    every command of a run shares; ``> FILE`` sends stdout to ``FILE``.
    """

    line: str
    rc: int = 0
    golden: str | None = None  # file under tests/golden/ holding its stdout

    @property
    def name(self) -> str:
        return Path(self.golden or "").stem

    @property
    def path(self) -> Path:
        return HERE / self.golden

    @property
    def argv(self) -> list[str]:
        """The ``repro`` arguments, for :func:`run`."""
        return shlex.split(self.line.partition(" > ")[0])[1:]

    def subprocess_argv(self, tmp: Path) -> tuple[list[str], str | None]:
        """``(argv for a fresh interpreter, file its stdout goes to)``."""
        line, _, target = self.line.format(tmp=tmp).partition(" > ")
        argv = shlex.split(line)
        if argv[0] == "repro":
            argv = ["python", "-m", "repro.cli", *argv[1:]]
        if argv[0] == "python":
            argv[0] = sys.executable
        return argv, target or None


SMOKE: tuple[Command, ...] = (
    # Observability.
    Command("repro trace --query 0 --nodes 24 --streams 5 --queries 4 --max-cs 4 --seed 9"),
    Command("repro trace --query 0 --nodes 16 --streams 4 --queries 3 --max-cs 4 --json --seed 2"
            " > {tmp}/trace.json"),
    Command("repro trace --algorithm bottom-up --query 0 --nodes 24 --streams 5 --queries 4"
            " --max-cs 4 --seed 9"),
    Command("repro trace --algorithm bottom-up --query 0 --nodes 16 --streams 4 --queries 3"
            " --max-cs 4 --json --seed 2 > {tmp}/trace-bottom-up.json"),
    Command("repro metrics --nodes 16 --streams 4 --queries 4 --max-cs 4 --seed 3"),
    Command("repro metrics --nodes 16 --streams 4 --queries 4 --max-cs 4 --format json --seed 3"
            " > {tmp}/metrics.json"),
    # Chaos: a fault plan written out and read back runs the same drill.
    Command("repro chaos --seed 7 --duration 50", golden="chaos-seed7.txt"),
    Command("repro chaos --seed 7 --duration 50 --emit-plan > {tmp}/plan.json"),
    Command("repro chaos --seed 7 --duration 50 --plan {tmp}/plan.json"),
    # Crash-restart: the 2-shard fleet, the single service (the two
    # snapshot capture paths) and the layered service (resilience,
    # faults, adaptivity and resources armed: the only one with a faults
    # snapshot section and cutovers under faults).  Every crash-restart
    # must recover to a byte-identical digest (exit 1 on divergence);
    # six points keep the ones that restore a snapshot.
    *(
        command
        for scope in ("fleet", "service", "layers")
        for command in (
            Command(f"repro chaos --crash-points 6 --crash-scope {scope}"
                    f" --state-dir {{tmp}}/crash-{scope}"),
            Command(f"repro recover {{tmp}}/crash-{scope}/probe"),
            Command(f"repro chaos --crash-points 6 --crash-scope {scope} --json"
                    f" > {{tmp}}/crash-{scope}.json", golden=f"crash-{scope}.json"),
        )
    ),
    # Fleet control plane.
    Command(f"repro fleet --shards 3 {_SMALL} --queries 8 --budget 4 --repeats 2 --lifetime 3"
            " --max-cs 4 --seed 9"),
    Command(f"repro fleet --shards 2 --policy hash --tenant gold:3 --tenant bronze:1 {_SMALL}"
            " --queries 8 --budget 4 --repeats 2 --lifetime 3 --max-cs 4 --seed 9 --json"
            " > {tmp}/fleet-tenants.json", golden="fleet-tenants.json"),
    # Resource-aware placement.  The defaults park queries and re-admit
    # them; the hotspot profile leaves queries that never fit (rc 1).
    Command(f"repro resources --cpu 5000 --memory 5000 --bandwidth 5000 {_CHURN}"),
    Command(f"repro resources --capacity-profile unbounded {_CHURN} --json > {{tmp}}/unbounded.json"),
    Command("repro resources --json > {tmp}/resources.json", golden="resources.json"),
    Command("repro resources --capacity-profile hotspot --json > {tmp}/resources-hotspot.json", rc=1,
            golden="resources-hotspot.json"),
    Command("repro resources --capacity-profile heterogeneous --json"
            " > {tmp}/resources-heterogeneous.json", golden="resources-heterogeneous.json"),
    # Adaptivity.
    Command(f"repro adapt {_ADAPT}"),
    Command(f"repro adapt {_ADAPT} --emit-timeline > {{tmp}}/adapt-timeline.json",
            golden="adapt-timeline.json"),
    Command(f"repro adapt {_ADAPT} --drift ramp"),
    Command(f"repro adapt {_ADAPT} --drift periodic"),
    Command("repro demo adaptive"),
    # Causal traces.
    Command(f"repro trace --causal {_TRACE}"),
    Command(f"repro trace --causal --json {_TRACE} > {{tmp}}/trace-causal.json",
            golden="trace-causal.json"),
    Command(f"repro trace --causal --algorithm bottom-up {_TRACE}"),
    Command(f"repro trace --chrome {_TRACE} > {{tmp}}/trace-chrome.json", golden="trace-chrome.json"),
    # Telemetry dashboard: a saved envelope, and the flight bundles the
    # layered crash run persisted.
    Command("repro dash --once --json > {tmp}/dash-default.json", golden="dash.json"),
    Command("repro dash --once --json --ticks 12 --queries 6 --nodes 24 > {tmp}/env.json"),
    Command("repro dash --once --ticks 12 --queries 6 --nodes 24 --html {tmp}/dash.html"),
    Command("repro dash --from {tmp}/env.json --once"),
    Command("repro dash --from {tmp}/crash-layers/probe --once"),
    # Scenario lab: the smoke panel with its HTML, envelope and CSV, and
    # every shipped scenario's envelope.
    Command("repro lab list"),
    Command("repro lab run benchmarks/scenarios/lab_smoke.json --html {tmp}/lab_smoke.html"
            " --json {tmp}/lab_smoke.json --csv {tmp}/lab_smoke.csv"),
    Command("repro lab report {tmp}/lab_smoke.json --json > {tmp}/lab_report.json"),
    *(
        Command(f"repro lab run benchmarks/scenarios/{spec} --quiet --json -"
                f" > {{tmp}}/lab-{Path(spec).stem}.json", golden=f"lab-{Path(spec).stem}.json")
        for spec in ("drift_adapt.toml", "fleet_reuse.json", "lab_smoke.json", "resources_hotspot.json")
    ),
)

#: The golden corpus: the commands of :data:`SMOKE` that name a file.
CASES: tuple[Command, ...] = tuple(command for command in SMOKE if command.golden)
BY_NAME = {case.name: case for case in CASES}

#: A float literal: digits after a point, or an exponent.
_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def matches(golden: str, text: str) -> bool:
    """Whether ``text`` is ``golden`` up to the last digits of its floats.

    Python 3.12's ``sum()`` adds floats with compensation where 3.10 and
    3.11 add them left to right, so a cost total can end in another digit
    on another interpreter (a relative 1e-15 or less across the corpus).
    Everything else, integers included, must be equal character for
    character.
    """
    if golden == text:
        return True
    if _FLOAT.split(golden) != _FLOAT.split(text):
        return False
    return all(
        a == b or math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
        for a, b in zip(_FLOAT.findall(golden), _FLOAT.findall(text))
    )


def run(case: Command) -> tuple[int, str]:
    """Run ``case`` in this interpreter: ``(exit code, stdout)``."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(case.argv)
    return rc, out.getvalue()
