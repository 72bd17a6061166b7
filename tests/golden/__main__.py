"""``python -m tests.golden [--update] [NAME ...]``: check or rewrite the corpus.

``python -m tests.golden --smoke DIR``: run every command of
:data:`~tests.golden.SMOKE` in a fresh interpreter, in order, with its
scratch files under ``DIR``, and exit 1 if any returns another exit
code than the one it is listed with.

Run from the repository root with ``PYTHONPATH=src``.  Without
``--update`` or ``--smoke`` it prints each case that differs from its
file and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import subprocess
import sys
from pathlib import Path

from tests.golden import BY_NAME, CASES, HERE, SMOKE, matches, run

ROOT = HERE.parents[1]


def smoke(tmp: Path) -> int:
    """Run :data:`SMOKE`; the number of commands whose exit code differs."""
    tmp.mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    wrong = 0
    for command in SMOKE:
        argv, target = command.subprocess_argv(tmp)
        print(f"$ {command.line.format(tmp=tmp)}", flush=True)
        with open(target, "w") if target else contextlib.nullcontext() as out:
            done = subprocess.run(argv, cwd=ROOT, env=env, stdout=out)
        if done.returncode != command.rc:
            print(f"error: exit {done.returncode}, expected {command.rc}", file=sys.stderr, flush=True)
            wrong += 1
    return wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    parser.add_argument("--update", action="store_true", help="rewrite the golden files")
    parser.add_argument("--smoke", metavar="DIR", type=Path,
                        help="run every smoke command, scratch files in DIR")
    parser.add_argument("names", nargs="*", metavar="NAME", help="cases to run (default: all)")
    args = parser.parse_args(argv)
    if args.smoke:
        if args.update or args.names:
            parser.error("--smoke runs every command; it takes no NAME or --update")
        return 1 if smoke(args.smoke) else 0
    unknown = sorted(set(args.names) - set(BY_NAME))
    if unknown:
        parser.error(f"unknown case(s): {', '.join(unknown)}")
    differ = 0
    for case in [BY_NAME[name] for name in args.names] or CASES:
        rc, text = run(case)
        if rc != case.rc:
            print(f"{case.name}: exit {rc}, expected {case.rc}", file=sys.stderr)
            differ += 1
        elif args.update:
            case.path.write_text(text)
            print(f"wrote {case.path.name}")
        elif not case.path.is_file() or not matches(case.path.read_text(), text):
            print(f"differs: {case.name}")
            differ += 1
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
