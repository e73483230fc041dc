"""Print the sha256 of the stdout of a fixed list of sparselb commands, or
check them against a recorded file.

Each command runs in-process through sparselb.cli.main, and each line
printed is the digest, two spaces and the command.  With --check FILE the
script compares the digests with the lines of FILE, names every command
whose digest differs or that FILE lacks, and exits with status 1 if any
does.

    python3 tools/cli_digests.py [--check FILE]

tools/cli_digests.txt holds the digests of the code as it stands, and the
test suite checks them.  A change that alters one of these outputs on
purpose records the file again (python3 tools/cli_digests.py >
tools/cli_digests.txt) and says in CHANGES.md which outputs moved and why.
It imports sparselb from the src directory next to this script.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparselb import cli  # noqa: E402

COMMANDS = [
    "simulate --policy aujsq-exp:0.85 --n 50 --horizon 200 --runs 3",
    "sweep --n 30 --policies sujsq-exp aujsq-det random jiq-p jsq-d:2 --sweep 0.3 0.7 "
    "--runs 2 --horizon 60 --warmup 12",
    "validate --budget smoke --seed 3",
    "fluid sync",
    "fluid async --des-runs 1",
    "fluid async --delta 0.3 --t-end 20",
    "fixed-point",
    "fixed-point --delta-grid 0.3 0.85 2.5",
    "fixed-point --lambda 0.5 --delta 1.000001",
    # a sync run with 50 of its 250 epochs on a store time, an async run
    # whose t_end is off the grid, and an async run from the fixed point
    "fluid sync --delta 2.5 --t-end 100 --grid-dt 1",
    "fluid async --t-end 7.3 --grid-dt 0.2",
    "fluid async --y0 fixed-point --t-end 5",
]


def digest(command: str) -> str:
    """The sha256 of what the command writes to stdout; a command that
    exits through argparse counts with what it wrote before."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        cli.main(shlex.split(command))
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="compare with the digests in FILE")
    args = parser.parse_args(argv)
    recorded = {}
    if args.check:
        for line in Path(args.check).read_text().splitlines():
            sha, command = line.split("  ", 1)
            recorded[command] = sha
    differ = []
    for command in COMMANDS:
        sha = digest(command)
        print(f"{sha}  {command}")
        if args.check and recorded.get(command) != sha:
            differ.append(command)
    for command in differ:
        print(f"differs: {command}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
