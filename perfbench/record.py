"""Record the reference output of every pool entry into ``reference.json``.

Usage (from the repository root)::

    python3 perfbench/record.py

Run it only on a commit whose outputs are known to be right: the benchmark
fails any later job whose output differs from what is recorded here.  The
wall time of each entry is printed to stderr for the notes; it is not stored.
"""

from __future__ import annotations

import json
import sys

import gate
import workloads
from run import Launcher, cli_argv


def main() -> int:
    reference = {}
    with Launcher() as launcher:
        for entry in sorted(workloads.all_entries(), key=lambda e: e.id):
            p = launcher.spawn(cli_argv(entry), entry.budget_s)
            if p.returncode is None:
                print(f"timeout: {entry.id}", file=sys.stderr)
                return 1
            reference[entry.id] = gate.digest(entry.args, p.returncode, p.stdout)
            print(f"{p.end - p.start:7.2f} s  exit {p.returncode}  {entry.id}",
                  file=sys.stderr)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
