"""Record the expected report digests in digests.json.

Run from the root of a qweyl checkout:

    python3 perfbench/record_digests.py

It runs every command any seed of any workload can issue, at both sizes,
through ``qweyl.cli.main`` and stores the SHA-256 of each report's exact
bytes.  It refuses to record a command that exits nonzero or reports a
failing relation.  Reports are meant to stay byte-identical, so re-record
only when a change alters a report on purpose, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import workloads
from child import summarize
from run import DIGESTS


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import qweyl.cli

    digests = {}
    for size in workloads.SIZES:
        for argv in workloads.all_commands(size):
            key = workloads.command_key(argv)
            if key in digests:
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = qweyl.cli.main(list(argv))
            summary = summarize(argv, code, buf.getvalue(), 0.0)
            if code != 0 or summary["failed_relations"]:
                print(f"error: not recording a failing command: {key}",
                      file=sys.stderr)
                return 1
            digests[key] = summary["digest"]
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
