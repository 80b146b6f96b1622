"""Record the reference output digests that `run.py` compares at its default seed.

    python3 perfbench/record_digests.py

Runs the first REFERENCE_COMMANDS commands of each session workload at the
reference seed and every `analyze` command, checks each one, and writes
the sha256 of every transcript, report and `analyze` stdout to
reference_digests.json.  Rerun it only on a commit whose outputs are known
good; outputs that differ from the recorded bytes fail the benchmark.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import checks
import run
from workloads import WORKLOADS, cycles

REFERENCE_SEED = 0
REFERENCE_COMMANDS = 256


def main() -> int:
    run.import_program()
    table = {"seed": REFERENCE_SEED}
    for name, workload in WORKLOADS.items():
        runner = run.Runner(workload, REFERENCE_SEED, run.OUT / name, {})
        if workload.kind == "analyze":
            commands = next(cycles(workload, REFERENCE_SEED))
        else:
            commands = itertools.islice(
                itertools.chain.from_iterable(cycles(workload, REFERENCE_SEED)), REFERENCE_COMMANDS
            )
        digests = {}
        for cmd in commands:
            runner.execute(cmd)
            if runner.failures:
                print(f"not recording {name}: {runner.failures[0]}", file=sys.stderr)
                return 1
            if workload.kind == "analyze":
                digests[cmd.key] = checks.sha256(runner.last_stdout.encode())
            else:
                digests[cmd.key] = {
                    kind: checks.sha256((Path(runner.session_dir) / fname).read_bytes())
                    for kind, fname in (("transcript", checks.TRANSCRIPT_NAME),
                                        ("report", checks.REPORT_NAME))
                }
        table[name] = digests
        print(f"{name}: {len(digests)} commands recorded")
    run.REFERENCE_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
