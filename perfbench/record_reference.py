"""Regenerate reference.json: the seed-commit values the oracles compare
against (p = 2 capacities and Royden energies with their verdicts, p != 2
capacities with their free-vertex counts, isoperimetric minima).

Run it only on a commit whose results are trusted:

    python3 perfbench/record_reference.py
"""

import json
import os
import sys
import tempfile

from run import REFERENCE, WORK, WORKLOAD_NAMES, import_caylex


def main() -> int:
    caylex = import_caylex()
    import workloads
    reference = {}
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        for size in workloads.SIZES:
            for name in WORKLOAD_NAMES:
                ctx = workloads.Context(caylex, workdir, 1, size)
                for op in workloads.build_ops(name, ctx):
                    value = op.record(op.run())
                    if value is not None:
                        reference[op.key] = value
                        print(op.key, flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
