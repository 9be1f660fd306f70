"""Record the ``paper_sim`` row digests the benchmark checks against.

Run from the repository root after a change that is meant to alter
simulated results::

    python3 perfbench/record_paper_sim_digest.py

It runs the clean sweep and the faulted ``table4`` rerun once and
rewrites ``perfbench/paper_sim_digest.json``.  A change that only makes
the simulator faster must leave the file unchanged.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    work_dir = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_record-")
    try:
        sim = workloads.PaperSim(work_dir)
        ctx = sim.setup(seed=0)
        outcomes = sim.run_all(ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [label for label, o in outcomes.items() if o.status != "ok"]
    if failed:
        print(f"experiments failed: {failed}", file=sys.stderr)
        return 1
    digests = {
        label: workloads.rows_digest(outcome.result)
        for label, outcome in sorted(outcomes.items())
    }
    with open(sim.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {sim.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
