"""Write ``reference.json``: each workload's accuracy summary at the default seed.

Run from the root of a checkout: ``python3 perfbench/reference.py``.  The
summary covers the same fixed sample as the benchmark's accuracy metrics.  It
is kept for information; the benchmark judges accuracy by its end-to-end
metrics.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
from run import PINNED_ENV  # noqa: E402

os.environ.update(PINNED_ENV)  # before numpy loads: thread counts change rounding

from ris_nfloc import harness  # noqa: E402
from worker import ACCURACY_SEED, accuracy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARKED = ("desk", "full", "sweep_L")


def main() -> int:
    out = {}
    for name in BENCHMARKED:
        workload = WORKLOADS[name]
        summary, failed, problems = accuracy(harness, workload)
        if failed or problems:
            raise SystemExit(f"{name}: {failed} failed trials; {problems[:3]}")
        out[name] = {
            "seed": ACCURACY_SEED,
            "trials_per_point": workload.accuracy_trials,
            **summary,
        }
        print(name, out[name], flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
