"""Single-run entry point of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints the run's metrics, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.system import prepare  # noqa: E402

prepare()

from benchmarks.e2e.cli import run_contract  # noqa: E402

if __name__ == "__main__":
    sys.exit(run_contract(sys.argv[1:]))
