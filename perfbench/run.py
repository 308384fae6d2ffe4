"""Run the ohmgraph benchmark.

    python3 perfbench/run.py                          # every workload, seed 0
    python3 perfbench/run.py --workload analyze_dense --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  BLAS is pinned to one thread before numpy is imported: with two
threads on a two-core machine the timings measure the scheduler, and the
roundoff of a multithreaded BLAS changes elimination pivot orders.  The last
line of stdout is a JSON object with the keys correct, attempted, failed and
metrics; full records go to ``.perfbench_out/``.
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "ohmgraph" / "cli.py").is_file():
        print(f"error: no ohmgraph sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(SRC)]
    import harness

    sys.exit(harness.main())
