"""Outside-in end-to-end benchmark of the partitioning toolchain.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nbody-exec --seed 1 --seconds 20 --trace 0

One process runs one workload (``nbody-exec``, ``cholesky-cold`` or
``hotspot-sim16``; ``perfbench/workloads.py`` says why each exists) with
BLAS threads pinned to 1. ``--trace 0`` prints the end-to-end metrics,
measured untraced; ``--trace 1`` prints the per-layer metrics of a traced
run. ``perfbench/bench.py`` holds the measurement loop, the checks and the
metric definitions. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS threads before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
