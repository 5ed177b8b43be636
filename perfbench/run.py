"""Benchmark of ``pelical calibrate``; see README.md in this directory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload calibrate60_mixed --seed 1 --seconds 20 --trace 0

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread and no seed override, before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PELICAL_SEED", None)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "pelical" / "__init__.py").is_file():
        print(f"error: no pelical sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))

    from harness import main

    sys.exit(main(sys.argv[1:]))
