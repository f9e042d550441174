"""Time, in this fresh interpreter, the import of stochbgk and the
construction of one workload's inputs; print the seconds.

    python3 benchmarks/setup_probe.py simulate-1d 1
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).build_inputs()
    print(time.perf_counter() - START)
