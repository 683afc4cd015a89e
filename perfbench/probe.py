"""Set-up probe: in a fresh interpreter, import the package and answer one cold
single-sample request of a workload; print the seconds that took.

    python3 perfbench/probe.py WORKLOAD SEED QUICK(0|1)
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main(name: str, seed: str, quick: str) -> None:
    workload = workloads.make(name, int(seed), quick == "1")
    try:
        workload.cold()
    finally:
        workload.close()
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main(*sys.argv[1:])
