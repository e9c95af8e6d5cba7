"""Child process of run.py: one set-up from a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from its first statement until the package is imported,
the inputs are built and one warm-up op has run and passed its gate.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

from run import prepare  # noqa: E402

if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - _START)
