"""Time one cold set-up: import deauthsim, then build and validate a workload.

Usage: python3 perfbench/setup_probe.py <src-dir> <workload> <seed>

Prints the elapsed seconds, raw and at the reference host speed (pace.py).
``run.py`` starts several of these, one fresh interpreter each, because an
import is only cold once per process.
"""

import sys
import time

from pace import Pace


def main(src: str, name: str, seed: int) -> tuple[float, float]:
    sys.path.insert(0, src)
    with Pace(period_s=0.002) as pace:
        start = time.perf_counter()
        import deauthsim  # noqa: F401
        import workloads

        workloads.build(name, seed)
        elapsed = time.perf_counter() - start
    return elapsed, pace.normalise(elapsed)


if __name__ == "__main__":
    print(*main(sys.argv[1], sys.argv[2], int(sys.argv[3])))
