"""The host's speed, measured with a fixed kernel that imports nothing from
cohdet, so that the benchmark can report its times at one nominal speed.

The machines this runs on share their cores with other tenants: code runs
up to 1.8x slower while a neighbour is busy, in episodes from tens of
milliseconds to minutes, and the share of a run spent slow differs from
run to run.  Every run therefore times this kernel alongside the program,
in this process right before and after each in-process operation, and in
fresh interpreters (`python3 perfbench/host.py`) spread through every
round among the program's processes.  The ratio of the kernel's mean time
in a run to its nominal time is the run's slowness, one for in-process
work and one for processes, and each end-to-end time is divided by it
(each rate multiplied).  A change to cohdet cannot move the kernel.

    python3 perfbench/host.py [REPEATS]

runs the kernel REPEATS times in a fresh interpreter, after importing
numpy as every cohdet process does, and prints the sum of its results.
"""

from __future__ import annotations

import math
import sys

import numpy as np

#: The kernel's wall time, and that of a calibration process, on a 2-vCPU
#: Intel Xeon guest at 2.0 GHz with no busy neighbour: the speed that the
#: benchmark's reported times refer to.
KERNEL_S = 0.0026
PROCESS_S = 0.25

#: Kernel runs in one calibration process.
PROCESS_REPEATS = 50

_VALUES = [((i * 7919) % 10007) / 10007 for i in range(10007)]
_TABLE = {f"k{i}": i * 0.5 for i in range(5000)}


def kernel() -> float:
    """cohdet's kind of work on inputs of its own: 2x2 numpy matrices and
    their eigenvalues, float arithmetic, dictionary lookups and number
    formatting, over data larger than a core's first-level caches."""
    total = 0.0
    cells = []
    for i in range(320):
        x = _VALUES[(i * 613) % 10007]
        m = np.array([[1.0 + x, 0.5 * x], [0.5 * x, 1.0 - 0.25 * x]])
        total += float(np.abs(np.linalg.eigvalsh(m)).sum()) * math.exp(-x * x / 8.0)
        total += _TABLE[f"k{(i * 31) % 5000}"]
        cells.append(f"{x:.9g},{total:.9g}")
    return total + len(",".join(cells))


def process_result(repeats: int = PROCESS_REPEATS) -> float:
    """What a calibration process prints, as a float."""
    return sum(kernel() for _ in range(repeats))


if __name__ == "__main__":
    print(repr(process_result(int(sys.argv[1]) if len(sys.argv) > 1 else PROCESS_REPEATS)))
