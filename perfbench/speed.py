"""The machine's speed, measured alongside the program.

The benchmark runs on shared virtual machines whose speed drifts by up to
a factor of two for minutes at a time, in CPU time as well as in wall time
(the host, not the guest, takes the cycles).  A fixed reference, the
benchmark's own code and not the program's, is timed right after every
timed item.  An item's latency is divided by the speed factor around it:
the median reference time over the items within WINDOW of it, over the
reference's nominal time.  The scaled figures read as on a machine where
the reference takes its nominal time.  A change of the program moves them;
a change of the machine's speed, which moves the reference as well, moves
them much less.

There are two references, because computing and starting processes drift
apart on these machines (interpreter start-up halved within two minutes
while the kernel held still):

* `kernel`, for work inside the process: exact rational arithmetic on
  numbers of a few hundred bits (Horner evaluation at points with 40-bit
  denominators, as in root refinement) and plain float arithmetic;
* `Startup`, for processes and imports: a fresh interpreter that imports
  the standard-library modules and numpy that the program's command line
  imports, none of the program itself.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F

#: median kernel time on a quiet 2-core virtual machine (Python 3.11)
NOMINAL_S = 0.7e-3
#: median `Startup` time on the same machine
STARTUP_NOMINAL_S = 0.15
STARTUP_CODE = "import argparse, concurrent.futures, dataclasses, fractions, json, numpy"
#: items on each side whose reference times make an item's speed factor
WINDOW = 5

_rng = random.Random("momentkit-bench:reference")
POLY = [F(_rng.randint(-50, 50), _rng.randint(1, 30)) for _ in range(9)]
POINTS = [F(_rng.randint(1, 2 ** 40), 2 ** 40 + _rng.randint(1, 2 ** 20)) for _ in range(6)]
FLOATS = [_rng.random() for _ in range(200)]


def kernel():
    """A degree-8 rational polynomial at six points with 40-bit
    denominators, then 8000 float multiply-adds; returns both results."""
    exact = F(0)
    for x in POINTS:
        v = F(0)
        for c in POLY:
            v = v * x + c
        exact += v
    approx = 0.0
    for _ in range(40):
        for x in FLOATS:
            approx += x * x * 0.5 - x
    return exact, approx


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Startup:
    """Seconds from launching a fresh interpreter that runs STARTUP_CODE
    until it has exited."""

    def __init__(self, cwd, env):
        self.cwd, self.env = cwd, env

    def __call__(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", STARTUP_CODE], cwd=self.cwd, env=self.env,
                       check=True, capture_output=True, timeout=120)
        return time.perf_counter() - start


class Speed:
    """Timings of a reference in groups, one group per timed item."""

    def __init__(self, reference=time_kernel, nominal_s=NOMINAL_S):
        self.reference, self.nominal_s = reference, nominal_s
        self.groups = []

    def sample(self, times=1) -> int:
        """Time the reference `times` times as a new group; returns its
        index."""
        self.groups.append([self.reference() for _ in range(times)])
        return len(self.groups) - 1

    def factor(self, index, window=WINDOW) -> float:
        """Median reference time of the groups within `window` of group
        `index`, over the nominal time: 1 on the nominal machine, 2 on one
        that runs the reference half as fast."""
        near = self.groups[max(0, index - window):index + window + 1]
        return statistics.median(x for group in near for x in group) / self.nominal_s
