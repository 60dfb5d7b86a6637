"""How fast is one core right now?  An idle-priority probe (own process).

``python perf/yardstick.py <core>`` pins itself to the core, drops to
``SCHED_IDLE`` and times a fixed piece of interpreter work over and over
until SIGTERM, then writes its samples to stdout.  At idle priority it
runs only while nothing else wants the core and is preempted the moment
the server or the generator wakes up, so it takes no time from either; it
also keeps the core from going to sleep between two requests.

The box this benchmark was written on is a small VM whose cores execute
the same code 0-45 % slower from one moment to the next, depending on the
host's other tenants (README, "The box").  ``Speed.slowdown`` turns the
samples into the factor by which an interval was slower than the core at
its best, which is what ``run.py`` divides its times by.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import sys
import time
from array import array

__all__ = ["Speed", "LOOPS", "GAIN"]

#: Iterations of the timed loop: about a millisecond of bytecode.
LOOPS = 15_000
#: What a busy neighbour costs the service's code, as a multiple of what it
#: costs the loop: dict, set and numpy traffic suffers more from a shared
#: core than arithmetic on small ints does.  Calibrated on 56 runs of the
#: four workloads (README, "The box"): the run-to-run spread of the metrics
#: is lowest, and about flat, between 1.5 and 2.
GAIN = 1.75


class Speed:
    """The samples of one probe: ``starts[i]`` on the shared monotonic clock,
    ``costs[i]`` the CPU seconds the loop took then."""

    def __init__(self, starts: list[float], costs: list[float]) -> None:
        self.starts, self.costs = starts, costs
        #: The core at its best: the 5th percentile, not the luckiest sample.
        self.quiet = statistics.quantiles(costs, n=20)[0] if len(costs) >= 20 else None

    def slowdown(self, *intervals: tuple[float, float]) -> float:
        """How much slower than at its best the core ran the service's code
        during ``intervals``: 1 + GAIN x (mean cost of the samples inside them
        over the quiet cost - 1); 1.0 when the probe got too little of the
        core to tell."""
        costs: list[float] = []
        for start, end in intervals:
            lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)
            costs += self.costs[lo:hi]
        if self.quiet is None or len(costs) < 20:
            return 1.0
        return 1.0 + GAIN * (statistics.fmean(costs) / self.quiet - 1.0)


def main(core: int) -> None:
    os.sched_setaffinity(0, {core})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:  # a sandbox that forbids it: the lowest ordinary priority
        os.nice(19)
    running = [True]
    signal.signal(signal.SIGTERM, lambda *_: running.clear())
    starts, costs = array("d"), array("d")
    while running:
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        total = 0
        for i in range(LOOPS):
            total += i * i % 7
        cpu, wall = time.thread_time() - cpu0, time.perf_counter() - wall0
        if wall < 1.25 * cpu:  # preempted half-way: the caches it comes back to are not its own
            starts.append(wall0)
            costs.append(cpu)
    json.dump({"starts": list(starts), "costs": list(costs)}, sys.stdout)


if __name__ == "__main__":
    main(int(sys.argv[1]))
