"""The calibration loop: how fast the machine runs at a given moment.

A shared host runs the same code up to 1.6x slower for tens of seconds at
a time, and an op's time moves with the time of a fixed loop run next to
it.  So every op time the benchmark reports is a time divided by the
calibration times next to it, times CAL_REF_S: seconds on a machine as
fast as the reference.

The loop runs in a child interpreter of its own (`Calibrator`), one
request at a time while the benchmark waits for it, so nothing runs beside
the op.  Run in the benchmark's own process, it timed that process's heap
as well as the machine: right after a pipeline stage that built a whole
trace, it ran up to 1.8x slower than right before it.

Run as a script, this file is that child: for each line read from standard
input it runs the loop CAL_REPEATS times and prints the median time.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import statistics
import subprocess
import sys
import time

# the loop's size, and the usual median of CAL_REPEATS loops on the machine
# the baseline comes from
CAL_ITEMS = 3_000
CAL_ROWS = 800
CAL_REPEATS = 3
CAL_REF_S = 0.010


def calibration_loop() -> float:
    """Seconds one fixed pure-Python loop takes: heap pushes and pops of
    random floats and dict counts, the mix of the simulator's event loop,
    then JSON lines written and read back, as trace files are.  It calls
    nothing in mpo, so no change to mpo moves it.  (Either half alone
    follows the machine less closely on some workload.)  The cyclic
    garbage collector is off while it runs, so that no collection lands in
    one loop and not in the next."""
    rng = random.Random(1)
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(CAL_ITEMS):
            heapq.heappush(heap, (rng.random(), i))
            counts[i & 1023] = counts.get(i & 1023, 0) + 1
        while heap:
            heapq.heappop(heap)
        lines = [json.dumps({"t": "send", "step": i, "mid": [i & 31, i], "to": i * 7 & 31})
                 for i in range(CAL_ROWS)]
        for line in lines:
            json.loads(line)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Calibrator:
    """The child interpreter that runs the calibration loop; calling it
    returns the median of CAL_REPEATS loops.  Use it as a context manager:
    leaving the block ends the child and waits for it."""

    def __enter__(self) -> "Calibrator":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()


def serve() -> None:
    for _ in sys.stdin:
        samples = [calibration_loop() for _ in range(CAL_REPEATS)]
        print(repr(statistics.median(samples)), flush=True)


if __name__ == "__main__":
    serve()
