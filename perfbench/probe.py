"""Speed probe: how fast the benchmark's core runs while a child works.

The benchmark's host shares its cores with other machines' work, and a
core's speed changes from one tenth of a second to the next by half or
more.  ``run.py`` starts this probe on the core it pins each timed child
to.  Every ``INTERVAL_S`` the probe wakes, runs ``OPS`` operations of a
pure-Python heap-churn loop (the primitive mix of the simulator's event
loop), and records when it started them and how long they took, on the
system-wide monotonic clock.  It prints ``ready`` once it can be stopped;
on SIGTERM it prints the ``[start, seconds]`` pairs as a JSON list and
exits.  The mean duration within an interval gives the core's speed
then, by which ``run.py`` normalizes the times measured in it.

    python3 perfbench/probe.py    # then send SIGTERM
"""

from __future__ import annotations

import heapq
import json
import signal
import time

OPS = 200
INTERVAL_S = 0.01


def churn(n: int = OPS) -> None:
    heap: list[tuple[int, int]] = []
    for i in range(n):
        heapq.heappush(heap, ((i * 16807) % 65536, i))
        if len(heap) > 64:
            heapq.heappop(heap)


def main() -> None:
    stop = False

    def on_term(signum: int, frame: object) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    print("ready", flush=True)
    samples: list[tuple[float, float]] = []
    while True:
        start = time.monotonic()
        churn()
        samples.append((start, time.monotonic() - start))
        time.sleep(INTERVAL_S)
        if stop:
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
