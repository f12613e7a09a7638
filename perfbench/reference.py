"""Reference clock: timings corrected for the speed of a shared machine.

On a shared host the same pure-Python work can run 1.5x slower for tens of
seconds at a time, which swamps any change to the package.  So every timed
phase also runs a fixed reference loop (pure Python, independent of the
package) every few milliseconds, and each measured time is scaled by
NOMINAL_S / (local median duration of the reference loop).  A reported time
is therefore in reference seconds: on a machine where the loop takes
NOMINAL_S, reference seconds are seconds.  Raw times are printed beside them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_S = 0.001  # reference-loop duration that defines one reference second
EVERY_S = 0.01  # a reference sample at most this often while queries run
WINDOW_S = 0.25  # samples this close to a query set its speed


def reference_loop() -> None:
    """Fixed interpreter work shaped like interning: tuples, small sorts,
    dict look-ups, string joins."""
    table: dict[tuple[str, ...], str] = {}
    texts = ["{}"]
    for i in range(900):
        kids = (texts[i % len(texts)], texts[(i * 7 + 3) % len(texts)])
        key = tuple(sorted(set(kids), key=lambda t: (len(t), t)))
        got = table.get(key)
        if got is None:
            got = table[key] = "{" + ",".join(key) + "}"
            if len(got) < 48:
                texts.append(got)


def sample() -> float:
    """Duration of one reference loop, in seconds.  The collector is off
    meanwhile, so the loop neither runs nor absorbs the program's
    collections; everything it allocates is freed before it returns."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Speedometer:
    """Reference samples over time; converts measured times to reference ones."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def tick(self, now: float) -> None:
        """Take a sample when the last one is older than EVERY_S."""
        if not self.times or now - self.times[-1] >= EVERY_S:
            self.times.append(now)
            self.durations.append(sample())

    def burst(self, count: int = 15) -> None:
        for _ in range(count):
            self.times.append(time.perf_counter())
            self.durations.append(sample())

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference duration from WINDOW_S before
        start to WINDOW_S after end."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 5:  # too few close by: take the nearest ones
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo, hi = max(0, mid - 3), min(len(self.times), mid + 3)
        return NOMINAL_S / statistics.median(self.durations[lo:hi])
