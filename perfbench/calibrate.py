"""Machine-speed reference for the operation times.

This benchmark runs on a few cores of a shared host whose speed drifts by
up to half over minutes: a fixed pure-Python loop's median time moves from
13 to 22 ms within one 20 s run, and between two sets of ten runs twenty
minutes apart the `sweep` and `packet` medians moved by 29% and the loop's
by 30%.  So the benchmark times a fixed reference kernel -- small numpy
calls and plain Python, and no diracspin code -- between operations, and
expresses each operation's time at the reference speed at which the kernel
takes REF_MS:

    normalized = measured * REF_MS / kernel time around the operation

Over eight 20 s windows of one `precess` process the spread of the window
medians fell from 0.19 raw to 0.02 normalized; over five `packet` runs the
spread of the run medians fell from 0.30 to 0.14.  Set-up starts (spawn
and import) are reported raw: their time correlated only weakly (0.34)
with the kernel's, start by start.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Kernel time, in ms, that defines the reference speed (the kernel's
#: typical time on the 2-core host the benchmark was tuned on).
REF_MS = 15.0
#: A mark precedes an operation when this much time has passed since the
#: last one, so operations longer than this are bracketed one by one.  A
#: mark is the median of one kernel run per EVERY_S elapsed since the last
#: mark (at most MAX_RUNS), so the kernel takes about 3% of the time and a
#: long operation gets a steadier reading.
EVERY_S = 0.5
MAX_RUNS = 9

_rng = np.random.default_rng(0)
_A = _rng.normal(size=3)
_M = _rng.normal(size=(2, 2)) + 1j * _rng.normal(size=(2, 2))


def kernel_ms() -> float:
    """One run of the reference kernel; its wall time in ms."""
    t0 = time.perf_counter_ns()
    x, m, s = _A.copy(), _M, 0.0
    for k in range(400):
        x = np.cross(x, _A) + 0.5 * x
        x /= np.linalg.norm(x)
        m = m @ _M
        m /= abs(m[0, 0])
        s += float(x @ _A) * k
        _ = {"k": k, "s": repr(s)[:5]}
    return (time.perf_counter_ns() - t0) / 1e6


def mark_ms(since_last_s: float) -> float:
    """The kernel time for a mark taken `since_last_s` after the previous one
    (infinite for the first mark, which takes MAX_RUNS runs)."""
    runs = int(max(1, min(MAX_RUNS, since_last_s // EVERY_S)))
    return statistics.median(kernel_ms() for _ in range(runs))


def factors(n_ops: int, marks: list[tuple[int, float]]) -> list[float]:
    """REF_MS over the mean kernel time of the marks just before and just
    after each operation.  `marks` holds (index of the next operation, kernel ms)
    in order, with one mark before operation 0 and one after the last."""
    starts = [idx for idx, _ in marks]
    out = []
    for i in range(n_ops):
        after = bisect.bisect_right(starts, i)
        out.append(REF_MS / (0.5 * (marks[after - 1][1] + marks[after][1])))
    return out
