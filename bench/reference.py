"""A fixed reference computation for measuring the host's current speed.

The box the benchmark runs on is a share of a busy host, and its speed
moves by a third for a minute at a time (NOTES.md).  The benchmark times
this computation right before and after every round and set-up, and
reports times scaled to the reference's nominal speed, which cancels
most of that drift.  It uses the same kinds of work as the library:
interpreted loops, numpy ufuncs, gathers and scatters, and number
formatting.  It is the benchmark's own code, so no change to spiralflow
moves it; do not change it either, or earlier figures stop comparing.
"""

import statistics
import time

import numpy as np

# about the median rep time on a 2-vCPU Xeon (Sapphire Rapids) KVM
# guest; scaled times read as seconds at that speed
NOMINAL_REP_S = 0.02
REPS = 9

_rng = np.random.default_rng(12345)
_X = _rng.random(160_000)
_TRI = _rng.integers(0, _X.size, (320_000, 3))
_VALUES = _X[:16_000].tolist()


def _rep():
    y = np.sqrt(_X) * np.exp(-_X) + np.arctan2(_X, 1.0 + _X)
    tri_sum = y[_TRI].sum(axis=1)
    acc = np.bincount(_TRI[:, 0], weights=tri_sum, minlength=_X.size)
    s = 0.0
    for v in _VALUES:
        s += v * v - 0.5 * v
    text = "\n".join(f"{v:.9e}" for v in _VALUES[:8_000])
    return float(acc.sum()) + s + len(text)


def reference_seconds(reps=REPS):
    """Median wall time of one rep over `reps` back-to-back reps, after
    one untimed rep that brings the arrays back into cache."""
    _rep()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _rep()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
