"""Wall-clock time scaled to the machine's speed at the moment of timing.

A shared cloud vCPU does not run at one speed. On the 2-vCPU machine this
benchmark was built on, the same pure-Python work took anywhere from 1x to
2x its fastest time, in phases from a fraction of a second to tens of
minutes (see README.md, "Baseline and noise"). Ten runs of the same code
then spread by up to 0.29 of their median, and no statistic over a 30 s
run removes a phase that lasts longer than the run.

So every timed call is bracketed by a fixed calibration routine, which
shares nothing with the package: a Fraction sum and a mod-p elimination
from `reference.py`. The call's wall time is scaled by CAL_REF_S over the
mean of the two calibration times around it. A scaled time is the call's
duration at the speed at which `calibrate()` takes CAL_REF_S seconds, its
fast-phase time on that machine, so on it scaled times read close to
wall-clock times in a fast phase. A change to the package moves the call's
time and not the calibration, and shows in full; only a change to
interpreter-wide state (garbage-collector settings, a much larger live
heap) can also move the calibration.
"""

from __future__ import annotations

import time
from fractions import Fraction

import reference as ref

# calibrate() in the fast phase of the machine the benchmark was built on
# (2 vCPUs, Python 3.11.7, Linux 6.18 x86_64): the 5th percentile of 20,000
# calls.
CAL_REF_S = 0.00085

_P = 10007
_ROWS = [[(i * 7 + j * 13 + i * j) % _P for j in range(12)] for i in range(14)]


def calibrate() -> None:
    """Fixed rational and modular integer work, like the package's own mix."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i + 1)
    ref.rank_mod_p(_ROWS, _P)


def _calibration_s() -> float:
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


class SpeedClock:
    """Times calls in wall seconds and in scaled seconds.

    One calibration runs after every timed call and serves as the "before"
    of the next one, so each call sits between two calibrations.
    """

    def __init__(self):
        self._last = _calibration_s()

    def call(self, fn, *args):
        """Run fn(*args); returns (result or raised exception, wall_s, scaled_s)."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the caller decides what a failure is
            result = exc
        wall = time.perf_counter() - t0
        before, self._last = self._last, _calibration_s()
        return result, wall, wall * CAL_REF_S * 2 / (before + self._last)
