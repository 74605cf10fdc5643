"""Host-speed calibration for timings taken on a shared machine.

A small host shares its cores with other tenants, and its speed drifts
by tens of percent over seconds.  The benchmark therefore times a fixed
pure-Python loop (dict updates, slotted-attribute arithmetic, method
calls and small SHA-256 digests, roughly the program's own mix) right
before and after every measured call, and scales the call's host time by
``CALIB_REF_S`` over the mean of the two loop times.  A drift that slows
the loop and the call alike cancels; the result reads as host seconds on
a machine where the loop takes ``CALIB_REF_S``.  The loop never touches
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import hashlib
import time

#: loop iterations per calibration (about 40 ms on a 2.1 GHz Xeon vCPU)
CALIB_ITERATIONS = 150_000
#: the loop's time on the reference host, a 2-vCPU 2.1 GHz Xeon VM
CALIB_REF_S = 0.035


class _Probe:
    __slots__ = ("total", "trail")

    def __init__(self):
        self.total = 0
        self.trail = []

    def note(self, value: int) -> None:
        self.trail.append(value)


def calibration_s() -> float:
    """Host seconds the fixed calibration loop takes right now.

    The collector is paused so that a collection owed by the measured
    program cannot land in the loop and skew the scale factor.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop()
    finally:
        if was_enabled:
            gc.enable()


def _timed_loop() -> float:
    started = time.perf_counter()
    table = {}
    probe = _Probe()
    digest = hashlib.sha256
    mixed = 0
    for index in range(CALIB_ITERATIONS):
        key = index & 1023
        table[key] = table.get(key, 0) + index
        probe.total += key
        if not index & 31:
            mixed ^= digest(key.to_bytes(4, "little")).digest()[0]
            probe.note(mixed)
    probe.trail.sort()
    return time.perf_counter() - started


class Calibrator:
    """Scales consecutive measured intervals by the loops around each."""

    def __init__(self):
        self._before = calibration_s()

    def scale(self, elapsed: float) -> float:
        """``elapsed`` host seconds as seconds at the reference speed."""
        after = calibration_s()
        factor = CALIB_REF_S / ((self._before + after) / 2.0)
        self._before = after
        return elapsed * factor
