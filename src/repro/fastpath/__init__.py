"""Macro-event replay core (the fast twin of the event-at-a-time core).

The simulator's event core schedules every DRAM burst and protocol
phase as its own event.  This package recognizes when a whole ORAM path
access will execute purely arithmetically — no touched rank parked —
and stamps the entire access flat in one step: cycles, counters,
DRAM/protocol trace events, and window folds.  Refreshes that come due
are applied inline, exactly where the event core would.  An access that
touches a parked rank falls through to the event core before anything
is committed.

Enablement: on by default; ``REPRO_DISABLE_FASTPATH=1`` turns it off
for every backend built while it is set (:func:`fastpath_enabled`).
The event core is the differential oracle: the differential suites
assert byte-identical results between the two cores; see
``docs/performance.md``.
"""

from repro.fastpath.access import AccessFastPath, reset_delta_tables
from repro.fastpath.engine import emit_batch, pass_eligible, stamp_pass
from repro.fastpath.runs import FastLowPowerRuns, FastTreeRuns, PathPattern
from repro.utils.memo import fastpath_enabled

__all__ = [
    "AccessFastPath", "FastLowPowerRuns", "FastTreeRuns", "PathPattern",
    "emit_batch", "fastpath_enabled", "pass_eligible",
    "reset_delta_tables", "stamp_pass",
]
