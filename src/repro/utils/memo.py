"""The one A/B switch and the bound shared by the memo caches.

``REPRO_DISABLE_FASTPATH=1`` turns off the macro-event fast path
(:mod:`repro.fastpath`), leaving the event core to run every access.
The event core is the fast path's differential oracle: both produce
byte-identical simulations, which ``tests/test_fastpath_differential.py``
and the golden masters pin.

The switch is read from ``os.environ`` each time a backend is built
(:func:`fastpath_enabled`), never cached at import, so setting it after
``repro`` is imported takes effect on the next simulation, in-process
and in pool workers alike.  Pool workers copy the environment when the
pool is created; :mod:`repro.parallel.sweep` keys warm pools on the
switch's value so a toggle retires a stale pool.

The memo caches in :mod:`repro.dram.address`, :mod:`repro.oram.layout`,
:mod:`repro.fastpath.runs` and :mod:`repro.crypto.ctr` are always on:
each memoizes a pure function, so it never changes a result, only skips
recomputing it.
"""

from __future__ import annotations

import os

#: The environment variable that turns the fast path off when set to 1.
FASTPATH_SWITCH = "REPRO_DISABLE_FASTPATH"


def fastpath_switch() -> str:
    """The switch's current value (unset rendered ``""``)."""
    return os.environ.get(FASTPATH_SWITCH, "")


def fastpath_enabled() -> bool:
    """Whether a backend built now should use the fast path."""
    return fastpath_switch() != "1"


#: Default bound for per-instance memo dictionaries.  Caches clear and
#: restart when full — simpler and faster than LRU bookkeeping, and a
#: full wipe keeps worst-case memory at one bounded dict per instance.
DEFAULT_MEMO_CAP = 1 << 16
