"""Process-wide switches for the hot-path work (memo caches, fast cores).

Two toggles, both read once at module-import time:

* ``REPRO_REFERENCE_CORE=1`` selects the *reference* core: the
  straightforward implementations of the hottest simulator functions
  (closure-based event scheduling in :mod:`repro.sim.events`, the
  helper-per-constraint ``schedule_run`` in :mod:`repro.dram.channel`,
  the bank-scanning ``note_activity`` in :mod:`repro.dram.rank`), with
  the fast path off and the pure memoization caches in
  :mod:`repro.dram.address`, :mod:`repro.oram.layout` and
  :mod:`repro.crypto.ctr` off.  Memo caches never change a result, only
  skip recomputing it.  Both cores produce bit-identical simulations —
  the differential tests in ``tests/test_refcore.py`` and the golden
  masters pin that — which is how ``benchmarks/bench_speedup.py``
  measures the hot-path speedup in two subprocesses, and how a
  suspicious reader can prove to themselves that the optimizations do
  not perturb cycles.
* ``REPRO_DISABLE_FASTPATH=1`` turns off only the macro-event fast path
  (:mod:`repro.fastpath`), keeping the optimized event core.

Read-once-at-import is the right contract for fresh processes (the
benchmarks set the variable before spawning), but pool workers are
*forked* from a parent whose modules are already imported — they inherit
whatever the parent computed, and several consumers import these flags
**by value** into their own module globals.  :func:`refresh_switches`
exists for that boundary: it recomputes the flags from the current
environment and pushes them into every already-imported consumer, and
the pool layer (:mod:`repro.parallel.sweep`) runs it in each worker at
pool start so a warm pool never serves a stale A/B setting.
"""

from __future__ import annotations

import os
from typing import Tuple

#: The A/B environment variables that select which core a process runs.
#: The pool layer keys warm pools on a snapshot of exactly these.
SWITCH_ENVS: Tuple[str, ...] = ("REPRO_REFERENCE_CORE",
                                "REPRO_DISABLE_FASTPATH")


def _compute_switches() -> Tuple[bool, bool, bool]:
    """(memo_enabled, reference_core, fastpath_enabled) from the env."""
    reference_core = os.environ.get("REPRO_REFERENCE_CORE", "") == "1"
    # the reference core is the unmemoized spec: it recomputes everything
    memo_enabled = not reference_core
    # ``REPRO_DISABLE_FASTPATH=1`` turns off the macro-event replay core
    # (:mod:`repro.fastpath`) without selecting the reference twins — the
    # escape hatch for isolating a suspected fastpath bug from the
    # PR3-era micro-optimizations.  The reference core always disables
    # it: the reference twin must remain the unbatched spec.
    fastpath_enabled = (os.environ.get("REPRO_DISABLE_FASTPATH", "") != "1"
                        and not reference_core)
    return memo_enabled, reference_core, fastpath_enabled


#: Read once at import; the benchmarks set the variable before spawning.
MEMO_ENABLED, REFERENCE_CORE, FASTPATH_ENABLED = _compute_switches()


def switch_env_signature() -> Tuple[str, ...]:
    """The current values of :data:`SWITCH_ENVS` (unset rendered ``""``).

    A picklable snapshot: two processes with equal signatures run the
    same cores, so pool reuse is safe exactly when signatures match.
    """
    return tuple(os.environ.get(name, "") for name in SWITCH_ENVS)


def refresh_switches() -> None:
    """Recompute the switches from the environment, everywhere.

    Consumers import the flags by value (``from repro.utils.memo import
    MEMO_ENABLED``), so updating this module alone would leave every
    already-imported consumer running the old setting.  This pushes the
    recomputed values into each loaded ``repro`` module that carries a
    same-named global — all consumer reads happen at call time, so the
    new values take effect on the next call.
    """
    global MEMO_ENABLED, REFERENCE_CORE, FASTPATH_ENABLED
    MEMO_ENABLED, REFERENCE_CORE, FASTPATH_ENABLED = _compute_switches()
    import sys

    values = {"MEMO_ENABLED": MEMO_ENABLED,
              "REFERENCE_CORE": REFERENCE_CORE,
              "FASTPATH_ENABLED": FASTPATH_ENABLED}
    this = sys.modules.get(__name__)
    for name, module in list(sys.modules.items()):
        if module is None or module is this:
            continue
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in values.items():
            if attr in getattr(module, "__dict__", {}):
                setattr(module, attr, value)


#: Default bound for per-instance memo dictionaries.  Caches clear and
#: restart when full — simpler and faster than LRU bookkeeping, and a
#: full wipe keeps worst-case memory at one bounded dict per instance.
DEFAULT_MEMO_CAP = 1 << 16
