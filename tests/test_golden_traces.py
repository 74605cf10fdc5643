"""Golden Chrome-trace bytes for the partitioned designs.

The rendered trace fixes every span and link instant a run emits, in
order, with its timestamps.  The report digests elsewhere do not see
span order, so these pin it for the two partitioned designs
(Independent and Indep-Split) at both tiers: a short ``simulate`` run
of each timing backend, and a traced functional run of each protocol
that quarantines a partition mid-run, so the degraded path's link steps
are pinned too.

Regenerate, only for an intended trace change, with:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import hashlib

import pytest

from repro.config import DesignPoint, table2_config
from repro.core.indep_split import IndepSplitProtocol
from repro.core.independent import IndependentProtocol
from repro.obs.chrome import render_chrome_trace
from repro.obs.tracer import CollectingTracer
from repro.sim.system import run_simulation
from repro.utils.rng import DeterministicRng

SIMULATE_POINTS = {
    "simulate:indep-2": (DesignPoint.INDEP_2, 1),
    "simulate:indep-split": (DesignPoint.INDEP_SPLIT, 2),
}

PROTOCOL_POINTS = {
    "protocol:independent": lambda tracer: IndependentProtocol(
        global_levels=7, sdimm_count=2, record_link=True, tracer=tracer),
    "protocol:indep-split": lambda tracer: IndepSplitProtocol(
        global_levels=7, groups=2, record_link=True, tracer=tracer),
}

GOLDEN = {
    "simulate:indep-2":
        "1b09ee49f99179f64bcf6e77e66d7c32739819f72566ba66e54d94291d195b27",
    "simulate:indep-split":
        "0b0ab9f4d69454f2d1c7aecd964d5941e3c0578cb41351884a0f4c8db2d2967b",
    "protocol:independent":
        "19eb69c77904347f2037b3451e9900f456ca852f0c06662d56dc7071c61500b5",
    "protocol:indep-split":
        "9b46137d04ee41fd7928f23c5b878ba9a21312b1105dd434d138f201ddb0e2bd",
}


def _digest(tracer: CollectingTracer) -> str:
    rendered = render_chrome_trace(tracer.events)
    return hashlib.sha256(rendered.encode()).hexdigest()


def simulate_digest(name: str) -> str:
    design, channels = SIMULATE_POINTS[name]
    tracer = CollectingTracer()
    run_simulation(table2_config(design, channels=channels, seed=2018),
                   "mcf", trace_length=300, trace_seed=2018, tracer=tracer)
    return _digest(tracer)


def protocol_digest(name: str, accesses: int = 40) -> str:
    """Mixed reads and writes; partition 1 fails half way through."""
    tracer = CollectingTracer()
    protocol = PROTOCOL_POINTS[name](tracer)
    rng = DeterministicRng(2018, "golden-trace")
    for index in range(accesses):
        if index == accesses // 2:
            protocol.quarantine(1)
        address = rng.randrange(48)
        if rng.randrange(2):
            protocol.write(address, bytes([index]) * protocol.block_bytes)
        else:
            protocol.read(address)
    assert protocol.degraded_accesses > 0
    return _digest(tracer)


@pytest.mark.parametrize("name", sorted(SIMULATE_POINTS))
def test_simulate_trace_bytes(name):
    assert simulate_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PROTOCOL_POINTS))
def test_protocol_trace_bytes(name):
    assert protocol_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for key in sorted(SIMULATE_POINTS):
        print(f"{key:24s} {simulate_digest(key)}")
    for key in sorted(PROTOCOL_POINTS):
        print(f"{key:24s} {protocol_digest(key)}")
