"""Golden report bytes for the serving tier and the fault campaigns.

Every report is a pure function of its spec, so the sha256 of its
canonical JSON pins the whole serving path at once: load generation,
routing, admission, the protocols, the control plane, the migration
model and the fold.  A refactor of any of those layers must leave these
digests unchanged.  The points use the CI smoke parameters (7 levels,
200 requests, admission capacity 16).

Regenerate, only for an intended report change, with:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib

import pytest

from repro.faults import CampaignSpec, run_campaign_sweep
from repro.serve import (ServeSpec, ShardSpec, canonical_json, run_sharded,
                         run_serve_sweep)

SMALL = dict(levels=7, requests=200, capacity=16)

SERVE_POINTS = {
    f"{design}@{rate}": dict(design=design, rate=rate)
    for design in ("independent", "split", "indep-split")
    for rate in (0.005, 0.02)
}
SERVE_POINTS["split@0.05+adapt"] = dict(
    design="split", rate=0.05, tenants=2, adapt=True, slo_p99=512,
    window_ticks=256, declassified=("t1",))

SHARDED_POINTS = {
    "plain": dict(),
    "adapt": dict(adapt=True),
    "quarantine": dict(quarantined=(2,)),
}

GOLDEN_SERVE = {
    "independent@0.005":
        "56fb52d910507df7d4f4d6b77bb31c3a4d734c6edc92e8690a4bf4c53430aa4c",
    "independent@0.02":
        "954e0a63e942565e26a6884a696202320cb2234d06120b90c10cfaed0e0f4e70",
    "split@0.005":
        "2880c56b7f2b032d54eb4a602bbfa5624cdbcb18c100be85d7068fd1464adba3",
    "split@0.02":
        "c758c8e4f970c25f8cc54aaceb582dd5b2d9a1e38301301150813a074b9858c4",
    "indep-split@0.005":
        "d65ad19ff3e12a22c2f499510bf449588eef220e22811695d940ecf008d914b0",
    "indep-split@0.02":
        "938fabe6687ef2006696e7fcd301fa5e224c843351f6853afc9c17ecf5f9e6fe",
    "split@0.05+adapt":
        "59d11c17c9a33c8c1c5b20cc5b5e7959772d2cae8ce597024eb92835e411c131",
}

GOLDEN_SHARDED = {
    "plain":
        "0dc69dbf4d92f40fd6ec94bceaf1f631fb62551ec4405e96a56be5257dbae348",
    "adapt":
        "c56e9114b6daf340380c273c9e5dae2e7e678858fefc871928abe62e3b1a2cf6",
    "quarantine":
        "4b8c337622df4a16c50cedf6531bb91b6e3c46baaaa29d04045bc1475a244b36",
}

GOLDEN_CAMPAIGN = (
    "e8834801de48d794af12c58c61eaeadbcb9b53004e70d29475d19445d60848a0")


def _digest(report) -> str:
    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


def serve_digests():
    names = sorted(SERVE_POINTS)
    specs = [ServeSpec(**SMALL, **SERVE_POINTS[name]) for name in names]
    return {name: _digest(report)
            for name, report in zip(names, run_serve_sweep(specs))}


def sharded_digest(name: str) -> str:
    spec = ShardSpec(**SMALL, rate=0.02, shards=4, subtrees=16,
                     **SHARDED_POINTS[name])
    return _digest(run_sharded(spec))


def campaign_digest() -> str:
    specs = [CampaignSpec(design=design, accesses=48, stuck_cells=1)
             for design in ("independent", "split", "indep-split")]
    return _digest(run_campaign_sweep(specs))


def test_serve_sweep_report_bytes():
    assert serve_digests() == GOLDEN_SERVE


@pytest.mark.parametrize("name", sorted(SHARDED_POINTS))
def test_sharded_report_bytes(name):
    assert sharded_digest(name) == GOLDEN_SHARDED[name]


def test_campaign_sweep_report_bytes():
    assert campaign_digest() == GOLDEN_CAMPAIGN


if __name__ == "__main__":
    for key, value in sorted(serve_digests().items()):
        print(f"serve    {key:20s} {value}")
    for key in sorted(SHARDED_POINTS):
        print(f"sharded  {key:20s} {sharded_digest(key)}")
    print(f"campaign {'':20s} {campaign_digest()}")
