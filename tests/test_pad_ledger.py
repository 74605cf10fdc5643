"""Pad freshness as a checked invariant: no (key, nonce, counter) pad is
ever used for two encryptions, on any serving or fault-campaign path."""

import pytest

from repro.crypto.ctr import CounterModeCipher
from repro.faults import campaign
from repro.faults.campaign import CampaignSpec, run_campaign_sweep
from repro.serve.bench import ServeSpec, run_serve
from repro.serve.router import run_sharded
from repro.serve.shard import ShardSpec
from tests.keystream import PadReuseError

KEY = b"0123456789abcdef"


class TestLedger:
    def test_catches_two_encryptions_under_one_pad(self, pad_ledger):
        """Negative control: two slices under one (nonce, counter)."""
        cipher = CounterModeCipher(KEY)
        cipher.encrypt(b"first slice", 7, 3)
        with pytest.raises(PadReuseError):
            cipher.encrypt(b"second slice", 7, 3)

    def test_catches_reuse_across_instances_of_one_key(self, pad_ledger):
        CounterModeCipher(KEY).encrypt(b"bucket", 1, 1)
        with pytest.raises(PadReuseError):
            CounterModeCipher(KEY).encrypt(b"bucket", 1, 1)

    def test_fresh_counter_nonce_or_key_is_allowed(self, pad_ledger):
        cipher = CounterModeCipher(KEY)
        cipher.encrypt(b"bucket", 1, 1)
        cipher.encrypt(b"bucket", 1, 2)
        cipher.encrypt(b"bucket", 2, 1)
        CounterModeCipher(KEY + b"\x01").encrypt(b"bucket", 1, 1)
        assert pad_ledger.encryptions == 4

    def test_decryption_is_not_an_encryption(self, pad_ledger):
        cipher = CounterModeCipher(KEY)
        ciphertext = cipher.encrypt(b"bucket", 1, 1)
        assert cipher.decrypt(ciphertext, 1, 1) == b"bucket"
        assert cipher.decrypt(ciphertext[:3], 1, 1) == b"buc"
        assert pad_ledger.encryptions == 1


class TestServingPaths:
    """The serve-smoke points (levels 7, capacity 16, 200 requests)."""

    @pytest.mark.parametrize("rate", [0.005, 0.02])
    @pytest.mark.parametrize("design",
                             ["independent", "split", "indep-split"])
    def test_run_serve(self, pad_ledger, design, rate):
        report = run_serve(ServeSpec(design=design, rate=rate,
                                     requests=200, levels=7, capacity=16))
        assert report["totals"]["completed"] > 0
        assert pad_ledger.encryptions > 0

    def test_run_sharded(self, pad_ledger):
        """Shards number their buckets alike; each needs its own key."""
        run_sharded(ShardSpec(rate=0.02, requests=200, levels=7,
                              capacity=16, shards=4, subtrees=16),
                    jobs=1, cache=None)
        assert pad_ledger.encryptions > 0


class TestFaultCampaigns:
    def test_run_campaign_sweep(self, pad_ledger, monkeypatch):
        """Faulted campaigns (retries, replays, stuck cells) reuse no pad.

        Each campaign is its own system with its own key agreement, so
        the ledger starts afresh per campaign.
        """
        payload = campaign._campaign_payload

        def one_system(spec):
            pad_ledger.reset()
            return payload(spec)

        monkeypatch.setattr(campaign, "_campaign_payload", one_system)
        specs = [CampaignSpec(design=design, accesses=48, bit_flips=2,
                              replays=1, stuck_cells=1, link_drops=1)
                 for design in ("independent", "split", "indep-split")]
        results = run_campaign_sweep(specs, jobs=1, cache=None)
        assert all(result["all_detected"] for result in results)
        assert pad_ledger.encryptions > 0
