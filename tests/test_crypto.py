"""Tests for the PRF, counter-mode cipher, MACs, and session handshake."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import (
    CertificateAuthority,
    CounterModeCipher,
    MacEngine,
    PmmacAuthenticator,
    Prf,
    establish_session,
)
from repro.crypto.mac import MacError
from repro.crypto.session import AuthenticationError, BufferIdentity

KEY_A = b"0123456789abcdef"
KEY_B = b"fedcba9876543210"


class TestPrf:
    def test_deterministic(self):
        prf = Prf(KEY_A)
        assert prf.evaluate(b"msg", 32) == prf.evaluate(b"msg", 32)

    def test_key_separation(self):
        assert Prf(KEY_A).evaluate(b"msg") != Prf(KEY_B).evaluate(b"msg")

    def test_message_separation(self):
        prf = Prf(KEY_A)
        assert prf.evaluate(b"a") != prf.evaluate(b"b")

    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            Prf(b"short")

    @given(st.integers(min_value=0, max_value=200))
    def test_output_length(self, length):
        assert len(Prf(KEY_A).evaluate(b"x", length)) == length

    def test_long_output_extends_prefix(self):
        prf = Prf(KEY_A)
        assert prf.evaluate(b"x", 100)[:32] == prf.evaluate(b"x", 32)

    def test_derive_key_distinct_labels(self):
        prf = Prf(KEY_A)
        assert prf.derive_key("up") != prf.derive_key("down")

    def test_evaluate_int_respects_width(self):
        prf = Prf(KEY_A)
        for bits in (1, 8, 31, 64):
            assert prf.evaluate_int(b"x", bits) < (1 << bits)

    def test_known_answer(self):
        """Pinned output: SHAKE-256(len(key) || key || message).  A change
        here changes every pad, MAC and derived key; make it on purpose."""
        assert Prf(KEY_A).evaluate(b"pad:known-answer", 32).hex() == (
            "44c9dde8fb4a98bdf623efbb3eefb139"
            "5435803b490ab3ae98257d001277a63d")

    def test_key_length_domain_separation(self):
        """The absorbed key length keeps key || message unambiguous."""
        assert Prf(KEY_A).evaluate(b"\x01msg") != \
            Prf(KEY_A + b"\x01").evaluate(b"msg")
        assert Prf(KEY_A).evaluate(b"msg") != \
            Prf(KEY_A + b"\x01").evaluate(b"msg")

    def test_prefix_consistency_across_pad_sizes(self):
        prf = Prf(KEY_A)
        longest = prf.evaluate(b"pad:bucket", 330)
        for length in (8, 32, 160, 330):
            assert prf.evaluate(b"pad:bucket", length) == longest[:length]


class TestCounterMode:
    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=0, max_value=2**32))
    def test_roundtrip(self, plaintext, nonce, counter):
        cipher = CounterModeCipher(KEY_A)
        ciphertext = cipher.encrypt(plaintext, nonce, counter)
        assert cipher.decrypt(ciphertext, nonce, counter) == plaintext

    def test_counter_changes_ciphertext(self):
        cipher = CounterModeCipher(KEY_A)
        block = b"secret block" * 4
        assert cipher.encrypt(block, 0, 1) != cipher.encrypt(block, 0, 2)

    def test_nonce_changes_ciphertext(self):
        cipher = CounterModeCipher(KEY_A)
        block = b"secret block" * 4
        assert cipher.encrypt(block, 1, 0) != cipher.encrypt(block, 2, 0)

    def test_wrong_counter_garbles(self):
        cipher = CounterModeCipher(KEY_A)
        ciphertext = cipher.encrypt(b"secret block", 0, 5)
        assert cipher.decrypt(ciphertext, 0, 6) != b"secret block"

    def test_pad_cache_matches_a_fresh_cipher(self):
        """Per-nonce cache: stale counter, new counter, longer length."""
        cached = CounterModeCipher(KEY_A)
        cached.pad(5, 2, 64)
        for counter, length in ((2, 32), (1, 64), (3, 64), (2, 64),
                                (3, 330), (2, 330), (3, 160)):
            assert cached.pad(5, counter, length) == \
                CounterModeCipher(KEY_A).pad(5, counter, length)

    def test_pad_cache_keeps_only_the_latest_counter(self):
        cipher = CounterModeCipher(KEY_A)
        for counter in range(1, 6):
            cipher.pad(9, counter, 64)
        cipher.pad(9, 2, 64)  # a stale read does not evict the live pad
        live = {9: (5, CounterModeCipher(KEY_A).pad(9, 5, 64))}
        assert cipher._pad_cache == live

    def test_pad_precomputable(self):
        cipher = CounterModeCipher(KEY_A)
        pad = cipher.pad(3, 9, 12)
        manual = bytes(p ^ k for p, k in zip(b"hello world!", pad))
        assert cipher.encrypt(b"hello world!", 3, 9) == manual


class TestMacEngine:
    def test_verify_accepts_valid(self):
        mac = MacEngine(KEY_A)
        tag = mac.tag(b"payload")
        mac.verify(b"payload", tag)

    def test_verify_rejects_tamper(self):
        mac = MacEngine(KEY_A)
        tag = mac.tag(b"payload")
        with pytest.raises(MacError):
            mac.verify(b"payloae", tag)

    def test_verify_rejects_wrong_key(self):
        tag = MacEngine(KEY_A).tag(b"payload")
        with pytest.raises(MacError):
            MacEngine(KEY_B).verify(b"payload", tag)


class TestPmmac:
    def test_roundtrip(self):
        auth = PmmacAuthenticator(KEY_A)
        tag = auth.tag(42, 7, b"bucket bytes")
        auth.verify(42, 7, b"bucket bytes", tag)

    def test_replay_detected(self):
        """A stale bucket (old counter) fails against the current counter."""
        auth = PmmacAuthenticator(KEY_A)
        stale_tag = auth.tag(42, 7, b"bucket bytes")
        with pytest.raises(MacError):
            auth.verify(42, 8, b"bucket bytes", stale_tag)

    def test_relocation_detected(self):
        """A bucket copied to another tree position fails."""
        auth = PmmacAuthenticator(KEY_A)
        tag = auth.tag(42, 7, b"bucket bytes")
        with pytest.raises(MacError):
            auth.verify(43, 7, b"bucket bytes", tag)


class TestSession:
    def test_handshake_agrees(self):
        authority = CertificateAuthority()
        cpu_side, buffer_side = establish_session(
            0, b"buffer-seed", b"cpu-seed", authority)
        ciphertext, tag = cpu_side.encrypt_upstream(b"ACCESS leaf=5")
        assert buffer_side.decrypt_upstream(ciphertext, tag, 0) == \
            b"ACCESS leaf=5"

    def test_downstream_direction(self):
        authority = CertificateAuthority()
        cpu_side, buffer_side = establish_session(
            1, b"buffer-seed", b"cpu-seed", authority)
        ciphertext, tag = buffer_side.encrypt_downstream(b"block data")
        assert cpu_side.decrypt_downstream(ciphertext, tag, 0) == b"block data"

    def test_counters_advance(self):
        authority = CertificateAuthority()
        cpu_side, buffer_side = establish_session(
            2, b"buffer-seed", b"cpu-seed", authority)
        first, _ = cpu_side.encrypt_upstream(b"same message")
        second, _ = cpu_side.encrypt_upstream(b"same message")
        assert first != second
        assert cpu_side.upstream_counter == 2

    def test_tampered_message_rejected(self):
        authority = CertificateAuthority()
        cpu_side, buffer_side = establish_session(
            3, b"buffer-seed", b"cpu-seed", authority)
        ciphertext, tag = cpu_side.encrypt_upstream(b"ACCESS leaf=5")
        corrupted = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
        with pytest.raises(MacError):
            buffer_side.decrypt_upstream(corrupted, tag, 0)

    def test_unknown_buffer_rejected(self):
        authority = CertificateAuthority()
        with pytest.raises(AuthenticationError):
            authority.lookup(99)

    def test_identity_is_frozen(self):
        identity = BufferIdentity(0, 123)
        with pytest.raises(Exception):
            identity.public_key = 456
