"""Counter-mode pad encryption for buckets and link messages.

Counter mode XORs plaintext with a pad that is a function of (key, nonce,
counter), drawn from the keyed SHAKE-256 PRF in one call.  Its two
properties matter to the ORAM protocols:

* the pad can be computed before data arrives, hiding decryption latency
  (the paper's 21-cycle crypto pipeline), and
* re-encrypting a bucket after an access requires only bumping its counter,
  so identical plaintexts never produce identical ciphertexts.

A pad must cover exactly one stored image: callers encrypt a whole bucket
(in Split, one way's whole bucket image) in one call, never several
pieces under the same (nonce, counter).

The functional tier writes every bucket and later reads it back at the same
counter, so each pad is requested at least twice.  The cipher keeps one
cache entry per nonce, holding the keystream of the latest counter seen
(the emulation of the hardware pipeline's pad precomputation); a counter
bump replaces it, so only live pads are kept.  The XOR runs through
large-integer arithmetic instead of a per-byte generator.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.crypto.prf import Prf


class CounterModeCipher:
    """Encrypt/decrypt byte strings under (nonce, counter) pads."""

    def __init__(self, key: bytes):
        self._prf = Prf(key)
        #: nonce -> (latest counter, its keystream)
        self._pad_cache: Dict[int, Tuple[int, bytes]] = {}

    def pad(self, nonce: int, counter: int, length: int) -> bytes:
        """The keystream for a given (nonce, counter) pair."""
        cached = self._pad_cache.get(nonce)
        if cached is not None and cached[0] == counter and \
                len(cached[1]) >= length:
            return cached[1][:length]
        seed = nonce.to_bytes(8, "little") + counter.to_bytes(8, "little")
        keystream = self._prf.evaluate(b"pad:" + seed, length)
        if cached is None or counter >= cached[0]:
            self._pad_cache[nonce] = (counter, keystream)
        return keystream

    def encrypt(self, plaintext: bytes, nonce: int, counter: int) -> bytes:
        """XOR ``plaintext`` with the (nonce, counter) pad."""
        pad = self.pad(nonce, counter, len(plaintext))
        mask = int.from_bytes(plaintext, "little") ^ \
            int.from_bytes(pad, "little")
        return mask.to_bytes(len(plaintext), "little")

    def decrypt(self, ciphertext: bytes, nonce: int, counter: int) -> bytes:
        """Counter mode is an involution: decryption equals encryption."""
        return self.encrypt(ciphertext, nonce, counter)
