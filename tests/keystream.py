"""Test-only keystream checks: a pad ledger and Split ciphertext probes.

:class:`PadLedger` patches :class:`repro.crypto.ctr.CounterModeCipher` so
that every *encryption* is recorded as ``(key digest, nonce, counter,
byte range)``; a second encryption whose range overlaps an earlier one
under the same key, nonce and counter is a reused pad, and the ledger
fails on it at once.  Decryptions re-derive an existing pad and are not
recorded.  The ``pad_ledger`` fixture (``conftest.py``) installs one for
a test.

:func:`slot_region_reuse` inspects Split buffer stores directly, the
bytes a DRAM probe sees: it reports slot regions with equal ciphertext
and pairs whose XOR yields a written plaintext slice.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations
from typing import Dict, Iterable, List, Tuple

from repro.crypto.ctr import CounterModeCipher


class PadReuseError(AssertionError):
    """Two encryptions consumed overlapping bytes of one pad."""


class PadLedger:
    """Every encryption's pad range, keyed by (key digest, nonce, counter)."""

    def __init__(self):
        self.ranges: Dict[Tuple[str, int, int], List[Tuple[int, int]]] = {}
        self.encryptions = 0

    def record(self, key_digest: str, nonce: int, counter: int,
               start: int, stop: int) -> None:
        used = self.ranges.setdefault((key_digest, nonce, counter), [])
        for lo, hi in used:
            if start < hi and lo < stop:
                raise PadReuseError(
                    f"pad reuse: key {key_digest} nonce {nonce} counter "
                    f"{counter} bytes [{start}, {stop}) overlap "
                    f"[{lo}, {hi})")
        used.append((start, stop))
        self.encryptions += 1

    def reset(self) -> None:
        """Forget every range (a new system with freshly agreed keys)."""
        self.ranges.clear()

    def install(self, monkeypatch) -> "PadLedger":
        """Patch CounterModeCipher to report its encryptions here."""
        ledger = self
        original_init = CounterModeCipher.__init__
        original_encrypt = CounterModeCipher.encrypt

        def init(cipher, key):
            original_init(cipher, key)
            cipher._ledger_key = hashlib.sha256(key).hexdigest()[:16]

        def encrypt(cipher, plaintext, nonce, counter):
            ledger.record(cipher._ledger_key, nonce, counter,
                          0, len(plaintext))
            return original_encrypt(cipher, plaintext, nonce, counter)

        def decrypt(cipher, ciphertext, nonce, counter):
            return original_encrypt(cipher, ciphertext, nonce, counter)

        monkeypatch.setattr(CounterModeCipher, "__init__", init)
        monkeypatch.setattr(CounterModeCipher, "encrypt", encrypt)
        monkeypatch.setattr(CounterModeCipher, "decrypt", decrypt)
        return self


def slot_region_reuse(buffers: Iterable,
                      written_slices: Iterable[bytes]) -> Tuple[int, int]:
    """(equal slot-region pairs, XOR pairs equal to a written slice).

    Covers every stored bucket of every way in ``buffers``.  Equal
    regions are counted over all regions of all buckets and ways; the
    XOR probe pairs the regions of one bucket-way, which is where a
    shared pad would cancel out.
    """
    slices = set(written_slices)
    regions: List[bytes] = []
    xor_hits = 0
    for buffer in buffers:
        width = buffer.slice_bytes
        for cell in buffer._store.values():
            offset = buffer.meta_slice_bytes
            cell_regions = [cell.image[offset + slot * width:
                                       offset + (slot + 1) * width]
                            for slot in range(buffer.blocks_per_bucket)]
            regions.extend(cell_regions)
            for left, right in combinations(cell_regions, 2):
                mixed = bytes(a ^ b for a, b in zip(left, right))
                xor_hits += mixed in slices
    equal = sum(count * (count - 1) // 2
                for count in Counter(regions).values())
    return equal, xor_hits
