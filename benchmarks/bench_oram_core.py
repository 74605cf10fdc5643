"""Microbenchmarks of the core primitives (throughput regression guard).

Not a paper figure: these keep the functional tier honest — a Path ORAM
access, a Freecursive access through the PLB, a Split protocol access with
real crypto, and an encrypted-store round trip.
"""

from repro.config import OramConfig
from repro.core.independent import IndependentProtocol
from repro.core.split import SplitProtocol
from repro.crypto.ctr import CounterModeCipher
from repro.oram.freecursive import FreecursiveOram
from repro.oram.integrity import EncryptedBucketStore
from repro.oram.path_oram import Op, PathOram
from repro.utils.rng import DeterministicRng


def test_path_oram_access(benchmark):
    oram = PathOram(levels=12, blocks_per_bucket=4, block_bytes=64,
                    stash_capacity=200, rng=DeterministicRng(1, "bench"))
    payload = bytes(64)
    counter = iter(range(10**9))

    def access():
        return oram.access(next(counter) % 1000, Op.WRITE, payload)

    benchmark(access)
    assert oram.access_count > 0


def test_freecursive_access(benchmark):
    config = OramConfig(levels=16, cached_levels=3, recursive_posmaps=3,
                        plb_bytes=4096, plb_assoc=4)
    oram = FreecursiveOram(config, DeterministicRng(2, "bench"),
                           data_levels=12)
    counter = iter(range(10**9))

    def access():
        return oram.read(next(counter) % 4096)

    benchmark(access)
    assert oram.frontend.requests > 0


def test_split_protocol_access(benchmark):
    protocol = SplitProtocol(levels=8, ways=2, block_bytes=64)
    payload = bytes(64)
    counter = iter(range(10**9))

    def access():
        protocol.write(next(counter) % 256, payload)

    benchmark(access)
    assert protocol.stashes_aligned()


def test_independent_protocol_access(benchmark):
    protocol = IndependentProtocol(global_levels=10, sdimm_count=2,
                                   block_bytes=64, stash_capacity=200)
    payload = bytes(64)
    counter = iter(range(10**9))

    def access():
        protocol.write(next(counter) % 512, payload)

    benchmark(access)


def test_encrypted_store_roundtrip(benchmark):
    from repro.oram.bucket import Block, Bucket

    store = EncryptedBucketStore(1023, 4, 64, b"0123456789abcdef")
    bucket = Bucket(4, 64)
    bucket.insert(Block(1, 2, bytes(64)))
    counter = iter(range(10**9))

    def roundtrip():
        index = next(counter) % 1023
        store.write(index, bucket)
        return store.read(index)

    result = benchmark(roundtrip)
    assert result.occupancy == 1


def test_counter_mode_block(benchmark):
    cipher = CounterModeCipher(b"0123456789abcdef")
    block = bytes(range(64))
    counter = iter(range(10**9))

    def encrypt():
        return cipher.encrypt(block, 7, next(counter))

    benchmark(encrypt)
