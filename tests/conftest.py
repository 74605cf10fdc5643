"""Shared fixtures."""

import pytest

from tests.keystream import PadLedger


@pytest.fixture
def pad_ledger(monkeypatch) -> PadLedger:
    """A pad ledger over every CounterModeCipher for this test."""
    return PadLedger().install(monkeypatch)
