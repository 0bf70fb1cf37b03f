"""The CAE step's bits against the committed ledger (``bit_ledger.py``)."""

import pytest

import bit_ledger


def test_step_and_report_bits_match_the_ledger():
    key, entries = bit_ledger.digests()
    ledger = bit_ledger.recorded()
    if key not in ledger:
        pytest.skip(f"the bit ledger has no entries for {key!r}; run python3 tests/bit_ledger.py to record them")
    moved = sorted(name for name in ledger[key].keys() | entries.keys()
                   if entries.get(name) != ledger[key].get(name))
    assert not moved, f"bits moved from the ledger in: {', '.join(moved)}"
