"""Tests for bundle construction and immutability guarantees."""

import pytest

from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label, gwei
from repro.flashbots.bundle import (
    FLASHBOTS,
    MINER_PAYOUT,
    ROGUE,
    Bundle,
    make_bundle,
)

SEARCHER = address_from_label("searcher")


def tx(nonce=0, uid=0):
    return Transaction(sender=SEARCHER, nonce=nonce,
                       to=address_from_label("pool"), gas_price=gwei(5),
                       gas_limit=100_000, _uid=uid)


class TestConstruction:
    def test_basic(self):
        bundle = make_bundle(SEARCHER, [tx(0), tx(1)], target_block=10)
        assert len(bundle) == 2
        assert bundle.bundle_type == FLASHBOTS

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_bundle(SEARCHER, [], target_block=10)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            make_bundle(SEARCHER, [tx()], target_block=10,
                        bundle_type="mystery")

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            make_bundle(SEARCHER, [tx()], target_block=-1)

    @pytest.mark.parametrize("kind", [MINER_PAYOUT, ROGUE, FLASHBOTS])
    def test_all_types_accepted(self, kind):
        assert make_bundle(SEARCHER, [tx()], 10,
                           bundle_type=kind).bundle_type == kind


class TestIdentity:
    def test_id_commits_to_order(self):
        a, b = tx(0), tx(1)
        fwd = make_bundle(SEARCHER, [a, b], 10)
        rev = make_bundle(SEARCHER, [b, a], 10)
        assert fwd.bundle_id != rev.bundle_id

    def test_id_commits_to_contents(self):
        state = WorldState()
        base = make_bundle(SEARCHER, [tx(0, state.next_tx_uid())], 10)
        other = make_bundle(SEARCHER, [tx(0, state.next_tx_uid())], 10)
        # two txs minted in one world → different hashes → different ids
        assert base.bundle_id != other.bundle_id

    def test_id_stable(self):
        bundle = make_bundle(SEARCHER, [tx(0)], 10)
        assert bundle.bundle_id == bundle.bundle_id

    def test_tx_hashes_ordered(self):
        a, b = tx(0), tx(1)
        bundle = make_bundle(SEARCHER, [a, b], 10)
        assert bundle.tx_hashes == (a.hash, b.hash)

    def test_transactions_are_tuple(self):
        bundle = make_bundle(SEARCHER, [tx(0)], 10)
        assert isinstance(bundle.transactions, tuple)

    def test_total_gas_limit(self):
        bundle = make_bundle(SEARCHER, [tx(0), tx(1)], 10)
        assert bundle.total_gas_limit() == 200_000
