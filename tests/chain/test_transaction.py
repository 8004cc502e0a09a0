"""Tests for transaction fee arithmetic and identity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chain.state import WorldState
from repro.chain.transaction import EIP1559, LEGACY, Transaction
from repro.chain.types import address_from_label, gwei

A = address_from_label("sender")
B = address_from_label("receiver")


def legacy_tx(price=gwei(50), nonce=0, **kw):
    return Transaction(sender=A, nonce=nonce, to=B, gas_price=price, **kw)


def eip1559_tx(max_fee=gwei(100), tip=gwei(2), nonce=0, **kw):
    return Transaction(sender=A, nonce=nonce, to=B, tx_type=EIP1559,
                       max_fee_per_gas=max_fee,
                       max_priority_fee_per_gas=tip, **kw)


class TestConstruction:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            Transaction(sender=A, nonce=0, tx_type="blob")

    def test_eip1559_fee_cap_must_cover_tip(self):
        with pytest.raises(ValueError):
            eip1559_tx(max_fee=gwei(1), tip=gwei(2))

    def test_default_is_legacy(self):
        assert legacy_tx().tx_type == LEGACY


class TestHashing:
    def test_hash_is_stable(self):
        tx = legacy_tx()
        assert tx.hash == tx.hash

    def test_two_identical_payload_txs_differ(self):
        # Two txs minted in one world are distinct network events even if
        # the fields match (the uid mirrors signature uniqueness).
        state = WorldState()
        first = legacy_tx(_uid=state.next_tx_uid())
        assert first.hash != legacy_tx(_uid=state.next_tx_uid()).hash

    def test_equality_follows_hash(self):
        state = WorldState()
        tx = legacy_tx(_uid=state.next_tx_uid())
        assert tx == tx
        assert tx != legacy_tx(_uid=state.next_tx_uid())
        assert legacy_tx() == legacy_tx()  # outside a world: uid 0

    def test_usable_in_sets(self):
        tx = legacy_tx()
        assert len({tx, tx}) == 1


class TestLegacyFees:
    def test_effective_price_ignores_base_fee(self):
        tx = legacy_tx(price=gwei(50))
        assert tx.effective_gas_price(gwei(10)) == gwei(50)

    def test_tip_is_excess_over_base(self):
        tx = legacy_tx(price=gwei(50))
        assert tx.miner_tip_per_gas(gwei(10)) == gwei(40)
        assert tx.miner_tip_per_gas(0) == gwei(50)

    def test_tip_clamped_at_zero(self):
        tx = legacy_tx(price=gwei(5))
        assert tx.miner_tip_per_gas(gwei(10)) == 0

    def test_includable_iff_price_clears_base(self):
        tx = legacy_tx(price=gwei(5))
        assert tx.is_includable(gwei(5))
        assert not tx.is_includable(gwei(6))


class TestEip1559Fees:
    def test_effective_price_caps_at_max_fee(self):
        tx = eip1559_tx(max_fee=gwei(100), tip=gwei(2))
        assert tx.effective_gas_price(gwei(99)) == gwei(100)

    def test_effective_price_is_base_plus_tip(self):
        tx = eip1559_tx(max_fee=gwei(100), tip=gwei(2))
        assert tx.effective_gas_price(gwei(40)) == gwei(42)

    def test_miner_tip_shrinks_near_cap(self):
        tx = eip1559_tx(max_fee=gwei(100), tip=gwei(10))
        assert tx.miner_tip_per_gas(gwei(95)) == gwei(5)

    @given(st.integers(0, 10**12), st.integers(0, 10**12),
           st.integers(0, 10**12))
    def test_miner_never_gets_base_fee(self, base, cap_extra, tip):
        max_fee = tip + cap_extra
        tx = eip1559_tx(max_fee=max_fee, tip=tip)
        assert tx.miner_tip_per_gas(base) <= max(0, max_fee - base)
        assert tx.miner_tip_per_gas(base) <= tip

    def test_upfront_cost_uses_cap(self):
        tx = eip1559_tx(max_fee=gwei(100), tip=gwei(2))
        tx.value = 7
        assert tx.max_upfront_cost() == 7 + tx.gas_limit * gwei(100)
