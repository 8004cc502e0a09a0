"""Tests for auction-based liquidations — and their MEV immunity."""

import pytest

from repro.chain.block import BlockBuilder
from repro.chain.execution import ExecutionContext, Revert
from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label, ether, gwei
from repro.core.heuristics.liquidation import detect_liquidations
from repro.core.profit import PriceService
from repro.lending.auction import (
    AuctionHouse,
    BidIntent,
    SettleAuctionIntent,
    StartAuctionIntent,
)
from repro.lending.oracle import PRICE_SCALE, PriceOracle
from repro.lending.pool import LendingPool

BORROWER = address_from_label("auc-borrower")
KEEPER = address_from_label("auc-keeper")
BIDDER_A = address_from_label("auc-bidder-a")
BIDDER_B = address_from_label("auc-bidder-b")
MINER = address_from_label("auc-miner")


@pytest.fixture
def env():
    state = WorldState()
    oracle = PriceOracle()
    oracle.set_price("DAI", PRICE_SCALE // 3_000)
    pool = LendingPool("Maker", oracle)
    pool.provision(state, "DAI", ether(10_000_000))
    house = AuctionHouse(pool, duration_blocks=10)
    contracts = {pool.address: pool, house.address: house}
    state.mint_token("WETH", BORROWER, ether(10))
    for bidder in (KEEPER, BIDDER_A, BIDDER_B):
        state.credit_eth(bidder, ether(100))
        state.mint_token("DAI", bidder, ether(500_000))
    # Open a loan, then crash the collateral.
    tx = Transaction(sender=BORROWER, nonce=0, to=pool.address)
    ctx = ExecutionContext(state, tx, block_number=1, coinbase=MINER,
                           contracts=contracts)
    loan = pool.open_loan(ctx, "WETH", ether(10), "DAI", ether(20_000))
    oracle.set_price("DAI", PRICE_SCALE // 2_000)
    return state, pool, house, loan, contracts


def run_tx(state, contracts, sender, intent, number, gas=500_000):
    tx = Transaction(sender=sender, nonce=state.nonce(sender),
                     to=list(contracts)[-1], gas_price=gwei(20),
                     gas_limit=gas, intent=intent)
    builder = BlockBuilder(state, number=number, timestamp=13 * number,
                           coinbase=MINER, base_fee=0,
                           contracts=contracts)
    receipt = builder.apply_transaction(tx)
    builder.finalize()
    return receipt


class TestAuctionLifecycle:
    def test_full_auction_flow(self, env):
        state, pool, house, loan, contracts = env
        start = run_tx(state, contracts, KEEPER,
                       StartAuctionIntent(house.address, loan.loan_id),
                       number=2)
        assert start.status
        auction_id = list(house.auctions)[0]
        # Two bidders escalate over separate blocks.
        assert run_tx(state, contracts, BIDDER_A,
                      BidIntent(house.address, auction_id,
                                ether(20_000)), number=3).status
        assert run_tx(state, contracts, BIDDER_B,
                      BidIntent(house.address, auction_id,
                                ether(21_000)), number=4).status
        # Bidder A got its escrow back when outbid.
        assert state.token_balance("DAI", BIDDER_A) == ether(500_000)
        # Settlement only after expiry.
        early = run_tx(state, contracts, BIDDER_B,
                       SettleAuctionIntent(house.address, auction_id),
                       number=5)
        assert not early.status
        settle = run_tx(state, contracts, BIDDER_B,
                        SettleAuctionIntent(house.address, auction_id),
                        number=12)
        assert settle.status
        assert state.token_balance("WETH", BIDDER_B) == ether(10)
        assert loan.is_closed

    @pytest.mark.parametrize("house_number", [1, 2])
    def test_each_house_numbers_its_first_auction_one(self, env,
                                                      house_number):
        # ids are per house: a later house in the process restarts at 1
        state, pool, house, loan, contracts = env
        run_tx(state, contracts, KEEPER,
               StartAuctionIntent(house.address, loan.loan_id), number=2)
        assert list(house.auctions) == [1]

    def test_healthy_loan_cannot_be_auctioned(self, env):
        state, pool, house, loan, contracts = env
        pool.oracle.set_price("DAI", PRICE_SCALE // 3_000)  # healthy
        receipt = run_tx(state, contracts, KEEPER,
                         StartAuctionIntent(house.address,
                                            loan.loan_id), number=2)
        assert not receipt.status

    def test_bid_below_increment_rejected(self, env):
        state, pool, house, loan, contracts = env
        run_tx(state, contracts, KEEPER,
               StartAuctionIntent(house.address, loan.loan_id),
               number=2)
        auction_id = list(house.auctions)[0]
        run_tx(state, contracts, BIDDER_A,
               BidIntent(house.address, auction_id, ether(20_000)),
               number=3)
        low = run_tx(state, contracts, BIDDER_B,
                     BidIntent(house.address, auction_id,
                               ether(20_100)), number=4)  # < +3 %
        assert not low.status

    def test_no_duplicate_auctions(self, env):
        state, pool, house, loan, contracts = env
        run_tx(state, contracts, KEEPER,
               StartAuctionIntent(house.address, loan.loan_id),
               number=2)
        duplicate = run_tx(state, contracts, BIDDER_A,
                           StartAuctionIntent(house.address,
                                              loan.loan_id), number=3)
        assert not duplicate.status

    def test_settle_without_bids_reverts(self, env):
        state, pool, house, loan, contracts = env
        run_tx(state, contracts, KEEPER,
               StartAuctionIntent(house.address, loan.loan_id),
               number=2)
        auction_id = list(house.auctions)[0]
        receipt = run_tx(state, contracts, KEEPER,
                         SettleAuctionIntent(house.address, auction_id),
                         number=20)
        assert not receipt.status


class TestMevImmunity:
    def test_settlement_invisible_to_mev_heuristics(self, env):
        """The paper's point: auction liquidations are not in the MEV
        dataset — the liquidation heuristic only sees fixed-spread
        events, and an auction settlement emits none."""
        state, pool, house, loan, contracts = env
        chain = Blockchain()
        oracle = pool.oracle

        def mine(sender, intent, number):
            tx = Transaction(sender=sender,
                             nonce=state.nonce(sender),
                             to=house.address, gas_price=gwei(20),
                             gas_limit=500_000, intent=intent)
            builder = BlockBuilder(state, number=number,
                                   timestamp=13 * number,
                                   coinbase=MINER, base_fee=0,
                                   contracts=contracts)
            builder.apply_transaction(tx)
            chain.append(builder.finalize())

        mine(KEEPER, StartAuctionIntent(house.address, loan.loan_id), 1)
        auction_id = list(house.auctions)[0]
        mine(BIDDER_A, BidIntent(house.address, auction_id,
                                 ether(20_000)), 2)
        for number in range(3, 12):
            builder = BlockBuilder(state, number=number,
                                   timestamp=13 * number,
                                   coinbase=MINER, base_fee=0,
                                   contracts=contracts)
            chain.append(builder.finalize())
        mine(BIDDER_A, SettleAuctionIntent(house.address, auction_id),
             12)
        assert loan.is_closed
        records = detect_liquidations(ArchiveNode(chain),
                                      PriceService(oracle))
        assert records == []
