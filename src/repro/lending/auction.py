"""Auction-based liquidations (the paper's *other* mechanism, §2.2.2).

Fixed-spread liquidations settle in one transaction and are therefore a
first-come-first-served MEV race.  Auction-based liquidations
(MakerDAO-style) are the contrast case the paper draws: an interested
liquidator *opens* an auction on an unhealthy loan, rival bids arrive
over several blocks, and whoever holds the highest bid when the auction
expires settles it and takes the collateral.

Because the process spans multiple transactions and blocks, there is no
single transaction to frontrun a profit out of — which is exactly why
the paper notes that "due to their atomicity, fixed spread-based
liquidations are a prime target for MEV extraction" and auctions are
not.  The test suite verifies that settlements never surface in the MEV
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chain.events import (
    AuctionBidEvent,
    AuctionSettledEvent,
    AuctionStartedEvent,
)
from repro.chain.execution import ExecutionContext, ExecutionOutcome, \
    Revert
from repro.chain.transaction import TxIntent
from repro.chain.types import Address, address_from_label
from repro.lending.pool import LendingPool, Loan


@dataclass
class Auction:
    """One open collateral auction."""

    auction_id: int
    loan: Loan
    debt_amount: int            # reserve price: the debt to cover
    ends_at_block: int
    highest_bid: int = 0
    highest_bidder: Optional[Address] = None
    settled: bool = False

    def is_open(self, block_number: int) -> bool:
        return not self.settled and block_number < self.ends_at_block


class AuctionHouse:
    """Auction-based liquidation venue bound to a lending pool."""

    def __init__(self, pool: LendingPool,
                 duration_blocks: int = 20,
                 min_increment_bps: int = 300) -> None:
        if duration_blocks <= 0:
            raise ValueError("duration must be positive")
        self.pool = pool
        self.platform = f"{pool.platform}-auctions"
        self.address: Address = address_from_label(
            f"auction-house:{pool.platform}")
        self.duration_blocks = duration_blocks
        self.min_increment_bps = min_increment_bps
        self.auctions: Dict[int, Auction] = {}
        #: per-house ids, like ``LendingPool._next_loan_id``
        self._next_auction_id = 1

    def open_auctions(self, block_number: int) -> List[Auction]:
        return [a for a in self.auctions.values()
                if a.is_open(block_number)]

    # State transitions (called from intents) ------------------------------

    def start(self, ctx: ExecutionContext, loan_id: int) -> Auction:
        loan = self.pool.loans.get(loan_id)
        if loan is None or loan.is_closed:
            raise Revert("unknown or closed loan")
        if not self.pool.is_liquidatable(loan):
            raise Revert("loan is healthy")
        if any(a.loan.loan_id == loan_id and not a.settled
               for a in self.auctions.values()):
            raise Revert("auction already running for this loan")
        auction_id = self._next_auction_id
        self._next_auction_id += 1
        auction = Auction(auction_id=auction_id, loan=loan,
                          debt_amount=loan.debt_amount,
                          ends_at_block=ctx.block_number
                          + self.duration_blocks)
        self.auctions[auction.auction_id] = auction
        ctx.state.record_undo(
            lambda: self.auctions.pop(auction.auction_id, None))
        ctx.emit(AuctionStartedEvent(
            address=self.address, platform=self.platform,
            auction_id=auction.auction_id, borrower=loan.borrower,
            collateral_token=loan.collateral_token,
            collateral_amount=loan.collateral_amount,
            debt_token=loan.debt_token, debt_amount=loan.debt_amount,
            ends_at_block=auction.ends_at_block))
        return auction

    def bid(self, ctx: ExecutionContext, auction_id: int,
            amount: int) -> None:
        """Escrow a bid in the loan's debt token; refunds the previous
        leader."""
        auction = self.auctions.get(auction_id)
        if auction is None or not auction.is_open(ctx.block_number):
            raise Revert("auction is not open")
        floor = max(auction.debt_amount,
                    auction.highest_bid
                    * (10_000 + self.min_increment_bps) // 10_000)
        if amount < floor:
            raise Revert("bid below the minimum increment")
        bidder = ctx.tx.sender
        ctx.state.transfer_token(auction.loan.debt_token, bidder,
                                 self.address, amount)
        previous_bid = auction.highest_bid
        previous_bidder = auction.highest_bidder
        if previous_bidder is not None:
            ctx.state.transfer_token(auction.loan.debt_token,
                                     self.address, previous_bidder,
                                     previous_bid)
        auction.highest_bid = amount
        auction.highest_bidder = bidder

        def undo() -> None:
            auction.highest_bid = previous_bid
            auction.highest_bidder = previous_bidder

        ctx.state.record_undo(undo)
        ctx.emit(AuctionBidEvent(address=self.address,
                                 platform=self.platform,
                                 auction_id=auction_id, bidder=bidder,
                                 amount=amount))

    def settle(self, ctx: ExecutionContext, auction_id: int) -> int:
        """Close an expired auction: repay the pool, hand over
        collateral; returns the collateral amount."""
        auction = self.auctions.get(auction_id)
        if auction is None or auction.settled:
            raise Revert("unknown or settled auction")
        if ctx.block_number < auction.ends_at_block:
            raise Revert("auction still running")
        if auction.highest_bidder is None:
            raise Revert("no bids to settle")
        loan = auction.loan
        collateral = loan.collateral_amount
        # The escrowed winning bid repays the pool's debt position.
        ctx.state.transfer_token(loan.debt_token, self.address,
                                 self.pool.address,
                                 auction.highest_bid)
        ctx.state.transfer_token(loan.collateral_token,
                                 self.pool.address,
                                 auction.highest_bidder, collateral)
        prior_debt = loan.debt_amount
        prior_collateral = loan.collateral_amount
        loan.debt_amount = 0
        loan.collateral_amount = 0
        auction.settled = True

        def undo() -> None:
            loan.debt_amount = prior_debt
            loan.collateral_amount = prior_collateral
            auction.settled = False

        ctx.state.record_undo(undo)
        ctx.emit(AuctionSettledEvent(
            address=self.address, platform=self.platform,
            auction_id=auction_id, winner=auction.highest_bidder,
            paid=auction.highest_bid,
            collateral_token=loan.collateral_token,
            collateral_amount=collateral))
        return collateral


@dataclass
class StartAuctionIntent(TxIntent):
    """Open an auction on an unhealthy loan."""

    house_address: Address
    loan_id: int
    base_gas: int = 180_000

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        house = ctx.contract(self.house_address)
        auction = house.start(ctx, self.loan_id)
        return ExecutionOutcome(success=True, gas_used=self.base_gas,
                                return_data=auction.auction_id)


@dataclass
class BidIntent(TxIntent):
    """Place (and escrow) a bid in an open auction."""

    house_address: Address
    auction_id: int
    amount: int
    base_gas: int = 120_000

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        house = ctx.contract(self.house_address)
        house.bid(ctx, self.auction_id, self.amount)
        return ExecutionOutcome(success=True, gas_used=self.base_gas)


@dataclass
class SettleAuctionIntent(TxIntent):
    """Settle an expired auction."""

    house_address: Address
    auction_id: int
    base_gas: int = 200_000

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        house = ctx.contract(self.house_address)
        seized = house.settle(ctx, self.auction_id)
        return ExecutionOutcome(success=True, gas_used=self.base_gas,
                                return_data=seized)
