"""Transactions: legacy and EIP-1559, with opaque executable intents.

A transaction in the simulator carries an ``intent`` — an object implementing
:class:`TxIntent` — which is what actually runs against world state when the
transaction is included in a block.  The chain layer knows nothing about
DEXes or lending pools; those substrates provide intent implementations.

Ground-truth annotations (who crafted this, which MEV strategy, which victim)
live in ``Transaction.meta``.  The measurement pipeline in ``repro.core`` is
forbidden from reading ``meta``: it must rediscover everything from receipts
and logs, exactly as the paper's scripts rediscover MEV from archive-node
data.  ``meta`` exists solely so tests can score heuristic precision/recall
against ground truth.

The hash also commits to ``_uid``, minted by the owning world's
:meth:`~repro.chain.state.WorldState.next_tx_uid` (uid 0 outside a world),
so same-field transactions stay distinct, as signatures make them on
mainnet, and no hash depends on what else ran in the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.chain.types import Address, Hash32, hash_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.chain.execution import ExecutionContext, ExecutionOutcome

LEGACY = "legacy"
EIP1559 = "eip1559"


class TxIntent:
    """Interface for the executable payload of a transaction.

    Implementations mutate world state through the
    :class:`~repro.chain.execution.ExecutionContext` and either return an
    outcome or raise :class:`~repro.chain.execution.Revert`.
    """

    #: intrinsic gas estimate for this intent type; refined per-instance
    base_gas: int = 21_000

    def execute(self, ctx: "ExecutionContext") -> "ExecutionOutcome":
        raise NotImplementedError

    def gas_estimate(self) -> int:
        """Gas this intent will consume if it does not revert."""
        return self.base_gas


@dataclass
class Transaction:
    """A simulated Ethereum transaction.

    Fee semantics follow mainnet: legacy transactions bid a single
    ``gas_price``; EIP-1559 transactions bid ``max_fee_per_gas`` and
    ``max_priority_fee_per_gas``, with the block base fee burned and only the
    priority portion paid to the miner.
    """

    sender: Address
    nonce: int
    to: Optional[Address] = None
    value: int = 0
    gas_limit: int = 21_000
    tx_type: str = LEGACY
    gas_price: int = 0
    max_fee_per_gas: int = 0
    max_priority_fee_per_gas: int = 0
    intent: Optional[TxIntent] = None
    first_seen_block: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    _uid: int = field(default=0, repr=False)
    _hash: Optional[Hash32] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.tx_type not in (LEGACY, EIP1559):
            raise ValueError(f"unknown transaction type: {self.tx_type!r}")
        if self.tx_type == LEGACY and self.gas_price < 0:
            raise ValueError("gas_price must be non-negative")
        if self.tx_type == EIP1559:
            if self.max_fee_per_gas < self.max_priority_fee_per_gas:
                raise ValueError(
                    "max_fee_per_gas must cover max_priority_fee_per_gas")

    @property
    def hash(self) -> Hash32:
        """Stable transaction hash derived from identity fields and the
        uid the owning world minted (see the module docstring)."""
        if self._hash is None:
            self._hash = hash_of((
                "tx", self._uid, self.sender, self.nonce, self.to,
                self.value, self.gas_limit, self.tx_type, self.gas_price,
                self.max_fee_per_gas, self.max_priority_fee_per_gas,
            ))
        return self._hash

    # Fee-market arithmetic ---------------------------------------------------

    def max_bid_per_gas(self) -> int:
        """Highest per-gas price this transaction could ever pay."""
        if self.tx_type == LEGACY:
            return self.gas_price
        return self.max_fee_per_gas

    def effective_gas_price(self, base_fee: int) -> int:
        """Per-gas price actually charged to the sender at ``base_fee``."""
        if self.tx_type == LEGACY:
            return self.gas_price
        return min(self.max_fee_per_gas,
                   base_fee + self.max_priority_fee_per_gas)

    def miner_tip_per_gas(self, base_fee: int) -> int:
        """Per-gas amount the miner receives (excess over the burned base
        fee); negative results are clamped to zero."""
        return max(0, self.effective_gas_price(base_fee) - base_fee)

    def is_includable(self, base_fee: int) -> bool:
        """Whether the fee bid clears the block base fee."""
        return self.max_bid_per_gas() >= base_fee

    def max_upfront_cost(self) -> int:
        """Wei the sender must hold for the transaction to be valid."""
        return self.value + self.gas_limit * self.max_bid_per_gas()

    def __hash__(self) -> int:  # allow use in sets keyed by identity
        return hash(self.hash)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return self.hash == other.hash
