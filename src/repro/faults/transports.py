"""Transport facades that inject the plan's faults in front of sources.

Each facade presents the same query surface as the source it wraps, so
the measurement pipeline cannot tell it apart from the real thing —
exactly like the network sat between the paper's scripts and their data
sources.  Faults come in two flavours:

* **transient** — the first N attempts of an operation key raise a
  transport error / timeout / malformed-response error, then the
  operation heals.  Retrying (see :mod:`repro.reliability`) recovers
  the identical answer, so a retried chaos run is bit-identical to a
  fault-free run.
* **unrecoverable** — block ranges the source simply does not have:
  Flashbots dataset gaps, observer downtime, archive blackouts.  These
  are never masked; the pipeline must degrade visibly (``unknown`` /
  ``unobserved`` labels, a populated :class:`DataQualityReport`).

Facades never mutate the wrapped source and never corrupt returned
data — a malformed response is modelled as a *detected* validation
failure (an exception), the way a checksum mismatch surfaces in a real
client.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Type, TypeVar

from repro.chain.block import Block
from repro.chain.events import EventLog
from repro.chain.node import ArchiveNode
from repro.chain.p2p import MempoolObserver
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.chain.types import Address, Hash32
from repro.faults.errors import (
    MalformedResponseError,
    SourceGapError,
    TransportError,
    TransportTimeout,
)
from repro.faults.plan import (
    KIND_MALFORMED,
    KIND_TIMEOUT,
    BlockRange,
    FaultPlan,
    render_key,
)
from repro.flashbots.api import ApiBlock, ApiTransaction, FlashbotsBlocksApi

E = TypeVar("E", bound=EventLog)

_ERROR_CLASSES = {
    KIND_TIMEOUT: TransportTimeout,
    KIND_MALFORMED: MalformedResponseError,
}


class _FaultGate:
    """Per-key attempt counter that enforces the plan's decisions."""

    def __init__(self, plan: FaultPlan, source: str) -> None:
        self.plan = plan
        self.source = source
        self._attempts: Dict[Tuple[str, str], int] = {}

    def check(self, op: str, *args: object) -> None:
        """Raise the planned fault for this attempt of ``op(*args)``,
        or pass."""
        key = render_key(args)
        decision = self.plan.decide(self.source, op, key)
        if not decision.faulty:
            return
        counter = (op, key)
        attempt = self._attempts.get(counter, 0) + 1
        self._attempts[counter] = attempt
        if attempt <= decision.failures:
            error_cls = _ERROR_CLASSES.get(decision.kind, TransportError)
            raise error_cls(
                f"injected {decision.kind} on {self.source}.{op}({key}) "
                f"[attempt {attempt}/{decision.failures}]")


def _merge_ranges(*groups: Iterable[BlockRange]) -> Tuple[BlockRange, ...]:
    merged: List[BlockRange] = []
    for group in groups:
        merged.extend(group)
    return tuple(sorted(set(merged)))


class FaultyArchiveNode:
    """Archive-node facade: flaky RPC plus optional history blackouts."""

    def __init__(self, inner: ArchiveNode, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._gate = _FaultGate(plan, "archive")

    def _check_blackout(self, from_block: Optional[int],
                        to_block: Optional[int]) -> None:
        overlap = self.plan.blackout_overlap(from_block, to_block)
        if overlap is not None:
            raise SourceGapError(
                f"archive node has no history for blocks "
                f"{overlap[0]}-{overlap[1]}")

    # Block-level queries -----------------------------------------------------

    def latest_block_number(self) -> Optional[int]:
        self._gate.check("latest_block_number")
        return self.inner.latest_block_number()

    def earliest_block_number(self) -> Optional[int]:
        self._gate.check("earliest_block_number")
        return self.inner.earliest_block_number()

    def get_block(self, number: int) -> Optional[Block]:
        self._gate.check("get_block", number)
        self._check_blackout(number, number)
        return self.inner.get_block(number)

    def iter_blocks(self, from_block: Optional[int] = None,
                    to_block: Optional[int] = None) -> List[Block]:
        self._gate.check("iter_blocks", from_block, to_block)
        self._check_blackout(from_block, to_block)
        return list(self.inner.iter_blocks(from_block, to_block))

    # Transaction-level queries -----------------------------------------------

    def get_transaction(self, tx_hash: Hash32) -> Optional[Transaction]:
        self._gate.check("get_transaction", tx_hash)
        return self.inner.get_transaction(tx_hash)

    def get_receipt(self, tx_hash: Hash32) -> Optional[Receipt]:
        self._gate.check("get_receipt", tx_hash)
        return self.inner.get_receipt(tx_hash)

    # Log queries ---------------------------------------------------------

    def get_logs(self, event_type: Type[E],
                 from_block: Optional[int] = None,
                 to_block: Optional[int] = None) -> List[E]:
        self._gate.check("get_logs", event_type, from_block, to_block)
        self._check_blackout(from_block, to_block)
        return self.inner.get_logs(event_type, from_block, to_block)

    def iter_receipts(self, from_block: Optional[int] = None,
                      to_block: Optional[int] = None) -> List[Receipt]:
        self._gate.check("iter_receipts", from_block, to_block)
        self._check_blackout(from_block, to_block)
        return list(self.inner.iter_receipts(from_block, to_block))


class FaultyMempoolObserver:
    """Pending-trace facade: flaky lookups plus downtime windows.

    Downtime hides observations *after the fact*: a transaction first
    seen inside a downtime window is reported as never observed, because
    the real collector was offline when it would have arrived.
    """

    def __init__(self, inner: MempoolObserver, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._gate = _FaultGate(plan, "mempool")

    # Window / downtime metadata (cheap, local — never faulted) -----------

    def in_window(self, block_number: int) -> bool:
        return self.inner.in_window(block_number)

    def was_down(self, block_number: int) -> bool:
        return self.plan.in_observer_downtime(block_number) or \
            self.inner.was_down(block_number)

    @property
    def downtime_ranges(self) -> Tuple[BlockRange, ...]:
        return _merge_ranges(self.plan.observer_downtime,
                             self.inner.downtime_ranges)

    # Trace queries -------------------------------------------------------

    def _hidden(self, tx_hash: Hash32) -> bool:
        first = self.inner.first_seen(tx_hash)
        return first is not None and self.was_down(first)

    def was_observed(self, tx_hash: Hash32) -> bool:
        self._gate.check("was_observed", tx_hash)
        if self._hidden(tx_hash):
            return False
        return self.inner.was_observed(tx_hash)

    def first_seen(self, tx_hash: Hash32) -> Optional[int]:
        self._gate.check("first_seen", tx_hash)
        if self._hidden(tx_hash):
            return None
        return self.inner.first_seen(tx_hash)

    @property
    def observed_hashes(self) -> Set[Hash32]:
        return {tx_hash for tx_hash in self.inner.observed_hashes
                if not self._hidden(tx_hash)}

    def __len__(self) -> int:
        return len(self.observed_hashes)

    # Coverage accounting -------------------------------------------------

    def _hidden_count(self) -> int:
        return sum(1 for tx_hash in self.inner.observed_hashes
                   if self._hidden(tx_hash))

    @property
    def observed_count(self) -> int:
        return len(self.observed_hashes)

    @property
    def missed_count(self) -> int:
        """Inner misses plus observations hidden by injected downtime."""
        return self.inner.missed_count + self._hidden_count()

    @property
    def gossiped_total(self) -> int:
        return self.inner.gossiped_total

    def observed_coverage(self) -> float:
        total = self.gossiped_total
        return 1.0 if total == 0 else self.observed_count / total


class FaultyFlashbotsApi:
    """Flashbots blocks-API facade: flaky HTTP plus dataset gaps.

    Blocks inside a gap range are absent from every query — the facade
    answers exactly as the real API would for data it never ingested.
    ``has_block_data`` is the honest coverage signal: ``False`` means
    "cannot distinguish a non-Flashbots block from a missing row".
    """

    def __init__(self, inner: FlashbotsBlocksApi, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._gate = _FaultGate(plan, "flashbots")
        self._tx_blocks: Optional[Dict[Hash32, int]] = None

    def _tx_block(self, tx_hash: Hash32) -> Optional[int]:
        if self._tx_blocks is None:
            self._tx_blocks = {
                row.tx_hash: block.block_number
                for block in self.inner.all_blocks()
                for row in block.transactions}
        return self._tx_blocks.get(tx_hash)

    def _gapped_tx(self, tx_hash: Hash32) -> bool:
        block_number = self._tx_block(tx_hash)
        return block_number is not None and \
            self.plan.in_flashbots_gap(block_number)

    # Coverage ------------------------------------------------------------

    def has_block_data(self, block_number: int) -> bool:
        return not self.plan.in_flashbots_gap(block_number) and \
            self.inner.has_block_data(block_number)

    def coverage_gaps(self) -> List[BlockRange]:
        return list(_merge_ranges(self.plan.flashbots_gaps,
                                  self.inner.coverage_gaps()))

    # Public dataset queries ---------------------------------------------------

    def all_blocks(self) -> List[ApiBlock]:
        self._gate.check("all_blocks")
        return [block for block in self.inner.all_blocks()
                if not self.plan.in_flashbots_gap(block.block_number)]

    def blocks_until(self, block_number: int) -> List[ApiBlock]:
        self._gate.check("blocks_until", block_number)
        return [block for block in self.inner.blocks_until(block_number)
                if not self.plan.in_flashbots_gap(block.block_number)]

    def get_block(self, block_number: int) -> Optional[ApiBlock]:
        self._gate.check("get_block", block_number)
        if self.plan.in_flashbots_gap(block_number):
            return None
        return self.inner.get_block(block_number)

    def is_flashbots_block(self, block_number: int) -> bool:
        self._gate.check("is_flashbots_block", block_number)
        if self.plan.in_flashbots_gap(block_number):
            return False
        return self.inner.is_flashbots_block(block_number)

    def is_flashbots_tx(self, tx_hash: Hash32) -> bool:
        self._gate.check("is_flashbots_tx", tx_hash)
        if self._gapped_tx(tx_hash):
            return False
        return self.inner.is_flashbots_tx(tx_hash)

    def tx_label(self, tx_hash: Hash32) -> Optional[ApiTransaction]:
        self._gate.check("tx_label", tx_hash)
        if self._gapped_tx(tx_hash):
            return None
        return self.inner.tx_label(tx_hash)

    def flashbots_tx_hashes(self) -> Set[Hash32]:
        self._gate.check("flashbots_tx_hashes")
        return {tx_hash for tx_hash in self.inner.flashbots_tx_hashes()
                if not self._gapped_tx(tx_hash)}

    def block_count(self) -> int:
        self._gate.check("block_count")
        return len(self.all_blocks())

    def bundle_count(self) -> int:
        self._gate.check("bundle_count")
        return sum(block.bundle_count for block in self.all_blocks())
