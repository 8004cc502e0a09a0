"""Retry/breaker armor for the pipeline's three data sources.

Each ``Reliable*`` facade restores the *typed* query surface the
pipeline and the detection heuristics program against, and runs every
remote-shaped method through one :class:`ResilientCaller` (retry +
circuit breaker + stats) of its own.  The guarded call drains lazy
results, so a transport fault surfaces inside the retry loop rather
than later, at iteration time, in the caller.  Cheap local metadata
(observation windows, downtime ranges, coverage queries) forwards
directly: there is no transport to fail.

``shield`` wraps the pipeline's three sources at once.  (Its PR 2
spelling lived through a two-release deprecation shim and was removed
in 1.5.0; the R007 banned-api lint rule keeps the old name from
creeping back in.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Type,
    TypeVar,
)

from repro.chain.block import Block
from repro.chain.events import EventLog
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.chain.types import Hash32
from repro.faults.errors import DataSourceError
from repro.faults.plan import render_key
from repro.flashbots.api import ApiBlock, ApiTransaction
from repro.reliability.circuit import CircuitBreaker
from repro.reliability.retry import RetryPolicy

E = TypeVar("E", bound=EventLog)
T = TypeVar("T")

BlockRange = Tuple[int, int]

__all__ = [
    "ReliableArchiveNode",
    "ReliableFlashbotsApi",
    "ReliableMempoolObserver",
    "ResilientCaller",
    "SourceStats",
    "shield",
]


@dataclass
class SourceStats:
    """Raw resilience counters for one source."""

    requests: int = 0
    retries: int = 0
    failed_attempts: int = 0
    exhausted: int = 0
    simulated_backoff_s: float = 0.0


class ResilientCaller:
    """Retry + breaker + stats around one source's operations."""

    def __init__(self, source: str,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.source = source
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(source)
        self.stats = SourceStats()

    def call(self, op: str, key: str, operation: Callable[[], T]) -> T:
        """Run one operation under retry + breaker discipline."""
        self.stats.requests += 1

        def attempt() -> T:
            self.breaker.before_call()
            try:
                result = operation()
            except DataSourceError:
                self.breaker.record_failure()
                self.stats.failed_attempts += 1
                raise
            self.breaker.record_success()
            return result

        def on_retry(error: BaseException, delay: float) -> None:
            self.stats.retries += 1
            self.stats.simulated_backoff_s += delay

        try:
            return attempt() if self.retry.max_attempts == 1 else \
                self.retry.call(f"{self.source}.{op}:{key}", attempt,
                                on_retry=on_retry)
        except Exception:
            self.stats.exhausted += 1
            raise

    @property
    def breaker_trips(self) -> int:
        return self.breaker.trip_count


class _Guarded:
    """An inner source plus the caller that guards its remote ops."""

    source = "source"

    def __init__(self, inner: Any,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.inner = inner
        self.caller = ResilientCaller(self.source, retry, breaker)

    def _call(self, op: str, *key: Any) -> Any:
        """``inner.op(*key)`` under the caller; lazy results are drained
        inside the guarded call so their faults are retried too."""

        def operation() -> Any:
            result = getattr(self.inner, op)(*key)
            return list(result) if isinstance(result, Iterator) \
                else result

        return self.caller.call(op, render_key(key), operation)


class ReliableArchiveNode(_Guarded):
    """Archive-node surface with retries and a circuit breaker."""

    source = "archive"

    # Block-level queries -----------------------------------------------------

    def latest_block_number(self) -> Optional[int]:
        return self._call("latest_block_number")

    def earliest_block_number(self) -> Optional[int]:
        return self._call("earliest_block_number")

    def get_block(self, number: int) -> Optional[Block]:
        return self._call("get_block", number)

    def iter_blocks(self, from_block: Optional[int] = None,
                    to_block: Optional[int] = None) -> List[Block]:
        return self._call("iter_blocks", from_block, to_block)

    # Transaction-level queries -----------------------------------------------

    def get_transaction(self, tx_hash: Hash32) -> Optional[Transaction]:
        return self._call("get_transaction", tx_hash)

    def get_receipt(self, tx_hash: Hash32) -> Optional[Receipt]:
        return self._call("get_receipt", tx_hash)

    # Log queries ---------------------------------------------------------

    def get_logs(self, event_type: Type[E],
                 from_block: Optional[int] = None,
                 to_block: Optional[int] = None) -> List[E]:
        return self._call("get_logs", event_type, from_block, to_block)

    def iter_receipts(self, from_block: Optional[int] = None,
                      to_block: Optional[int] = None) -> List[Receipt]:
        return self._call("iter_receipts", from_block, to_block)


class ReliableMempoolObserver(_Guarded):
    """Pending-trace surface with retries and a circuit breaker."""

    source = "mempool"

    # Window / downtime metadata (local, never faulted) -------------------

    def in_window(self, block_number: int) -> bool:
        return self.inner.in_window(block_number)

    def was_down(self, block_number: int) -> bool:
        return self.inner.was_down(block_number)

    @property
    def downtime_ranges(self) -> Tuple[BlockRange, ...]:
        return tuple(self.inner.downtime_ranges)

    # Trace queries -------------------------------------------------------

    def was_observed(self, tx_hash: Hash32) -> bool:
        return self._call("was_observed", tx_hash)

    def first_seen(self, tx_hash: Hash32) -> Optional[int]:
        return self._call("first_seen", tx_hash)

    @property
    def observed_hashes(self) -> Set[Hash32]:
        return set(self.inner.observed_hashes)

    def __len__(self) -> int:
        return len(self.inner)

    # Coverage accounting -------------------------------------------------

    @property
    def observed_count(self) -> int:
        return self.inner.observed_count

    @property
    def missed_count(self) -> int:
        return self.inner.missed_count

    @property
    def gossiped_total(self) -> int:
        return self.inner.gossiped_total

    def observed_coverage(self) -> float:
        return self.inner.observed_coverage()


class ReliableFlashbotsApi(_Guarded):
    """Flashbots blocks-API surface with retries and a breaker."""

    source = "flashbots"

    # Coverage (local metadata) -------------------------------------------

    def has_block_data(self, block_number: int) -> bool:
        return self.inner.has_block_data(block_number)

    def coverage_gaps(self) -> List[BlockRange]:
        return list(self.inner.coverage_gaps())

    # Public dataset queries ---------------------------------------------------

    def all_blocks(self) -> List[ApiBlock]:
        return list(self._call("all_blocks"))

    def blocks_until(self, block_number: int) -> List[ApiBlock]:
        return list(self._call("blocks_until", block_number))

    def get_block(self, block_number: int) -> Optional[ApiBlock]:
        return self._call("get_block", block_number)

    def is_flashbots_block(self, block_number: int) -> bool:
        return self._call("is_flashbots_block", block_number)

    def is_flashbots_tx(self, tx_hash: Hash32) -> bool:
        return self._call("is_flashbots_tx", tx_hash)

    def tx_label(self, tx_hash: Hash32) -> Optional[ApiTransaction]:
        return self._call("tx_label", tx_hash)

    def flashbots_tx_hashes(self) -> Set[Hash32]:
        return set(self._call("flashbots_tx_hashes"))

    def block_count(self) -> int:
        return self._call("block_count")

    def bundle_count(self) -> int:
        return self._call("bundle_count")


def shield(node: object,
           observer: Optional[object] = None,
           flashbots_api: Optional[object] = None,
           retry: Optional[RetryPolicy] = None,
           failure_threshold: int = 5,
           cooldown_calls: int = 10,
           ) -> Tuple[ReliableArchiveNode,
                      Optional[ReliableMempoolObserver],
                      Optional[ReliableFlashbotsApi]]:
    """Wrap the pipeline's sources in retry/breaker armor.

    Each source gets its *own* breaker (one flaky source must not trip
    the others) but shares the retry policy, so one seed governs every
    backoff schedule.
    """
    retry = retry or RetryPolicy()

    def breaker(name: str) -> CircuitBreaker:
        return CircuitBreaker(name, failure_threshold=failure_threshold,
                              cooldown_calls=cooldown_calls)

    shielded_node = ReliableArchiveNode(node, retry, breaker("archive"))
    shielded_observer = None if observer is None else \
        ReliableMempoolObserver(observer, retry, breaker("mempool"))
    shielded_api = None if flashbots_api is None else \
        ReliableFlashbotsApi(flashbots_api, retry, breaker("flashbots"))
    return shielded_node, shielded_observer, shielded_api
