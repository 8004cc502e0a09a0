"""The unit of work executors schedule: one chunk's detections.

``ChunkRunner`` owns everything a worker process needs to detect MEV in
one block range: the (possibly fault-wrapped) archive surface, the
price service, and the retry/breaker parameters.  It is picklable by
construction — plain data, no open handles, no lambdas — so the
parallel executor can ship one copy to each worker.

**Chunk isolation.**  Every chunk runs against a *fresh*
``ReliableArchiveNode`` (fresh breaker, fresh stats ledger, the same
frozen retry policy).  Injected faults are pure in ``(seed, source,
op, key)`` and every operation key is chunk-local, so a chunk's result
— rows, flash-loan transactions, resilience counters, or a permanent
failure — is a pure function of ``(world, fault plan, chunk)``.  That
is what makes execution order irrelevant and parallel runs bit-identical
to serial ones; it also scopes a blackout's breaker trips to the chunks
the blackout actually covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.engine.executors import ChunkResult, ChunkStats
from repro.faults.errors import DataSourceError
from repro.reliability.circuit import CircuitBreaker
from repro.reliability.retry import RetryExhaustedError, RetryPolicy
from repro.reliability.sources import ReliableArchiveNode

BlockRange = Tuple[int, int]

#: errors that mark a chunk as permanently failed instead of crashing
CHUNK_FAILURES = (DataSourceError, RetryExhaustedError)


@dataclass
class ChunkRunner:
    """Detect MEV in one chunk with chunk-isolated resilience state.

    ``node`` is the *unshielded* archive surface (real or
    fault-injected); when ``retry`` is set, each chunk wraps it in a
    fresh ``ReliableArchiveNode`` so retries/breaker trips are counted
    per chunk.  ``retry=None`` reproduces the bare-node behaviour of a
    pipeline built without :func:`repro.reliability.shield`.
    """

    node: Any
    prices: Any
    retry: Optional[RetryPolicy] = None
    failure_threshold: int = 5
    cooldown_calls: int = 10

    @classmethod
    def for_pipeline(cls, node: Any, prices: Any) -> "ChunkRunner":
        """A runner matching how the pipeline's node is armored.

        A ``ReliableArchiveNode`` is unwrapped to its inner transport
        plus the retry/breaker parameters it was built with; anything
        else runs bare, exactly as it would have in-process.
        """
        caller = getattr(node, "caller", None)
        inner = getattr(node, "inner", None)
        if caller is None or inner is None:
            return cls(node=node, prices=prices, retry=None)
        breaker = caller.breaker
        return cls(node=inner, prices=prices, retry=caller.retry,
                   failure_threshold=breaker.failure_threshold,
                   cooldown_calls=breaker.cooldown_calls)

    def _chunk_node(self) -> Any:
        if self.retry is None:
            return self.node
        breaker = CircuitBreaker(
            "archive", failure_threshold=self.failure_threshold,
            cooldown_calls=self.cooldown_calls)
        return ReliableArchiveNode(self.node, self.retry, breaker)

    def warm_index(self) -> None:
        """Build the chain's read index once, here in the parent,
        before any fan-out: forked workers inherit the built index
        copy-on-write instead of each paying the first-query build.
        Walks wrapper facades (``.inner``) down to whatever exposes
        ``warm_index``; a no-op for surfaces that don't."""
        node = self.node
        while node is not None:
            warm = getattr(node, "warm_index", None)
            if warm is not None:
                warm()
                return
            node = getattr(node, "inner", None)

    def _read_index(self) -> Any:
        """The chain's shared read index, when the underlying archive
        surface is an indexed ``ArchiveNode``; ``None`` for linear
        surfaces (then the scan walks receipts directly).  Wrappers
        (fault transports, facades) are unwrapped via ``.inner``."""
        node = self.node
        while node is not None:
            chain = getattr(node, "chain", None)
            if chain is not None:
                # Segment-backed chains have no in-memory index; their
                # ranged reads bisect the segment manifest instead, so
                # the chunk scan treats them as a linear surface.
                if getattr(node, "segmented", False):
                    return None
                return chain.index if getattr(node, "indexed",
                                              False) else None
            node = getattr(node, "inner", None)
        return None

    def run_chunk(self, chunk: BlockRange) -> ChunkResult:
        """One chunk's detections as a checkpointable artifact.

        Single pass: one ranged block read feeds all four heuristics
        through :class:`~repro.core.scan.BlockScan`.  The archive ops a
        chunk issues are exactly what the scan needs: one
        ``iter_blocks(lo, hi)``, the sandwich/liquidation receipt
        lookups, and one ``get_logs(FlashLoanEvent, lo, hi)``; the
        ``requests`` counter in :class:`ChunkStats` counts these and
        nothing else.  On a spilled chain the fetched blocks are held
        until the chunk ends, so ``get_logs`` and every receipt lookup
        resolve to those live objects through the segment reader's weak
        map — each spilled segment is decoded once per chunk.
        """
        # Imported here, not at module top: repro.core imports the
        # engine (pipeline → executors/runner), so the runner reaches
        # back into repro.core lazily to keep the import DAG acyclic.
        from repro.chain.events import FlashLoanEvent
        from repro.core.datasets import MevDataset
        from repro.core.heuristics.arbitrage import ArbitrageVisitor
        from repro.core.heuristics.flashloan import flash_loan_hashes
        from repro.core.heuristics.liquidation import LiquidationVisitor
        from repro.core.heuristics.sandwich import SandwichVisitor
        from repro.core.scan import BlockScan, views_from_index

        node = self._chunk_node()
        index = self._read_index()
        lo, hi = chunk
        try:
            sandwich = SandwichVisitor(self.prices)
            arbitrage = ArbitrageVisitor(self.prices)
            liquidation = LiquidationVisitor(self.prices)
            scan = BlockScan([sandwich, arbitrage, liquidation])
            # Held until the chunk ends, not just for the scan: while
            # these blocks live, every later read of the range resolves
            # to them instead of decoding spilled segments again.
            blocks = node.iter_blocks(lo, hi)
            if index is not None:
                # Bucket from the shared postings lists: the fetched
                # blocks are the chain's own sealed objects, so the
                # index coordinates address them exactly, and reading
                # the index issues no archive ops.
                scan.scan_views(views_from_index(index, list(blocks)))
            else:
                scan.scan(blocks)
            partial = MevDataset(
                sandwiches=sandwich.finalize(node),
                arbitrages=arbitrage.finalize(),
                liquidations=liquidation.finalize(node),
            )
            flash_txs = flash_loan_hashes(
                node.get_logs(FlashLoanEvent, lo, hi))
        except CHUNK_FAILURES:
            return ChunkResult(chunk=chunk, payload=None,
                               stats=self._stats_of(node))
        payload = {"rows": partial.to_rows(),
                   "flash_txs": sorted(flash_txs)}
        return ChunkResult(chunk=chunk, payload=payload,
                           stats=self._stats_of(node))

    @staticmethod
    def _stats_of(node: Any) -> ChunkStats:
        caller = getattr(node, "caller", None)
        if caller is None:
            return ChunkStats()
        stats = caller.stats
        return ChunkStats(
            requests=stats.requests,
            retries=stats.retries,
            failed_attempts=stats.failed_attempts,
            exhausted=stats.exhausted,
            simulated_backoff_s=stats.simulated_backoff_s,
            breaker_trips=caller.breaker_trips)
