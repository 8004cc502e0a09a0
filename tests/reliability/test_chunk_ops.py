"""The archive ops one detection chunk issues, and what faults do to it.

``ChunkRunner.run_chunk`` reads each chunk with one ranged block fetch
and one flash-loan log query, plus the receipt lookups the sandwich and
liquidation heuristics need.  The resilience ledger counts exactly
those ops, and transient faults on them never change a chunk's rows.
(Per-heuristic row equivalence is covered in ``tests/core/test_scan.py``
against the standalone ``detect_*`` functions.)
"""

import pytest

from repro.chain.events import FlashLoanEvent
from repro.core.profit import PriceService
from repro.engine import ChunkRunner
from repro.faults import FaultPlan, FaultyArchiveNode
from repro.faults.errors import SourceGapError
from repro.reliability import shield

from tests.reliability.conftest import CHAOS_SEED

ARCHIVE_OPS = ("latest_block_number", "earliest_block_number",
               "get_block", "iter_blocks", "get_transaction",
               "get_receipt", "get_logs", "iter_receipts")


class RecordingNode:
    """Archive surface that logs every op it serves, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.ops = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in ARCHIVE_OPS:
            return attr

        def recorded(*args):
            self.ops.append((name,) + args)
            return attr(*args)

        return recorded


def chunks_of(span, size=25):
    lo, hi = span
    return [(start, min(start + size - 1, hi))
            for start in range(lo, hi + 1, size)]


@pytest.fixture
def prices(sim_result):
    return PriceService(sim_result.oracle)


class TestChunkOps:
    def test_one_block_fetch_and_one_log_query_per_chunk(
            self, sim_result, span, prices):
        recorder = RecordingNode(sim_result.node)
        runner = ChunkRunner(node=recorder, prices=prices)
        for lo, hi in chunks_of(span):
            recorder.ops.clear()
            assert not runner.run_chunk((lo, hi)).failed
            ranged = [op for op in recorder.ops
                      if op[0] != "get_receipt"]
            assert ranged == [("iter_blocks", lo, hi),
                              ("get_logs", FlashLoanEvent, lo, hi)]

    def test_requests_count_exactly_the_recorded_ops(
            self, sim_result, span, prices):
        recorder = RecordingNode(sim_result.node)
        shielded, _, _ = shield(recorder)
        runner = ChunkRunner.for_pipeline(shielded, prices)
        total = 0
        for chunk in chunks_of(span):
            recorder.ops.clear()
            result = runner.run_chunk(chunk)
            assert result.stats.requests == len(recorder.ops)
            assert result.stats.retries == 0
            total += result.stats.requests
        assert total > 2 * len(chunks_of(span))  # receipts were counted

    def test_chaos_payloads_equal_the_clean_run(self, sim_result, span,
                                                prices):
        plan = FaultPlan.from_profile("chaos", CHAOS_SEED, *span)
        clean = ChunkRunner.for_pipeline(shield(sim_result.node)[0],
                                         prices)
        faulty, _, _ = shield(FaultyArchiveNode(sim_result.node, plan))
        chaos = ChunkRunner.for_pipeline(faulty, prices)
        retries = 0
        for chunk in chunks_of(span):
            want = clean.run_chunk(chunk)
            got = chaos.run_chunk(chunk)
            assert not got.failed
            assert got.payload == want.payload
            retries += got.stats.retries
        assert retries > 0  # the plan really did fault archive ops

    def test_unservable_chunk_is_a_failed_artifact(self, sim_result,
                                                   span, prices):
        """A source that cannot serve the range fails the chunk after
        its one block fetch, and the ledger still says so."""

        class PrunedNode(RecordingNode):
            def iter_blocks(self, from_block=None, to_block=None):
                self.ops.append(("iter_blocks", from_block, to_block))
                raise SourceGapError("archive range pruned")

        recorder = PrunedNode(sim_result.node)
        shielded, _, _ = shield(recorder)
        runner = ChunkRunner.for_pipeline(shielded, prices)
        result = runner.run_chunk(chunks_of(span)[0])
        assert result.failed and result.payload is None
        assert result.stats.requests == 1
        assert result.stats.exhausted == 1
        assert result.stats.failed_attempts == len(recorder.ops)
