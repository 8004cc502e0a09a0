"""Tests for the spillable segment store and segment-backed chain.

The segment store follows the world-cache integrity rule: any anomaly
— missing manifest, unknown format, truncated or tampered segment —
raises :class:`SegmentIntegrityError` with a clear message, and
``open_or_create`` answers every anomaly with a fresh store.  The
spilling chain must serve reads bit-identically to a plain in-memory
:class:`Blockchain` while keeping only a bounded tail resident.
"""

import gc
import json
import os
import pickle
from array import array

import pytest

from repro import quick_study, run_inspector
from repro.chain.block import BlockBuilder
from repro.chain.intents import TokenTransferIntent
from repro.chain.node import Blockchain
from repro.chain.segments import (
    MANIFEST_NAME,
    SEGMENT_FORMAT,
    SegmentIntegrityError,
    SegmentReader,
    SegmentStore,
    SpillingBlockchain,
)
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label, ether, gwei
from repro.engine.runner import ChunkRunner
from repro.faults import FaultPlan

A = address_from_label("alice")
B = address_from_label("bob")
MINER = address_from_label("miner")


def build_blocks(num_blocks, txs_per_block=1, state=None):
    """``num_blocks`` contiguous blocks of ``txs_per_block`` token
    transfers each, minted in ``state`` (a fresh world by default)."""
    if state is None:
        state = WorldState()
    state.credit_eth(A, ether(1_000))
    state.mint_token("DAI", A, 10**6)
    blocks = []
    for n in range(1, num_blocks + 1):
        bld = BlockBuilder(state, number=n, timestamp=13 * n,
                           coinbase=MINER, base_fee=0)
        for _ in range(txs_per_block):
            tx = Transaction(sender=A, nonce=state.nonce(A), to=B,
                             gas_price=gwei(10), gas_limit=60_000,
                             intent=TokenTransferIntent("DAI", B, n),
                             _uid=state.next_tx_uid())
            bld.apply_transaction(tx)
        blocks.append(bld.finalize())
    return blocks


def tx_hashes(blocks):
    """Transaction hashes of a block run, in chain order (a block's own
    hash does not commit to its transactions)."""
    return [tx.hash for block in blocks for tx in block.transactions]


#: full, partial, cross-segment, and empty ranges over a 12-block store
READER_RANGES = [(None, None), (1, 12), (2, 11), (4, 6), (5, 8), (1, 1),
                 (12, 12), (9, 4), (20, 30)]


def filled_store(tmp_path, epochs=4, epoch_blocks=3):
    """A store with ``epochs`` spilled segments plus the source blocks."""
    store = SegmentStore.create(str(tmp_path / "segs"))
    blocks = build_blocks(epochs * epoch_blocks)
    for epoch in range(epochs):
        store.write_segment(
            epoch, blocks[epoch * epoch_blocks:(epoch + 1) * epoch_blocks])
    return store, blocks


class TestSegmentStore:
    def test_round_trip(self, tmp_path):
        store, blocks = filled_store(tmp_path)
        loaded = store.load_segment(1)
        assert [b.number for b in loaded] == [4, 5, 6]
        assert [b.hash for b in loaded] == [b.hash for b in blocks[3:6]]
        manifest = json.loads(
            (tmp_path / "segs" / MANIFEST_NAME).read_text())
        assert manifest["format"] == SEGMENT_FORMAT
        assert len(manifest["segments"]) == 4

    def test_segment_for_block_bisects(self, tmp_path):
        store, _ = filled_store(tmp_path)
        assert store.segment_for_block(1).epoch == 0
        assert store.segment_for_block(6).epoch == 1
        assert store.segment_for_block(12).epoch == 3
        assert store.segment_for_block(13) is None
        assert store.segment_for_block(0) is None

    def test_non_contiguous_segment_rejected(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        blocks = build_blocks(4)
        with pytest.raises(ValueError):
            store.write_segment(0, [blocks[0], blocks[2]])
        with pytest.raises(ValueError):
            store.write_segment(0, [])

    def test_reopen_reads_existing_manifest(self, tmp_path):
        store, blocks = filled_store(tmp_path)
        reopened = SegmentStore(store.root)
        assert [s.epoch for s in reopened.segments] == [0, 1, 2, 3]
        assert [b.hash for b in reopened.load_segment(2)] == \
            [b.hash for b in blocks[6:9]]


class TestIntegrity:
    def test_corrupt_segment_file(self, tmp_path):
        store, _ = filled_store(tmp_path)
        path = os.path.join(store.root, store.segments[1].filename)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle at all")
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(1)

    def test_truncated_segment_file(self, tmp_path):
        store, _ = filled_store(tmp_path)
        path = os.path.join(store.root, store.segments[2].filename)
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[:len(payload) // 2])
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(2)

    def test_missing_segment_file(self, tmp_path):
        store, _ = filled_store(tmp_path)
        os.remove(os.path.join(store.root, store.segments[0].filename))
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(0)

    def test_fingerprint_mismatch(self, tmp_path):
        store, blocks = filled_store(tmp_path)
        # Swap epoch 0's file for epoch 1's content: unpickles fine,
        # right count, but the content fingerprint gives it away.
        with open(os.path.join(store.root,
                               store.segments[0].filename), "wb") as out:
            pickle.dump(blocks[3:6], out)
        with pytest.raises(SegmentIntegrityError,
                           match="fingerprint mismatch"):
            store.load_segment(0)

    def test_swapped_transactions_fail_the_fingerprint(self, tmp_path):
        store, blocks = filled_store(tmp_path)
        # Same block numbers, miner, timestamps and tx counts — so the
        # same block hashes — but other transactions: a world that had
        # already minted some uids signs different transaction hashes.
        other = WorldState()
        for _ in range(100):
            other.next_tx_uid()
        impostors = build_blocks(12, state=other)[3:6]
        assert [b.hash for b in impostors] == \
            [b.hash for b in blocks[3:6]]
        assert tx_hashes(impostors) != tx_hashes(blocks[3:6])
        with open(os.path.join(store.root,
                               store.segments[1].filename), "wb") as out:
            pickle.dump(impostors, out)
        with pytest.raises(SegmentIntegrityError,
                           match="fingerprint mismatch"):
            store.load_segment(1)

    def test_unknown_epoch(self, tmp_path):
        store, _ = filled_store(tmp_path)
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(99)


class TestFormatRejection:
    def test_formatless_manifest_names_the_old_layout(self, tmp_path):
        """A cache written by <= 1.5.0 (no format marker) is rejected
        with a message that says so, never a pickle traceback."""
        root = tmp_path / "old"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(json.dumps({"segments": []}))
        with pytest.raises(SegmentIntegrityError,
                           match=r"older repro \(<= 1\.5\.0"):
            SegmentStore(str(root))

    def test_future_format_rejected_clearly(self, tmp_path):
        root = tmp_path / "future"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"format": SEGMENT_FORMAT + 1, "segments": []}))
        with pytest.raises(SegmentIntegrityError,
                           match=f"format {SEGMENT_FORMAT}"):
            SegmentStore(str(root))

    def test_nonempty_dir_without_manifest_refused(self, tmp_path):
        root = tmp_path / "junk"
        root.mkdir()
        (root / "unrelated.txt").write_text("keep out")
        with pytest.raises(SegmentIntegrityError, match="no manifest"):
            SegmentStore(str(root))

    def test_garbage_manifest(self, tmp_path):
        root = tmp_path / "garbage"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SegmentIntegrityError, match="unreadable"):
            SegmentStore(str(root))

    def test_open_or_create_answers_anomaly_with_fresh(self, tmp_path):
        """The PR-4 rule: any anomaly means re-simulate from scratch."""
        root = tmp_path / "recover"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(json.dumps({"segments": []}))
        (root / "seg-000000.pkl").write_bytes(b"stale garbage")
        store = SegmentStore.open_or_create(str(root))
        assert store.segments == []
        assert not (root / "seg-000000.pkl").exists()
        blocks = build_blocks(2)
        store.write_segment(0, blocks)
        assert [b.hash for b in store.load_segment(0)] == \
            [b.hash for b in blocks]


class TestSegmentReader:
    def test_lru_stays_bounded(self, tmp_path):
        store, _ = filled_store(tmp_path, epochs=5)
        reader = SegmentReader(store, max_resident=2)
        for number in (1, 4, 7, 10, 13):
            assert reader.block(number).number == number
            assert len(reader.resident_epochs) <= 2
        assert reader.resident_epochs == [3, 4]
        # Re-touching an older block recalls it through the LRU.
        assert reader.block(1).number == 1
        assert reader.resident_epochs == [4, 0]

    def test_bounded_matches_unbounded_reference(self, tmp_path):
        """The manifest-bisect fast path must yield exactly what the
        ``bounded=False`` reference (``_iter_range_unbounded``) yields,
        for full, partial, cross-segment, and empty ranges."""
        store, _ = filled_store(tmp_path, epochs=4, epoch_blocks=3)
        fast = SegmentReader(store, max_resident=1)
        reference = SegmentReader(store, bounded=False)
        for lo, hi in READER_RANGES:
            got = [b.hash for b in fast.iter_range(lo, hi)]
            want = [b.hash for b in reference.iter_range(lo, hi)]
            assert got == want, (lo, hi)
        # The reference never evicts; the fast path stayed bounded.
        assert len(fast.resident_epochs) <= 1
        assert len(reference.resident_epochs) == 4

    def test_live_reads_match_unbounded_reference(self, tmp_path,
                                                  monkeypatch):
        """While a caller holds the decoded blocks, the bounded path
        serves every range from them — reading nothing — and still
        matches the ``bounded=False`` reference element for element."""
        store, _ = filled_store(tmp_path, epochs=4, epoch_blocks=3)
        fast = SegmentReader(store, max_resident=1)
        reference = SegmentReader(store, bounded=False)
        want = {r: [(b.number, b.hash) for b in reference.iter_range(*r)]
                for r in READER_RANGES}
        held = list(fast.iter_range())
        loads = count_loads(monkeypatch, store)
        for lo, hi in READER_RANGES:
            got = list(fast.iter_range(lo, hi))
            assert [(b.number, b.hash) for b in got] == want[lo, hi]
            assert all(any(b is h for h in held) for b in got)
        assert [fast.block(n) for n in (1, 7, 12)] == \
            [held[0], held[6], held[11]]
        assert loads == []
        assert len(fast.resident_epochs) <= 1

    def test_rewritten_epoch_yields_new_blocks(self, tmp_path):
        """A rewritten epoch is read afresh even while its old blocks
        are still referenced — whether the old segment is resident in
        the LRU (epoch 1) or only alive elsewhere (epoch 0)."""
        store = SegmentStore.create(str(tmp_path / "segs"))
        state = WorldState()
        old, new = [build_blocks(6, state=state) for _ in range(2)]
        store.write_segment(0, old[:3])
        store.write_segment(1, old[3:])
        reader = SegmentReader(store, max_resident=1)
        held = list(reader.iter_range())
        assert tx_hashes(held) == tx_hashes(old)
        assert reader.resident_epochs == [1]
        store.write_segment(0, new[:3])
        store.write_segment(1, new[3:])
        for fresh in (reader, SegmentReader(store, bounded=False)):
            assert tx_hashes([fresh.block(5), fresh.block(2)]) == \
                tx_hashes([new[4], new[1]])
            assert tx_hashes(fresh.iter_range()) == tx_hashes(new)

    def test_tampered_segment_raises_once_nothing_holds_it(
            self, tmp_path):
        """A live hit reads no bytes; once the blocks are gone the
        segment is decoded again, through every integrity check."""
        store, _ = filled_store(tmp_path, epochs=3)
        reader = SegmentReader(store, max_resident=1)
        held = list(reader.iter_range(1, 3))
        list(reader.iter_range(4, 6))  # evicts epoch 0 from the LRU
        path = os.path.join(store.root, store.segments[0].filename)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle at all")
        assert [b.number for b in reader.iter_range(1, 3)] == [1, 2, 3]
        del held
        gc.collect()
        with pytest.raises(SegmentIntegrityError):
            list(reader.iter_range(1, 3))

    def test_pickled_reader_reads_the_same_blocks(self, tmp_path):
        """The weak map is process-local and left out of a pickle
        (spilled chains without a background writer ship to spawned
        workers); the copy re-reads the store."""
        store, blocks = filled_store(tmp_path)
        reader = SegmentReader(store, max_resident=1)
        held = list(reader.iter_range())
        copy = pickle.loads(pickle.dumps(reader))
        assert tx_hashes(copy.iter_range()) == tx_hashes(held) == \
            tx_hashes(blocks)

    def test_block_outside_store(self, tmp_path):
        store, _ = filled_store(tmp_path)
        reader = SegmentReader(store)
        assert reader.block(999) is None

    def test_max_resident_must_be_positive(self, tmp_path):
        store, _ = filled_store(tmp_path)
        with pytest.raises(ValueError):
            SegmentReader(store, max_resident=0)


class TestSpillingBlockchain:
    def spilled_pair(self, tmp_path, num_blocks=14, epoch_blocks=3,
                     max_resident=2):
        """The same block sequence appended to a plain chain and a
        spilling chain (shared objects; both stamp identical linkage)."""
        blocks = build_blocks(num_blocks)
        plain = Blockchain()
        store = SegmentStore.create(str(tmp_path / "segs"))
        spilling = SpillingBlockchain(
            store, epoch_blocks=epoch_blocks,
            max_resident_epochs=max_resident)
        for block in blocks:
            plain.append(block)
            spilling.append(block)
        return plain, spilling

    def test_residency_stays_bounded(self, tmp_path):
        _, spilling = self.spilled_pair(tmp_path, num_blocks=20,
                                        epoch_blocks=3, max_resident=2)
        # Retained tail plus the in-progress epoch.
        assert len(spilling.blocks) <= (2 + 1) * 3
        assert spilling.height == 20
        assert spilling.earliest_number == 1

    def test_reads_match_in_memory_chain(self, tmp_path):
        plain, spilling = self.spilled_pair(tmp_path)
        for number in range(1, 15):
            assert spilling.block_by_number(number).hash == \
                plain.block_by_number(number).hash
        assert spilling.block_by_number(99) is None
        for lo, hi in ((None, None), (1, 14), (2, 5), (7, 13),
                       (14, 14), (10, 3)):
            got = [b.hash for b in spilling.iter_range(lo, hi)]
            want = [b.hash for b in plain.iter_range(lo, hi)] \
                if hasattr(plain, "iter_range") else \
                [b.hash for b in plain.blocks
                 if (lo is None or b.number >= lo)
                 and (hi is None or b.number <= hi)]
            assert got == want, (lo, hi)

    def test_locate_transaction_falls_back_to_segments(self, tmp_path):
        plain, spilling = self.spilled_pair(tmp_path)
        # Block 1 was evicted long ago; its tx resolves via segments.
        tx = plain.blocks[0].transactions[0]
        located = spilling.locate_transaction(tx.hash)
        assert located is not None
        block, position = located
        assert block.number == 1 and position == 0
        assert spilling.locate_transaction("0x" + "00" * 32) is None

    def test_index_property_raises(self, tmp_path):
        _, spilling = self.spilled_pair(tmp_path)
        with pytest.raises(RuntimeError, match="no in-memory index"):
            spilling.index

    def test_rollback_below_resident_window_raises(self, tmp_path):
        _, spilling = self.spilled_pair(tmp_path)
        resident_start = spilling.blocks[0].number
        with pytest.raises(ValueError, match="resident window"):
            spilling.rollback(resident_start - 2)
        # Shallow rollbacks inside the window still work.
        spilling.rollback(13)
        assert spilling.height == 13

    def test_validation(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        with pytest.raises(ValueError):
            SpillingBlockchain(store, epoch_blocks=0)
        with pytest.raises(ValueError):
            SpillingBlockchain(store, epoch_blocks=3,
                               max_resident_epochs=0)


def count_loads(monkeypatch, store):
    """Count ``store.load_segment`` calls (a list of loaded epochs)."""
    loads = []
    original = store.load_segment

    def counted(epoch):
        loads.append(epoch)
        return original(epoch)

    monkeypatch.setattr(store, "load_segment", counted)
    return loads


def tampered(tx_hash):
    """Same 16-hex-digit locator prefix, different tail."""
    last = "0" if tx_hash[-1] != "0" else "1"
    return tx_hash[:-1] + last


#: (num_blocks, epoch_blocks, max_resident_epochs) chain shapes
LOCATOR_SHAPES = [(14, 3, 2), (20, 4, 1), (17, 2, 3), (9, 1, 1)]


class TestTransactionLocator:
    """Spilled lookups go through the per-segment locator and must
    resolve exactly as the in-memory :class:`Blockchain` does."""

    def spilled_pair(self, tmp_path, num_blocks, epoch_blocks,
                     max_resident):
        blocks = build_blocks(num_blocks, txs_per_block=3)
        plain = Blockchain()
        store = SegmentStore.create(str(tmp_path / "segs"))
        spilling = SpillingBlockchain(
            store, epoch_blocks=epoch_blocks,
            max_resident_epochs=max_resident)
        for block in blocks:
            plain.append(block)
            spilling.append(block)
        return plain, spilling

    @staticmethod
    def located(chain, tx_hash):
        found = chain.locate_transaction(tx_hash)
        if found is None:
            return None
        block, position = found
        return block.number, block.hash, position

    @staticmethod
    def spilled_txs(plain, spilling):
        resident_start = spilling.blocks[0].number
        return [tx for block in plain.blocks
                if block.number < resident_start
                for tx in block.transactions]

    @pytest.mark.parametrize("shape", LOCATOR_SHAPES)
    def test_every_tx_matches_in_memory_chain(self, tmp_path, shape):
        plain, spilling = self.spilled_pair(tmp_path, *shape)
        assert self.spilled_txs(plain, spilling)
        for block in plain.blocks:
            for tx in block.transactions:
                assert self.located(spilling, tx.hash) == \
                    self.located(plain, tx.hash), (block.number, tx.hash)

    @pytest.mark.parametrize("shape", LOCATOR_SHAPES)
    def test_unknown_and_prefix_collision_miss(self, tmp_path, shape):
        plain, spilling = self.spilled_pair(tmp_path, *shape)
        assert spilling.locate_transaction("0x" + "00" * 32) is None
        assert spilling.locate_transaction("not-a-hash") is None
        for tx in self.spilled_txs(plain, spilling):
            assert spilling.locate_transaction(tampered(tx.hash)) is None

    @pytest.mark.parametrize("shape", LOCATOR_SHAPES)
    def test_chain_order_sweep_loads_each_segment_once(
            self, tmp_path, monkeypatch, shape):
        plain, spilling = self.spilled_pair(tmp_path, *shape)
        spilled = [info for info in spilling.store.segments
                   if info.first_block < spilling.blocks[0].number]
        loads = count_loads(monkeypatch, spilling.store)
        for tx in self.spilled_txs(plain, spilling):
            assert spilling.locate_transaction(tx.hash) is not None
        assert len(loads) <= len(spilled), loads
        assert sorted(set(loads)) == [info.epoch for info in spilled]

    @pytest.mark.parametrize("shape", LOCATOR_SHAPES)
    def test_reopened_store_builds_keys_lazily(self, tmp_path,
                                               monkeypatch, shape):
        plain, spilling = self.spilled_pair(tmp_path, *shape)
        _, epoch_blocks, max_resident = shape
        store = SegmentStore(spilling.store.root)
        assert store.locator_bytes == 0
        fresh = SpillingBlockchain(store, epoch_blocks=epoch_blocks,
                                   max_resident_epochs=max_resident)
        loads = count_loads(monkeypatch, store)
        segmented = [tx for block in plain.blocks
                     if store.segment_for_block(block.number) is not None
                     for tx in block.transactions]
        for tx in segmented:
            assert self.located(fresh, tx.hash) == \
                self.located(plain, tx.hash)
            assert fresh.locate_transaction(tampered(tx.hash)) is None
        # One load per segment to build its keys, at most one more
        # through the reader per segment in a chain-order sweep.
        assert len(loads) <= 2 * len(store.segments), loads
        assert store.locator_bytes == 8 * len(segmented)

    def test_prefix_collision_moves_to_next_candidate(self, tmp_path,
                                                      monkeypatch):
        plain, spilling = self.spilled_pair(tmp_path, 14, 3, 2)
        store = spilling.store
        target = plain.blocks[0].transactions[1]
        key = int(target.hash[2:18], 16)
        # Plant the target's prefix in every newer segment's keys: each
        # becomes a candidate, is loaded, fails the full-hash compare.
        newer = [info.epoch for info in store.segments
                 if 0 < info.epoch
                 and info.first_block < spilling.blocks[0].number]
        for epoch in newer:
            store._tx_keys[epoch] = array(
                "Q", sorted(list(store._tx_keys[epoch]) + [key]))
        loads = count_loads(monkeypatch, store)
        assert self.located(spilling, target.hash) == \
            (1, plain.blocks[0].hash, 1)
        assert loads == sorted(newer, reverse=True) + [0]

    def test_rewritten_epoch_replaces_keys(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        state = WorldState()
        first, second = [build_blocks(3, state=state) for _ in range(2)]
        store.write_segment(0, first)
        store.write_segment(0, second)

        def holds(tx):
            return store.holds_tx_key(0, int(tx.hash[2:18], 16))

        assert not any(holds(b.transactions[0]) for b in first)
        assert all(holds(b.transactions[0]) for b in second)
        assert store.locator_bytes == 8 * 3


class TestSpilledDetectionUnderFaults:
    """Spilled lookups issue the same archive ops as in-memory ones, so
    a fault plan hits the same calls and the runs agree exactly."""

    @staticmethod
    def study(seed, segment_dir=None):
        plan = FaultPlan.from_profile("transient", seed, 1, 20 * 23)
        return quick_study(blocks_per_month=20, fault_plan=plan,
                           segment_dir=segment_dir)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_rows_and_quality_match_in_memory(self, tmp_path, seed):
        spilled = self.study(seed, segment_dir=tmp_path / "segs")
        in_memory = self.study(seed)
        chain = spilled.result.blockchain
        assert isinstance(chain, SpillingBlockchain)
        rows = spilled.dataset.to_rows()
        # Attacks priced from receipts in evicted epochs: the lookups
        # under test really went through the locator.
        assert any(row["block_number"] < chain.blocks[0].number
                   and row["kind"] in ("sandwich", "liquidation")
                   for row in rows)
        assert spilled.dataset.quality.source("archive").retries > 0
        assert rows == in_memory.dataset.to_rows()
        assert spilled.dataset.quality.to_dict() == \
            in_memory.dataset.quality.to_dict()


class TestSpilledDetectionDecodesOnce:
    """A detection chunk holds the blocks of its first fetch until it
    ends, so every later read of its range — the two replayed fetches,
    ``get_logs`` and every receipt lookup — resolves to those live
    blocks through the reader's weak map: each spilled segment is
    decoded at most once per chunk, and the output is unchanged."""

    BPM = 12
    #: (fault profile, chunk size): one chunk and a chunk size that
    #: straddles epoch (month) boundaries, clean and with retries
    CASES = [(None, None), (None, 7), (None, 30), ("transient", None),
             ("transient", 30)]

    @pytest.fixture(scope="class")
    def twins(self, tmp_path_factory):
        segs = tmp_path_factory.mktemp("decode-once") / "segs"
        spilled = quick_study(blocks_per_month=self.BPM, segment_dir=segs,
                              max_resident_epochs=1)
        return spilled.result, quick_study(
            blocks_per_month=self.BPM).result

    def detect(self, result, profile, chunk_size):
        plan = None if profile is None else FaultPlan.from_profile(
            profile, 5, 1, self.BPM * 23)
        return run_inspector(result, fault_plan=plan,
                             chunk_size=chunk_size)

    @staticmethod
    def spilled_epochs(chain, lo=None, hi=None):
        """Spilled epochs overlapping ``[lo, hi]`` (default: all)."""
        return {info.epoch for info in chain.store.segments
                if info.first_block < chain.blocks[0].number
                and (hi is None or info.first_block <= hi)
                and (lo is None or info.last_block >= lo)}

    @pytest.mark.parametrize("profile,chunk_size", CASES)
    def test_each_chunk_decodes_its_segments_once(
            self, twins, monkeypatch, profile, chunk_size):
        spilled, in_memory = twins
        chain = spilled.blockchain
        loads = count_loads(monkeypatch, chain.store)
        per_chunk = []
        original = ChunkRunner.run_chunk

        def run_chunk(runner, chunk):
            start = len(loads)
            outcome = original(runner, chunk)
            per_chunk.append((chunk, loads[start:]))
            return outcome

        monkeypatch.setattr(ChunkRunner, "run_chunk", run_chunk)
        dataset = self.detect(spilled, profile, chunk_size)
        everything = self.spilled_epochs(chain)
        assert len(everything) >= 10
        if chunk_size is None:
            assert len(per_chunk) == 1
            assert sorted(loads) == sorted(everything)
        else:
            assert len(per_chunk) > 1
            for (lo, hi), decoded in per_chunk:
                assert len(decoded) == len(set(decoded)), (lo, hi)
                assert set(decoded) <= self.spilled_epochs(chain, lo, hi)
            assert set(loads) == everything
        if profile is not None:
            assert dataset.quality.source("archive").retries > 0
        twin = self.detect(in_memory, profile, chunk_size)
        assert dataset.to_rows() == twin.to_rows()
        assert dataset.quality.to_dict() == twin.quality.to_dict()
