"""Overlapped spill I/O and the flat-GC long-run regime.

Two layers under test.  The unit layer: :class:`BackgroundWriter`
preserves submission order, applies backpressure, and re-raises a
worker failure at the next call site instead of swallowing it;
:class:`FlatGC` restores the collector exactly as it found it.  The
system layer pins the tentpole claim — a spilled world run with
``overlap_io=True`` produces *byte-identical* segment files, an
identical manifest, identical seal fingerprints, and an identical
block/tx hash sequence to a fully synchronous run (``overlap_io`` is a
scheduling choice, never a semantic one).
"""

import gc
import os
import threading
import time

import pytest

from repro.chain.segments import SegmentStore
from repro.sim import ScenarioConfig, build_paper_scenario
from repro.sim.overlap import BackgroundWriter, FlatGC


class TestBackgroundWriter:
    def test_jobs_run_in_submission_order(self):
        order = []
        with BackgroundWriter() as writer:
            for index in range(8):
                writer.submit(f"job {index}",
                              lambda index=index: order.append(index))
            writer.flush()
        assert order == list(range(8))

    def test_backpressure_bounds_the_queue(self):
        release = threading.Event()
        started = threading.Event()
        with BackgroundWriter(max_pending=1) as writer:
            writer.submit("block", lambda: (started.set(),
                                            release.wait(5)))
            started.wait(5)
            # One more fits the queue; the next submit must block until
            # the worker drains, so run it from a helper thread.
            writer.submit("queued", lambda: None)
            done = threading.Event()
            helper = threading.Thread(
                target=lambda: (writer.submit("waits", lambda: None),
                                done.set()))
            helper.start()
            assert not done.wait(0.1)  # genuinely blocked
            release.set()
            assert done.wait(5)
            helper.join()

    def test_worker_error_reraises_on_flush(self):
        def boom():
            raise OSError("disk gone")

        with BackgroundWriter() as writer:
            writer.submit("failing write", boom)
            with pytest.raises(RuntimeError, match="failing write"):
                writer.flush()

    def test_worker_error_reraises_on_next_submit(self):
        def boom():
            raise OSError("disk gone")

        writer = BackgroundWriter()
        try:
            writer.submit("failing write", boom)
            time.sleep(0.05)
            with pytest.raises(RuntimeError, match="failing write"):
                for _ in range(100):
                    writer.submit("later", lambda: None)
                    time.sleep(0.01)
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    def test_close_is_idempotent(self):
        writer = BackgroundWriter()
        writer.submit("work", lambda: None)
        writer.close()
        writer.close()


class TestFlatGC:
    def test_install_and_uninstall_restore_thresholds(self):
        before = gc.get_threshold()
        flat = FlatGC(gen0_threshold=1_000_000)
        flat.install()
        assert gc.get_threshold()[0] == 1_000_000
        assert flat.installed
        flat.uninstall()
        assert gc.get_threshold() == before
        assert not flat.installed

    def test_epoch_boundary_without_install_is_a_noop(self):
        before = gc.get_threshold()
        FlatGC().epoch_boundary()
        assert gc.get_threshold() == before

    def test_context_manager(self):
        before = gc.get_threshold()
        with FlatGC(gen0_threshold=500_000):
            assert gc.get_threshold()[0] == 500_000
        assert gc.get_threshold() == before


def spilled_run(root, overlap_io):
    """One spilled world run; returns (result, seals, store)."""
    config = ScenarioConfig(blocks_per_month=6, seed=3, epoch_blocks=4)
    world = build_paper_scenario(config)
    store = SegmentStore.create(str(root))
    world.attach_segment_store(store, max_resident_epochs=2,
                               overlap_io=overlap_io, spool_seals=True)
    seals = {}
    result = world.run(blocks=20, collect_seals=seals)
    return result, seals, store


class TestOverlapIdentity:
    """overlap_io must be invisible in every durable artifact."""

    @pytest.fixture()
    def runs(self, tmp_path):
        sync_result, sync_seals, sync_store = spilled_run(
            tmp_path / "sync", overlap_io=False)
        overlap_result, overlap_seals, overlap_store = spilled_run(
            tmp_path / "overlap", overlap_io=True)
        return ((sync_result, sync_seals, sync_store),
                (overlap_result, overlap_seals, overlap_store))

    def test_segment_files_byte_identical(self, runs):
        (_, _, sync_store), (_, _, overlap_store) = runs
        names = sorted(os.listdir(sync_store.root))
        assert names == sorted(os.listdir(overlap_store.root))
        assert any(name.startswith("seg-") for name in names)
        for name in names:
            sync_bytes = open(
                os.path.join(sync_store.root, name), "rb").read()
            overlap_bytes = open(
                os.path.join(overlap_store.root, name), "rb").read()
            assert sync_bytes == overlap_bytes, name

    def test_nothing_left_in_flight_after_run(self, runs):
        (_, _, sync_store), (_, _, overlap_store) = runs
        assert sync_store.in_flight_epochs == []
        assert overlap_store.in_flight_epochs == []

    def test_seal_fingerprints_identical(self, runs):
        (_, sync_seals, _), (_, overlap_seals, _) = runs
        assert sorted(sync_seals) == sorted(overlap_seals)
        for epoch, seal in sync_seals.items():
            assert seal.fingerprint == \
                overlap_seals[epoch].fingerprint, epoch

    def test_final_chain_identical(self, runs):
        (sync_result, _, _), (overlap_result, _, _) = runs
        sync_seq = [(b.hash, tuple(b.tx_hashes))
                    for b in sync_result.blockchain.iter_range()]
        overlap_seq = [(b.hash, tuple(b.tx_hashes))
                       for b in overlap_result.blockchain.iter_range()]
        assert sync_seq == overlap_seq

    def test_spooled_seals_load_back(self, runs):
        (_, sync_seals, sync_store), (_, _, overlap_store) = runs
        for store in (sync_store, overlap_store):
            for epoch, seal in sync_seals.items():
                loaded = store.load_sidecar(f"seal-{epoch:06d}.pkl")
                assert loaded.fingerprint == seal.fingerprint


class TestSpilledStudyReleasesWriter:
    def test_result_pickles_and_thread_is_gone(self, tmp_path):
        import pickle

        from repro import quick_study

        before = threading.active_count()
        study = quick_study(blocks_per_month=6, seed=3,
                            segment_dir=tmp_path / "segs")
        assert threading.active_count() == before
        restored = pickle.loads(pickle.dumps(study))
        assert restored.dataset.to_rows() == study.dataset.to_rows()
