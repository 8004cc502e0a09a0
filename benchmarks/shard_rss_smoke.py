#!/usr/bin/env python
"""Large-scenario spilling smoke: O(epoch) memory, measured for real.

Simulates a ~100k-block scenario with the segment store attached
(overlapped background spill writes and the flat-GC long-run regime by
default, like production runs), then asserts the four properties that
make million-block windows feasible:

1. **Residency bound** — the in-memory block list never exceeds
   ``(max_resident_epochs + 1) * epoch_blocks`` blocks, and peak RSS
   (``getrusage``) stays under a fixed ceiling regardless of
   ``--blocks``.
2. **Scale-flat throughput** — per-epoch blocks/s is printed for every
   epoch, and every epoch past the activity ramp's saturation point
   must hold at least ``FLATNESS`` of the first saturated epoch's
   throughput; a violation fails naming the offending epoch.
3. **Segment-backed reads** — a full ``iter_range`` walk off the
   spilled store yields every block, contiguous and parent-linked, and
   spot lookups resolve through the fingerprint-verified segments.
   Transaction lookups (the first tx of each spilled epoch plus every
   tx of the spot blocks) match ``block_by_number`` and load at most
   one segment each; the transaction locator's bytes are printed.
4. **Splice identity (sampled prefix)** — the first epochs are
   re-simulated from their seals across ``--workers`` processes and
   must match the stored chain hash-for-hash (the ``shard_identical``
   rule, checked here against the spilled reference).

Exits nonzero on any violation.  CI runs this at workers 1 and 2; run
it locally with smaller ``--blocks`` for a quick check.
``--no-overlap-io`` spills synchronously — segment files are
byte-identical either way (tests/chain/test_overlap.py pins that).
"""

import argparse
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

from repro.chain.segments import SegmentStore
from repro.sim import (
    ScenarioConfig,
    build_paper_scenario,
    plan_epochs,
    resimulate_epochs,
)
from repro.sim.world import activity_saturation_month

#: Minimum fraction of the first saturated epoch's throughput every
#: later epoch must hold (same margin as the bench ``scale_flat`` gate).
FLATNESS = 0.8


def sequence_of(blocks):
    return [(block.hash, tuple(block.tx_hashes)) for block in blocks]


def rss_mb():
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGESIZE") / 1e6


def check_tx_lookups(chain, store, spots):
    """Locate the first tx of each spilled epoch's first block and every
    tx of the spot blocks; each must match ``block_by_number`` and load
    at most one segment."""
    resident_start = chain.blocks[0].number
    spilled_firsts = [info.first_block for info in store.segments
                      if info.first_block < resident_start]
    expected = []
    for number in spilled_firsts:
        block = chain.block_by_number(number)
        expected.extend((tx.hash, number, block.hash, 0)
                        for tx in block.transactions[:1])
    for number in spots:
        block = chain.block_by_number(number)
        expected.extend((tx.hash, number, block.hash, position)
                        for position, tx in enumerate(block.transactions))
    assert any(number < resident_start for _, number, _, _ in expected), \
        "no spilled transaction to look up"

    loads = []
    load_segment = store.load_segment

    def counted_load(epoch):
        loads.append(epoch)
        return load_segment(epoch)

    store.load_segment = counted_load
    try:
        for tx_hash, number, block_hash, position in expected:
            before = len(loads)
            located = chain.locate_transaction(tx_hash)
            assert located is not None, f"{tx_hash} not found"
            block, found_position = located
            assert (block.number, block.hash, found_position) == \
                (number, block_hash, position), tx_hash
            assert len(loads) - before <= 1, \
                f"{tx_hash} loaded {len(loads) - before} segments"
    finally:
        del store.load_segment
    spilled_txs = sum(info.tx_count for info in store.segments)
    print(f"tx lookups ok: {len(expected)} txs "
          f"({len(spilled_firsts)} spilled epochs), {len(loads)} segment "
          f"loads; locator {store.locator_bytes} bytes for "
          f"{spilled_txs} spilled txs")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=100_000)
    parser.add_argument("--bpm", type=int, default=5_000,
                        help="blocks per month (window must cover "
                             "--blocks)")
    parser.add_argument("--epoch-blocks", type=int, default=5_000)
    parser.add_argument("--max-resident-epochs", type=int, default=2)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--prefix-epochs", type=int, default=2,
                        help="epochs re-simulated for the identity "
                             "check")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ceiling-mb", type=int, default=900,
                        help="peak-RSS ceiling asserted after the run")
    parser.add_argument("--overlap-io",
                        action=argparse.BooleanOptionalAction,
                        default=True,
                        help="write segments on a background thread "
                             "(default on; --no-overlap-io spills "
                             "synchronously)")
    args = parser.parse_args(argv)

    config = ScenarioConfig(blocks_per_month=args.bpm, seed=args.seed,
                            epoch_blocks=args.epoch_blocks)
    total = args.bpm * len(config.months)
    if args.blocks > total:
        parser.error(f"--blocks {args.blocks} exceeds the window "
                     f"({total} blocks at bpm={args.bpm})")
    prefix = min(args.prefix_epochs,
                 max(1, args.blocks // args.epoch_blocks))

    world = build_paper_scenario(config)
    with tempfile.TemporaryDirectory(prefix="repro-segs-") as root:
        store = SegmentStore.create(os.path.join(root, "segments"))
        world.attach_segment_store(
            store, max_resident_epochs=args.max_resident_epochs,
            overlap_io=args.overlap_io)
        flat_gc = world.install_flat_gc()

        # Epoch-by-epoch so throughput is a per-epoch series, not one
        # average that would hide late-epoch decay.  Seals are collected
        # only over the prefix we re-simulate, so the parent's RSS
        # measures the spilling run, not a seal archive.
        started = time.time()
        seals = {}
        telemetry = []
        done = 0
        while done < args.blocks:
            span = min(args.epoch_blocks, args.blocks - done)
            epoch = done // args.epoch_blocks
            epoch_started = time.time()
            world.run(blocks=span,
                      collect_seals=seals if epoch < prefix else None)
            epoch_s = time.time() - epoch_started
            telemetry.append((epoch, span, span / epoch_s))
            print(f"epoch {epoch}: {epoch_s:.2f}s  "
                  f"{span / epoch_s:.0f} blocks/s  rss={rss_mb():.0f}MB")
            done += span
        flat_gc.uninstall()
        seals = {epoch: seal for epoch, seal in seals.items()
                 if epoch < prefix}
        elapsed = time.time() - started

        chain = world.blockchain
        assert chain.height == args.blocks, chain.height
        assert store.in_flight_epochs == [], store.in_flight_epochs
        resident = len(chain.blocks)
        bound = (args.max_resident_epochs + 1) * args.epoch_blocks
        assert resident <= bound, \
            f"resident blocks {resident} exceed bound {bound}"
        spilled = len(store.segments)
        print(f"simulated {args.blocks} blocks in {elapsed:.1f}s "
              f"({args.blocks / elapsed:.0f} blocks/s, overlap_io="
              f"{'on' if args.overlap_io else 'off'}); "
              f"{spilled} segments spilled, {resident} blocks resident "
              f"(bound {bound})")

        # Scale-flat: every saturated full epoch holds the baseline.
        saturated_block = activity_saturation_month() * args.bpm
        steady = [(epoch, rate) for epoch, span, rate in telemetry
                  if epoch * args.epoch_blocks >= saturated_block
                  and span == args.epoch_blocks]
        if len(steady) >= 2:
            base_epoch, baseline = steady[0]
            floor = FLATNESS * baseline
            for epoch, rate in steady[1:]:
                assert rate >= floor, (
                    f"throughput decayed with scale: epoch {epoch} ran "
                    f"{rate:.0f} blocks/s, below {FLATNESS:.0%} of "
                    f"epoch {base_epoch}'s {baseline:.0f} blocks/s")
            print(f"scale-flat ok: epochs {base_epoch}..{steady[-1][0]} "
                  f"all >= {FLATNESS:.0%} of {baseline:.0f} blocks/s")
        else:
            print("scale-flat skipped: fewer than two saturated epochs")

        # Full walk off the spilled store: contiguous and parent-linked.
        previous = None
        count = 0
        for block in chain.iter_range():
            count += 1
            assert block.number == count, (block.number, count)
            if previous is not None:
                assert block.parent_hash == previous.hash, block.number
            previous = block
        assert count == args.blocks, count
        spots = (1, args.epoch_blocks, args.epoch_blocks + 1,
                 args.blocks // 2, args.blocks)
        for number in spots:
            found = chain.block_by_number(number)
            assert found is not None and found.number == number, number
        print(f"segment-backed walk ok: {count} blocks, "
              f"linkage verified")
        check_tx_lookups(chain, store, spots)

        # Sampled-prefix shard identity against the spilled reference.
        plan = plan_epochs(config)[:prefix]
        resumed = time.time()
        results = resimulate_epochs(config, seals, chunks=plan,
                                    workers=args.workers)
        for result in results:
            lo, hi = result.chunk
            stored = sequence_of(chain.iter_range(lo, hi))
            assert sequence_of(result.blocks) == stored, \
                f"epoch {result.epoch_index} diverged from the " \
                f"spilled reference"
        print(f"shard identity ok: {prefix} epoch(s) re-simulated "
              f"from seals across {args.workers} worker(s) in "
              f"{time.time() - resumed:.1f}s, bit-identical")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak_kb / 1024.0
    print(f"peak RSS {peak_mb:.0f} MB (ceiling {args.ceiling_mb} MB)")
    assert peak_mb <= args.ceiling_mb, \
        f"peak RSS {peak_mb:.0f} MB exceeds {args.ceiling_mb} MB"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
