"""Epoch sharding: seal determinism and the splice identity rule.

The property under test is the whole point of the subsystem: sealing
the world at *any* epoch boundary and resuming on a fresh ``World``
reproduces the serial run's block/tx hash sequence exactly — including
boundaries that land mid-Flashbots-adoption ramp and inside a mempool
collector outage window — and a full sharded re-simulation splices
back bit-identically to the serial reference.
"""

import pytest

from repro.sim import (
    ScenarioConfig,
    build_paper_scenario,
    plan_epochs,
    restore_paper_scenario,
    resimulate_epochs,
    simulate_sharded,
    splice_epochs,
)
from repro.sim.shard import EpochRunner, EpochResult, block_sequence

EPOCH_BLOCKS = 4  # deliberately does not divide the month length


def config_for(seed):
    return ScenarioConfig(blocks_per_month=6, seed=seed,
                          epoch_blocks=EPOCH_BLOCKS)


def sequence_of(blocks):
    return [(block.hash, tuple(block.tx_hashes)) for block in blocks]


def serial_reference(config, downtime=None):
    """Serial run collecting a seal at every epoch boundary."""
    world = build_paper_scenario(config)
    if downtime is not None:
        world.observer.downtime_ranges = downtime
    seals = {}
    result = world.run(collect_seals=seals)
    return result, seals


class TestPlan:
    def test_plan_tiles_the_window(self):
        config = config_for(3)
        plan = plan_epochs(config)
        total = 6 * len(config.months)
        assert plan[0][0] == 1
        assert plan[-1][1] == total
        for (_, hi), (lo, _) in zip(plan, plan[1:]):
            assert lo == hi + 1
        widths = {hi - lo + 1 for lo, hi in plan[:-1]}
        assert widths == {EPOCH_BLOCKS}

    def test_default_epoch_is_one_month(self):
        config = ScenarioConfig(blocks_per_month=6, seed=3)
        plan = plan_epochs(config)
        assert plan[0] == (1, 6)
        assert len(plan) == len(config.months)


class TestSealDeterminism:
    """Seal at a boundary, resume on a fresh world, get the same chain."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_resume_from_any_boundary_is_bit_identical(self, seed):
        config = config_for(seed)
        serial, seals = serial_reference(config)
        reference = sequence_of(serial.blockchain.blocks)
        launch = serial.flashbots_launch_block
        # One boundary early, one mid-Flashbots-adoption ramp (the
        # first boundary past the launch block), one near the end.
        launch_epoch = launch // EPOCH_BLOCKS + 1
        for epoch in (1, launch_epoch, len(reference) // EPOCH_BLOCKS - 1):
            seal = seals[epoch]
            world = restore_paper_scenario(config, seal)
            resumed = world.run()
            suffix = sequence_of(resumed.blockchain.blocks)
            assert suffix == reference[seal.first_block - 1:], \
                f"seed {seed}, epoch {epoch}"

    def test_boundary_inside_observer_outage_window(self):
        config = config_for(3)
        # Boundary at block 8 sits strictly inside the outage.
        downtime = ((6, 10),)
        serial, seals = serial_reference(config, downtime=downtime)
        reference = sequence_of(serial.blockchain.blocks)
        seal = seals[2]  # first block 9 — mid-outage
        assert downtime[0][0] < seal.first_block <= downtime[0][1]
        world = restore_paper_scenario(config, seal)
        assert world.observer.downtime_ranges == downtime
        resumed = world.run()
        assert sequence_of(resumed.blockchain.blocks) == \
            reference[seal.first_block - 1:]

    def test_seal_refused_off_boundary(self):
        config = config_for(3)
        world = build_paper_scenario(config)
        world.run(blocks=EPOCH_BLOCKS + 1)
        with pytest.raises(ValueError, match="boundary"):
            world.seal()

    def test_seal_fingerprint_guards_payload(self):
        config = config_for(3)
        world = build_paper_scenario(config)
        world.run(blocks=EPOCH_BLOCKS)
        seal = world.seal()
        carried = seal.carried()
        assert "observer" in carried and "mempool" in carried
        import dataclasses
        tampered = dataclasses.replace(seal, payload=seal.payload + b"x")
        with pytest.raises(ValueError, match="fingerprint"):
            tampered.carried()


class TestSpliceIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_shard_splices_bit_identical(self, workers):
        config = config_for(3)
        serial, sharded, info = simulate_sharded(config, workers=workers)
        assert block_sequence(sharded) == block_sequence(serial)
        assert info["scope"] == "full"
        assert info["resimulated_epochs"] == info["epochs"]
        assert info["workers_requested"] == workers
        assert info["workers_effective"] >= 1

    def test_prefix_gate_covers_the_prefix(self):
        config = config_for(11)
        serial, sharded, info = simulate_sharded(config, workers=1,
                                                 prefix_epochs=3)
        assert info["scope"] == "prefix[3]"
        prefix = block_sequence(sharded)
        assert len(prefix) == 3 * EPOCH_BLOCKS
        assert prefix == block_sequence(serial)[:len(prefix)]

    def test_prefix_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_sharded(config_for(3), prefix_epochs=0)


class TestRunnerAndSplice:
    def test_runner_demands_matching_seal(self):
        config = config_for(3)
        _, seals = serial_reference(config)
        runner = EpochRunner(config, {})
        with pytest.raises(KeyError):
            runner.run_chunk((1, EPOCH_BLOCKS))
        shifted = {1: seals[2]}  # seal for epoch 2 filed under 1
        runner = EpochRunner(config, shifted)
        with pytest.raises(ValueError, match="starts at"):
            runner.run_chunk((EPOCH_BLOCKS + 1, 2 * EPOCH_BLOCKS))

    def test_epoch_results_never_report_failed(self):
        config = config_for(3)
        _, seals = serial_reference(config)
        results = resimulate_epochs(config, seals,
                                    chunks=plan_epochs(config)[:1])
        assert [r.failed for r in results] == [False]
        assert isinstance(results[0], EpochResult)
        assert results[0].end_seal.first_block == EPOCH_BLOCKS + 1

    def test_splice_rejects_gaps_and_nothing(self):
        config = config_for(3)
        _, seals = serial_reference(config)
        plan = plan_epochs(config)
        results = resimulate_epochs(config, seals,
                                    chunks=[plan[0], plan[2]])
        with pytest.raises(ValueError, match="gap"):
            splice_epochs(config, results)
        with pytest.raises(ValueError):
            splice_epochs(config, [])
