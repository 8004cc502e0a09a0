"""Fast-path world vs. naive reference world: hash-for-hash identity.

``build_paper_scenario(..., fast_paths=False)`` rebuilds the simulator
on the unoptimized code paths — full mempool re-sorts every block, no
probe memoization, no scan caches.  The optimized default must produce
the *identical* world: same block hashes, same transaction hashes, in
the same order, through every fork (the scenarios here span Berlin and
London, so the base fee goes from pinned-at-zero to moving every
block).  Transaction hashes commit to the uid their world minted, so
identity here means the two runs agreed on every transaction ever
created, not merely the included ones.
"""

import pytest

from repro.sim import ScenarioConfig, build_paper_scenario


def block_sequence(result):
    return [(block.hash, tuple(tx.hash for tx in block.transactions))
            for block in result.blockchain.blocks]


class TestFastPathIdentity:
    @pytest.mark.parametrize("bpm,seed", [(6, 7), (4, 23)])
    def test_same_seed_same_world(self, bpm, seed):
        config = ScenarioConfig(blocks_per_month=bpm, seed=seed)
        fast = build_paper_scenario(config).run()
        reference = build_paper_scenario(config, fast_paths=False).run()
        assert block_sequence(fast) == block_sequence(reference)

    def test_scenario_spans_london(self):
        """The identity above only means something if the scenario
        actually crosses the fee-market switch the fast mempool index
        optimizes around."""
        config = ScenarioConfig(blocks_per_month=6, seed=7)
        result = build_paper_scenario(config).run()
        base_fees = [b.base_fee for b in result.blockchain.blocks]
        assert base_fees[0] == 0  # pre-London: pinned
        assert base_fees[-1] > 0  # post-London: live fee market
        assert len(set(base_fees)) > 2  # and it actually moves

    def test_fast_world_is_deterministic_across_builds(self):
        config = ScenarioConfig(blocks_per_month=5, seed=3)
        first = build_paper_scenario(config).run()
        second = build_paper_scenario(config).run()
        assert block_sequence(first) == block_sequence(second)
