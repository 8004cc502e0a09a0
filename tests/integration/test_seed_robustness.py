"""Seed robustness: the paper's qualitative findings are not one lucky
seed.  Three small worlds with different seeds must all reproduce the
headline shapes."""

import pytest

from repro import run_inspector
from repro.analysis import build_table1, fig9_private_distribution
from repro.analysis.goals import profit_distribution
from repro.sim import ScenarioConfig, build_paper_scenario


@pytest.fixture(scope="module", params=[101, 202, 303])
def study(request):
    config = ScenarioConfig(blocks_per_month=30, seed=request.param)
    result = build_paper_scenario(config).run()
    return result, run_inspector(result)


class TestShapesAcrossSeeds:
    def test_table1_bands(self, study):
        _, dataset = study
        rows = {r.strategy: r for r in build_table1(dataset)}
        assert rows["Sandwiching"].via_flash_loans == 0
        assert 0.2 < rows["Sandwiching"].share_flashbots() < 0.8
        assert rows["Total"].extractions > 100

    def test_profit_inversion(self, study):
        _, dataset = study
        report = profit_distribution(dataset)
        assert report.miner_uplift > 1.2
        assert report.searcher_drop > 0.3

    def test_flashbots_dominates_window(self, study):
        _, dataset = study
        dist = fig9_private_distribution(dataset)
        if dist.total < 15:
            pytest.skip("window too sparse at this scale/seed")
        assert dist.share("flashbots") > \
            max(dist.share("private"), dist.share("public"))

    def test_hashrate_capture(self, study):
        result, _ = study
        share = result.miners.flashbots_hashpower_share(
            result.calendar.total_blocks)
        assert share > 0.97
