"""Session-scoped simulated study window for integration tests."""

import pytest

from repro import run_inspector
from repro.sim import ScenarioConfig, build_paper_scenario


@pytest.fixture(scope="session")
def sim_result():
    config = ScenarioConfig(blocks_per_month=50, seed=7)
    world = build_paper_scenario(config)
    return world.run()


@pytest.fixture(scope="session")
def dataset(sim_result):
    return run_inspector(sim_result)
