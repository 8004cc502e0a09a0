"""Shared world + the two store build paths for the serve suite.

One simulated study window per session; the suite builds stores over
it both ways — cold-start from the batch dataset, and live-fed
through the streaming engine over a seeded hostile feed — and pins
the identity rule between them.  ``REPRO_CHAOS_SEED`` (CI matrix:
1, 2, 3) seeds the fault plans only; the world stays fixed.
"""

import os

import pytest

from repro.chain.node import ArchiveNode
from repro.core import MevInspector, PriceService
from repro.engine import RunConfig
from repro.faults import FaultPlan
from repro.faults.feed import FaultyFeed
from repro.serve import service_from_dataset, stream_service
from repro.sim import ScenarioConfig, build_paper_scenario

#: seed for every fault plan in the suite (CI matrix: 1, 2, 3)
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))


@pytest.fixture(scope="session")
def sim_result():
    config = ScenarioConfig(blocks_per_month=8, seed=5)
    return build_paper_scenario(config).run()


@pytest.fixture(scope="session")
def prices(sim_result):
    return PriceService(sim_result.oracle)


@pytest.fixture(scope="session")
def span(sim_result):
    """The study window's inclusive block range."""
    return (sim_result.node.earliest_block_number(),
            sim_result.node.latest_block_number())


@pytest.fixture(scope="session")
def batch_dataset(sim_result, prices):
    """Batch pipeline at chunk_size=1: the serve identity target."""
    inspector = MevInspector(ArchiveNode(sim_result.blockchain),
                             prices, sim_result.flashbots_api,
                             sim_result.observer)
    return inspector.run(config=RunConfig(chunk_size=1))


@pytest.fixture(scope="session")
def batch_service(batch_dataset):
    """Cold-start service: store snapshotted from the batch dataset."""
    return service_from_dataset(batch_dataset)


@pytest.fixture(scope="session")
def streamed(sim_result, prices, span):
    """``(service, engine)`` after a full reorg-faulted follow run.

    The store was fed block by block through seeded reorgs (every
    retraction superseded served rows live) and then reconciled by
    finalize — the stream side of the identity rule.
    """
    plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
    service, engine = stream_service(
        prices, span[0], flashbots_api=sim_result.flashbots_api,
        observer=sim_result.observer)
    engine.run(FaultyFeed(sim_result.blockchain, plan))
    return (service, engine)
