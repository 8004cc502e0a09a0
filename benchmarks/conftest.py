"""Shared benchmark fixtures: one simulated study window per session.

Every benchmark regenerates one of the paper's tables or figures from the
same simulated window and measurement run, times the analysis step with
pytest-benchmark, prints the rows the paper reports, and writes them to
``benchmarks/output/<experiment>.txt`` so the artifacts survive output
capture.

Scale with ``REPRO_BENCH_BPM`` (blocks per simulated month, default 100;
the paper's real months are ~190k blocks).
"""

import os
import pathlib

import pytest

from repro import run_inspector
from repro.sim import ScenarioConfig, build_paper_scenario

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def bench_blocks_per_month() -> int:
    return int(os.environ.get("REPRO_BENCH_BPM", "100"))


@pytest.fixture(scope="session")
def sim_result():
    config = ScenarioConfig(blocks_per_month=bench_blocks_per_month(),
                            seed=7)
    world = build_paper_scenario(config)
    return world.run()


@pytest.fixture(scope="session")
def dataset(sim_result):
    return run_inspector(sim_result)


def emit(name: str, text: str) -> None:
    """Print an experiment's rows and persist them as an artifact."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
