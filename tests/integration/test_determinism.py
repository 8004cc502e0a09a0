"""Determinism regression: same seed ⇒ bit-identical world and tables.

This is the runtime counterpart of lint rule R002: the linter bans
ambient entropy statically; this test runs every public study entry
point for two seeds, back to back in one process in two orders, and
asserts the chain and the MEV measurement replay exactly.
"""

import pytest

from repro import follow_study, quick_study, serve_study
from repro.analysis import build_table1

STUDIES = {"quick": quick_study, "follow": follow_study,
           "serve": lambda **kw: serve_study(**kw)[0]}
JOBS = [(job, seed) for seed in (5, 9) for job in STUDIES]


def _run_study(job, seed):
    study = STUDIES[job](blocks_per_month=8, seed=seed)
    blocks, dataset = study.result.blockchain.blocks, study.dataset
    txs = [tx for block in blocks for tx in block.transactions]
    table1 = [(row.strategy, row.extractions, row.via_flashbots,
               row.via_flash_loans, row.via_both)
              for row in build_table1(dataset)]
    return {"blocks": [block.hash for block in blocks],
            "txs": [tx.hash for tx in txs], "uids": [tx._uid for tx in txs],
            "tables": (table1, dataset.totals(), dataset.to_rows(),
                       dataset.quality.to_dict())}


@pytest.fixture(scope="module")
def runs():
    return [{key: _run_study(*key) for key in order}
            for order in (JOBS, JOBS[::-1])]


def test_same_seed_identical_chain(runs):
    forward, backward = runs
    for key in JOBS:
        assert forward[key]["blocks"] == backward[key]["blocks"]
        assert forward[key]["txs"] == backward[key]["txs"]


def test_same_seed_identical_mev_tables(runs):
    forward, backward = runs
    for key in JOBS:
        assert forward[key]["tables"] == backward[key]["tables"]


def test_different_seed_differs(runs):
    """Guards against the test trivially passing on a constant world."""
    forward, _ = runs
    assert forward[("quick", 5)]["blocks"] != \
        forward[("quick", 9)]["blocks"]


def test_every_transaction_minted_distinct(runs):
    """Guards against a construction site that forgets its world's
    uid: the chain's hashes and uids are all distinct."""
    for identity in runs[0].values():
        assert len(set(identity["txs"])) == len(identity["txs"])
        assert len(set(identity["uids"])) == len(identity["uids"])
