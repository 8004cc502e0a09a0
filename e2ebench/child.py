"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage: ``python3 e2ebench/child.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names the job and where to write its result
(JSON).  Every job that simulates gets its own process, so the
package's process-global state (transaction uid counter, probe
caches) starts fresh each time and no job warms another.

Jobs:

* ``study`` — ``ScenarioConfig`` → simulation → ``run_inspector``
  (workers=1) → ``service_from_dataset``, timed as ``study_s``; with
  ``spill`` the chain spills through ``quick_study(segment_dir=...)``.
* ``reference`` — the same study on the reference simulator paths
  (``build_paper_scenario(config, fast_paths=False)``).

With ``passes_s`` a job runs the serve phase after its study: batch
detection passes alternating with follow passes over the seeded
``reorg`` feed into a live store.  With ``replay`` it then runs the
open-loop HTTP replay (with the max-rate search when ``search``) and
the reference checks (follow vs batch ``chunk_size=1``, stream-fed
store vs batch-built store), after the timed parts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import sys
from typing import Any, Dict, List, Optional

from tracing import Tracer, clock, install

#: serve-phase minimum of detection + follow pass pairs (the exact
#: count of a traced run)
MIN_PASSES = 3


# Output digests --------------------------------------------------------------

def _sha(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes)
                      else json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()


def chain_digest(result: Any) -> str:
    """Every block hash and included transaction hash, in order."""
    digest = hashlib.sha256()
    for block in result.node.iter_blocks():
        digest.update(str(block.hash).encode())
        for tx in block.transactions:
            digest.update(str(tx.hash).encode())
    return digest.hexdigest()


def rows_digest(dataset: Any) -> str:
    return _sha(dataset.to_rows())


def dataset_digest(dataset: Any) -> str:
    """Rows plus the quality ledger (the pipeline's full identity)."""
    return _sha(dataset.to_rows(), dataset.quality.to_dict())


def bodies_digest(service: Any) -> str:
    """Status and body of every probe target and every cursor page
    the probes open (the walk ``responses_identical`` makes)."""
    from repro.serve.service import probe_targets

    digest = hashlib.sha256()
    pending = list(probe_targets(service.store))
    seen = set(pending)
    while pending:
        target = pending.pop(0)
        response = service.handle(target)
        digest.update(f"{target} {response.status}\n".encode())
        digest.update(response.body)
        if response.status != 200 or response.endpoint != "range_mev":
            continue
        cursor = response.json.get("next_cursor")
        if cursor is None:
            continue
        base = target.split("cursor=")[0].rstrip("?&")
        joiner = "&" if "?" in base else "?"
        follow = f"{base}{joiner}cursor={cursor}"
        if follow not in seen:
            seen.add(follow)
            pending.append(follow)
    return digest.hexdigest()


def landed_ratio(result: Any) -> float:
    """Share of searcher ground truths whose transactions all landed
    and succeeded, from one linear pass over the chain (the program's
    ``SimulationResult.landed`` looks each hash up separately, which is
    quadratic on a spilled chain)."""
    status: Dict[str, bool] = {}
    for block in result.node.iter_blocks():
        for tx, receipt in zip(block.transactions, block.receipts):
            status[tx.hash] = bool(receipt.status)
    truths = result.ground_truths
    if not truths:
        return 0.0
    landed = sum(1 for truth in truths
                 if all(status.get(h, False) for h in truth.tx_hashes))
    return landed / len(truths)


# Jobs ------------------------------------------------------------------------

class Job:
    """Shared state of one child: spec, tracer, checks, counters."""

    def __init__(self, spec: Dict[str, Any],
                 tracer: Optional[Tracer]) -> None:
        self.spec = spec
        self.tracer = tracer
        self.out: Dict[str, Any] = {"checks": {}, "attempted": 0,
                                    "failed": 0}

    def untraced(self) -> Any:
        """Context in which the benchmark's own digests run untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.pause()

    def check(self, name: str, ok: bool) -> None:
        self.out["checks"][name] = bool(ok)
        self.out["attempted"] += 1
        if not ok:
            self.out["failed"] += 1

    def config(self) -> Any:
        from repro import ScenarioConfig

        return ScenarioConfig(**self.spec["config"])

    def study(self, fast_paths: bool = True) -> Any:
        """The timed study; returns (result, dataset, service)."""
        from repro import build_paper_scenario, quick_study, \
            run_inspector
        from repro.serve import service_from_dataset

        config = self.config()
        spill = self.spec.get("spill")
        started = clock()
        if spill is not None:
            study = quick_study(
                blocks_per_month=config.blocks_per_month,
                seed=config.seed, segment_dir=spill["dir"],
                max_resident_epochs=spill["max_resident_epochs"])
            result, dataset = study.result, study.dataset
        else:
            result = build_paper_scenario(
                config, fast_paths=fast_paths).run()
            dataset = run_inspector(result, workers=1)
        service = service_from_dataset(dataset)
        self.out["study_s"] = clock() - started
        self.out["study_peak_rss_mb"] = _peak_rss_mb()
        self.out["attempted"] += dataset.quality.chunks_total
        self.out["failed"] += dataset.quality.chunks_failed
        with self.untraced():
            self.out["blocks"] = _canonical_blocks(result)
            self.out["digests"] = {
                "chain": chain_digest(result),
                "rows": rows_digest(dataset),
                "dataset": dataset_digest(dataset),
                "bodies": bodies_digest(
                    type(service)(service.store)),
            }
            if self.tracer is not None:
                self.out["landed_ratio"] = landed_ratio(result)
        return result, dataset, service

    def serve_phase(self, result: Any, dataset: Any, service: Any) -> None:
        """Detection and follow passes for about ``passes_s``; with
        ``replay``, then the replay and the reference checks."""
        from repro import run_inspector
        from repro.chain.node import ArchiveNode
        from repro.core import MevInspector, PriceService
        from repro.engine import RunConfig
        from repro.serve import responses_identical, \
            service_from_dataset
        from repro.serve.service import MevQueryService

        import loadgen

        fixed = self.tracer is not None
        first = result.node.earliest_block_number()
        last = result.node.latest_block_number()
        expected = self.out["digests"]["dataset"]

        # Detection and follow passes alternate, so both medians sample
        # the same stretch of the host's (drifting) speed.
        events, depth = self.feed_events(result, first, last)
        ArchiveNode(result.blockchain).warm_index()
        # The simulated world is set-up state that lives for the whole
        # phase.  Left in the collector's care, a full collection that
        # rescans it lands in about two passes of three, and the
        # median pass flips between the two modes from run to run.
        gc.collect()
        gc.freeze()
        detect_s: List[float] = []
        follow_s: List[float] = []
        follow_digests: List[str] = []
        stream_store = None
        deadline = clock() + self.spec["passes_s"]
        while True:
            started = clock()
            passed = run_inspector(result, workers=1)
            detect_s.append(clock() - started)
            started = clock()
            followed, store = self.follow(result, first, events, depth)
            follow_s.append(clock() - started)
            with self.untraced():
                self.check(f"detect_pass_{len(detect_s)}",
                           dataset_digest(passed) == expected)
                follow_digests.append(dataset_digest(followed))
            self.out["attempted"] += passed.quality.chunks_total
            self.out["failed"] += passed.quality.chunks_failed
            if stream_store is None:
                stream_store = store
            if len(detect_s) >= MIN_PASSES and (
                    fixed or clock() >= deadline):
                break
        self.check("follow_passes_agree",
                   len(set(follow_digests)) == 1)
        self.out["detect_s"] = detect_s
        self.out["follow_s"] = follow_s
        self.out["follow_digest"] = follow_digests[0]
        self.out["passes_peak_rss_mb"] = _peak_rss_mb()
        if not self.spec["replay"]:
            return

        replay = loadgen.serve_and_measure(
            dataset, MevQueryService(service.store), first, last,
            self.spec["seed"], os.path.dirname(self.spec["out"]),
            self.spec["search"], self.tracer)
        self.out["attempted"] += replay.pop("attempted")
        self.out["failed"] += replay.pop("failed")
        self.out["server_peak_rss_mb"] = replay.pop("server_peak_rss_mb")
        self.out["server_cpu_ms_per_request"] = replay.pop(
            "server_cpu_ms_per_request")
        self.out["server_spans"] = replay.pop("server_spans")
        self.out["replay"] = replay

        with self.untraced():
            batch = MevInspector(
                ArchiveNode(result.blockchain), PriceService(result.oracle),
                result.flashbots_api, result.observer).run(
                    config=RunConfig(chunk_size=1))
            self.check("follow_equals_batch_chunk1",
                       follow_digests[0] == dataset_digest(batch))
            self.check("stream_store_equals_batch_store",
                       responses_identical(service_from_dataset(batch),
                                           MevQueryService(stream_store)))

    def feed_events(self, result: Any, first: int, last: int) -> tuple:
        """The seeded ``reorg`` feed's announcements and its reorg depth,
        built before the clock starts (the feed stands in for the
        network)."""
        from repro.faults.feed import FaultyFeed
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.from_profile("reorg", self.spec["seed"], first,
                                      last)
        return (FaultyFeed(result.blockchain, plan).events(),
                plan.feed.max_reorg_depth)

    def follow(self, result: Any, first: int, events: list,
               depth: int) -> Any:
        """One follow pass over the feed's announcements, feeding a live
        store; returns (dataset, store)."""
        from repro.core import PriceService
        from repro.serve import ColumnStore, StoreFeeder
        from repro.stream import StreamEngine

        engine = StreamEngine(PriceService(result.oracle),
                              first_block=first,
                              confirm_depth=depth,
                              flashbots_api=result.flashbots_api,
                              observer=result.observer)
        store = ColumnStore()
        engine.subscribe(StoreFeeder(store))
        dataset = engine.run(events)
        self.out["attempted"] += dataset.quality.chunks_total
        self.out["failed"] += dataset.quality.chunks_failed
        return dataset, store


def _canonical_blocks(result: Any) -> int:
    return (result.node.latest_block_number()
            - result.node.earliest_block_number() + 1)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(spec: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    job = Job(spec, tracer)
    job.out["timed_from"] = clock()
    result, dataset, service = job.study(
        fast_paths=spec["job"] != "reference")
    if "passes_s" in spec:
        job.serve_phase(result, dataset, service)
    if tracer is not None:
        import layers

        job.out["layers"] = layers.summarize(
            tracer.spans + job.out["server_spans"]
            if "server_spans" in job.out else tracer.spans,
            tracer.epochs, job.config(), job.out)
        tracer.dump(spec["trace_path"])
    job.out.pop("server_spans", None)
    return job.out


def main() -> None:
    from run import exit_on_sigterm

    exit_on_sigterm()
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    import repro  # noqa: F401  (imports are part of the setup time)

    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        install(tracer)
    out = run_job(spec, tracer)
    out["timed_from_s"] = out.pop("timed_from") - spec["spawned_at"]
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main()
