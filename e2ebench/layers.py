"""Per-layer metrics from the traced run's spans.

Span tuples are ``(name, root, parent, start, seconds, self_seconds,
extra)`` (see :mod:`tracing`).  Simulation and seal/spill metrics are
totals over the traced study.  Detection metrics are per batch
detection pass (``core.run`` root), stream metrics per follow pass
(``stream.*`` roots), and serve metrics come from the server process.
A layer the workload never calls reports 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Tuple

STRATEGIES = ("sandwich", "arbitrage", "liquidation", "other")
ENDPOINTS = ("block_mev", "range_mev", "table1", "leaderboard_searchers",
             "leaderboard_miners", "coverage")


def units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    table = {"agents.traffic_s": "s", "agents.traffic_txs": "count"}
    for strategy in STRATEGIES:
        name = f"agents.searcher.{strategy}"
        table.update({f"{name}.scan_s": "s", f"{name}.scans": "count",
                      f"{name}.submissions": "count"})
    table.update({
        "agents.searcher.landed_ratio": "ratio",
        "chain.mempool.add_s": "s", "chain.mempool.accept_ratio": "ratio",
        "flashbots.build_block_s": "s",
        "flashbots.build_block_txs": "count",
        "flashbots.relay.inclusion_ratio": "ratio",
        "sim.self_s": "s",
        "sim.seal_s": "s", "sim.seal_bytes": "bytes",
        "chain.segments.write_s": "s",
        "chain.segments.write_bytes": "bytes",
        "sim.overlap.submit_wait_s": "s", "sim.overlap.flush_wait_s": "s",
        "sim.epoch.saturated_blocks_per_s": "blocks/s",
        "sim.epoch.rss_slope_mb": "MB/epoch",
        "chain.segments.loads": "count", "chain.segments.load_s": "s",
        "chain.segments.load_ratio": "ratio",
        "chain.segments.locate_tx_calls": "count",
        "chain.segments.locate_tx_s": "s",
        "chain.index.warm_s": "s",
        "engine.run_chunk_s": "s/pass", "engine.chunks": "count/pass",
        "core.read_s": "s/pass", "core.scan_s": "s/pass",
        "core.finalize_s": "s/pass",
        "core.receipt_lookups": "count/pass",
        "core.rows": "count/pass", "core.merge_s": "s/pass",
        "core.joins_s": "s/pass", "core.quality_s": "s/pass",
        "stream.ingest_s": "s/pass", "stream.ingest_p99_ms": "ms",
        "stream.events": "count/pass", "stream.reorgs": "count/pass",
        "stream.retracted_rows": "count/pass",
        "stream.redetect_ratio": "ratio",
        "stream.finalize_s": "s/pass", "serve.store.write_s": "s/pass",
        "serve.store.build_s": "s",
    })
    for endpoint in ENDPOINTS:
        table[f"serve.handle.{endpoint}_p99_ms"] = "ms"
    table.update({"serve.replay.p50_ms": "ms",
                  "serve.replay.p99_ms": "ms",
                  "serve.replay.max_qps": "1/s",
                  "serve.cache_hit_ratio": "ratio",
                  "serve.not_modified_ratio": "ratio",
                  "loadgen.late_p99_ms": "ms",
                  "trace.overhead_ratio": "ratio"})
    return table


#: metrics taken from the process that ran the serve phase
SERVE_PHASE_PREFIXES = ("stream.", "serve.handle.", "serve.cache_",
                        "serve.not_modified", "serve.store.write",
                        "serve.replay.", "loadgen.")


def _p99_ms(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * 99 // 100))
    return ordered[rank - 1] * 1000.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of y over x (0 with fewer than 2 points)."""
    if len(points) < 2:
        return 0.0
    mean_x = statistics.fmean(x for x, _ in points)
    mean_y = statistics.fmean(y for _, y in points)
    denom = sum((x - mean_x) ** 2 for x, _ in points)
    return _ratio(sum((x - mean_x) * (y - mean_y) for x, y in points),
                  denom)


def _epoch_metrics(epochs: List[Tuple[int, float, float]],
                   run_end: float, epoch_blocks: int) -> Dict[str, float]:
    """Throughput and RSS growth over activity-saturated epochs."""
    from repro.sim.world import activity_saturation_month

    saturated_from = activity_saturation_month()
    rates, points = [], []
    for index, (epoch, started, rss) in enumerate(epochs):
        ended = epochs[index + 1][1] if index + 1 < len(epochs) \
            else run_end
        if epoch < saturated_from or ended <= started:
            continue
        rates.append(epoch_blocks / (ended - started))
        points.append((float(epoch), rss))
    return {
        "sim.epoch.saturated_blocks_per_s":
            statistics.median(rates) if rates else 0.0,
        "sim.epoch.rss_slope_mb": _slope(points),
    }


def summarize(spans: Iterable[tuple], epochs: List[Tuple[int, float,
                                                            float]],
              config: Any, out: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric, from one traced child's spans."""
    by_name: Dict[str, List[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def named(name: str, root: str = "") -> List[tuple]:
        return [s for s in by_name.get(name, ())
                if not root or s[1].startswith(root)]

    def total(name: str, root: str = "", column: int = 4) -> float:
        return sum(s[column] for s in named(name, root))

    def extras(name: str, root: str = "") -> List[Any]:
        return [s[6] for s in named(name, root)]

    m: Dict[str, float] = {}
    m["agents.traffic_s"] = total("agents.traffic")
    m["agents.traffic_txs"] = sum(extras("agents.traffic"))
    for strategy in STRATEGIES:
        name = f"agents.searcher.{strategy}"
        m[f"{name}.scan_s"] = total(name)
        m[f"{name}.scans"] = len(named(name))
        m[f"{name}.submissions"] = sum(extras(name))
    m["agents.searcher.landed_ratio"] = out.get("landed_ratio", 0.0)
    adds = extras("chain.mempool.add")
    m["chain.mempool.add_s"] = total("chain.mempool.add")
    m["chain.mempool.accept_ratio"] = _ratio(sum(adds), len(adds))
    built = extras("flashbots.build_block")
    m["flashbots.build_block_s"] = total("flashbots.build_block")
    m["flashbots.build_block_txs"] = sum(b[0] for b in built)
    m["flashbots.relay.inclusion_ratio"] = _ratio(
        sum(b[1] for b in built), sum(b[2] for b in built))
    m["sim.self_s"] = total("sim.run", column=5)

    writes = extras("chain.segments.write")
    m["sim.seal_s"] = total("sim.seal") + total("sim.seal.segment")
    m["sim.seal_bytes"] = sum(extras("sim.seal")) + sum(
        size for kind, size in writes if kind == "segment")
    m["chain.segments.write_s"] = total("chain.segments.write")
    m["chain.segments.write_bytes"] = sum(size for _, size in writes)
    m["sim.overlap.submit_wait_s"] = total("sim.overlap.submit")
    m["sim.overlap.flush_wait_s"] = total("sim.overlap.flush")
    runs = named("sim.run")
    run_end = max((s[3] + s[4] for s in runs), default=0.0)
    epoch_blocks = config.epoch_blocks or config.blocks_per_month
    m.update(_epoch_metrics(epochs, run_end, epoch_blocks))

    loads = extras("chain.segments.load")
    m["chain.segments.loads"] = len(loads)
    m["chain.segments.load_s"] = total("chain.segments.load")
    m["chain.segments.load_ratio"] = _ratio(len(set(loads)), len(loads))
    m["chain.segments.locate_tx_calls"] = len(
        named("chain.segments.locate_tx"))
    m["chain.segments.locate_tx_s"] = total("chain.segments.locate_tx")

    passes = max(1, len(named("core.run")))
    m["chain.index.warm_s"] = total("chain.index.warm")
    m["engine.run_chunk_s"] = total("engine.run_chunk", "core.") / passes
    m["engine.chunks"] = len(named("engine.run_chunk", "core.")) / passes
    m["core.read_s"] = total("core.read", "core.") / passes
    m["core.scan_s"] = total("core.scan", "core.", column=5) / passes
    m["core.finalize_s"] = total("core.finalize", "core.") / passes
    m["core.receipt_lookups"] = len(named("core.receipt", "core.")) \
        / passes
    m["core.rows"] = sum(extras("core.run")) / passes
    m["core.merge_s"] = total("core.merge", "core.") / passes
    m["core.joins_s"] = total("core.joins", "core.") / passes
    m["core.quality_s"] = total("core.quality", "core.") / passes

    finals = extras("stream.finalize")
    follows = max(1, len(finals))
    ingests = named("stream.ingest")
    m["stream.ingest_s"] = sum(s[4] for s in ingests) / follows
    m["stream.ingest_p99_ms"] = _p99_ms([s[4] for s in ingests])
    for key in ("events", "reorgs", "retracted_rows"):
        m[f"stream.{key}"] = sum(f[key] for f in finals) / follows
    redetected = len(named("engine.run_chunk", "stream.ingest"))
    m["stream.redetect_ratio"] = _ratio(
        redetected / follows, out.get("blocks", 0)) if finals else 0.0
    m["stream.finalize_s"] = total("stream.finalize") / follows
    m["serve.store.write_s"] = total("serve.store.write") / follows
    m["serve.store.build_s"] = total("serve.store.build", "serve.store.")

    handled = named("serve.handle")
    for endpoint in ENDPOINTS:
        m[f"serve.handle.{endpoint}_p99_ms"] = _p99_ms(
            [s[4] for s in handled if s[6][0] == endpoint])
    m["serve.cache_hit_ratio"] = _ratio(
        sum(1 for s in handled if s[6][2]), len(handled))
    m["serve.not_modified_ratio"] = _ratio(
        sum(1 for s in handled if s[6][1] == 304), len(handled))
    replay = out.get("replay", {})
    m["serve.replay.p50_ms"] = replay.get("serve_p50_ms", 0.0)
    m["serve.replay.p99_ms"] = replay.get("serve_p99_ms", 0.0)
    m["serve.replay.max_qps"] = replay.get("serve_max_qps", 0.0)
    m["loadgen.late_p99_ms"] = replay.get("late_p99_ms", 0.0)
    return m
