"""Span tracer for the traced run, installed only in the traced process.

:func:`install` wraps the public functions of every layer the benchmark
reports on by replacing them on their classes and modules (and on every
loaded module that imported a function by name).  Each call becomes one
span ``(name, root, parent, start, seconds, self_seconds, extra)``:

* ``root`` is the outermost span on the calling thread's stack, so a
  ``ChunkRunner.run_chunk`` under ``StreamEngine.ingest`` is told apart
  from one under ``MevInspector.run``;
* ``self_seconds`` excludes time spent in nested traced spans;
* ``extra`` is a small observation taken from the call's arguments or
  result (transactions made, bundles included, bytes written, ...).

Generator results (``ArchiveNode.iter_blocks``) are timed per ``next``.
Spans stay in memory and are written out by :meth:`Tracer.dump` when
the run ends.  Nothing observed here flows back into the program:
wrappers return exactly what the wrapped function returned.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
import types
from typing import Any, Callable, Iterator, List, Optional, Tuple, Union

Span = Tuple[str, str, str, float, float, float, Any]

clock = time.monotonic


def rss_mb() -> float:
    """Current resident set of this process, in MB (Linux)."""
    import os

    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGESIZE") / 1e6


class Tracer:
    """In-memory span collector with per-thread span stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (epoch index, monotonic time, RSS MB) at each epoch entry
        self.epochs: List[Tuple[int, float, float]] = []
        self.paused = False
        self._local = threading.local()

    # Span bookkeeping ------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        root = stack[0][0] if stack else name
        parent = stack[-1][0] if stack else ""
        frame = [name, root, parent, clock(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, extra: Any = None) -> None:
        end = clock()
        stack = self._stack()
        stack.pop()
        seconds = end - frame[3]
        if stack:
            stack[-1][4] += seconds
        self.spans.append((frame[0], frame[1], frame[2], frame[3],
                           seconds, seconds - frame[4], extra))

    # Wrapping --------------------------------------------------------------

    def wrap(self, fn: Callable, name: Union[str, Callable[..., str]],
             extra: Optional[Callable[..., Any]] = None,
             before: Optional[Callable[..., Any]] = None) -> Callable:
        """A traced stand-in for ``fn``.

        ``name`` may be a callable of the call's arguments (e.g. the
        searcher strategy); ``extra(args, kwargs, result)`` picks the
        observation stored with the span.  With ``before``, its value
        (taken untimed, before the call) is passed to ``extra`` as a
        fourth argument.
        """
        tracer = self

        def timed_generator(label: str, inner: Any) -> Any:
            while True:
                frame = tracer._enter(label)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._exit(frame)
                    return
                except BaseException:
                    tracer._exit(frame)
                    raise
                tracer._exit(frame)
                yield item

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.paused:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args)
            probe = None if before is None else before(args, kwargs)
            frame = tracer._enter(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                raise
            if isinstance(result, types.GeneratorType):
                tracer._exit(frame)
                return timed_generator(label, result)
            if extra is None:
                tracer._exit(frame)
            elif before is None:
                tracer._exit(frame, extra(args, kwargs, result))
            else:
                tracer._exit(frame, extra(args, kwargs, result, probe))
            return result

        return wrapper

    def patch(self, owner: Any, attr: str,
              name: Union[str, Callable[..., str]],
              extra: Optional[Callable[..., Any]] = None,
              before: Optional[Callable[..., Any]] = None) -> None:
        """Replace ``owner.attr`` with its traced stand-in.

        For a module-level function, every loaded module that bound the
        same object by name (``from x import f``) is patched too, so the
        call sites the program actually uses see the wrapper.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        wrapped = self.wrap(original, name, extra, before)
        targets = [owner]
        if inspect.ismodule(owner):
            targets = [module for module in list(sys.modules.values())
                       if module is not None
                       and getattr(module, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapped)

    @contextlib.contextmanager
    def pause(self) -> Iterator[None]:
        """Calls inside run untraced (the benchmark's own digests,
        checks and load generator)."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # Output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, then the epoch marks
        (gzip-compressed)."""
        import gzip

        with gzip.open(path, "wt", encoding="utf-8",
                       compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for mark in self.epochs:
                handle.write(json.dumps({"epoch": mark}) + "\n")


# What gets wrapped ---------------------------------------------------------

def _one_if_made(args: tuple, kwargs: dict, result: Any) -> int:
    if result is None:
        return 0
    if isinstance(result, list):
        return len(result)
    return 1


def _block_extra(args: tuple, kwargs: dict, result: Any) -> tuple:
    bundles = kwargs.get("bundles") or ()
    return (len(result.block.transactions), len(result.included_bundles),
            len(bundles))


def _write_extra(args: tuple, kwargs: dict, result: Any) -> tuple:
    import os

    kind = "segment" if os.path.basename(args[0]).startswith("seg-") \
        else "other"
    return (kind, len(args[1]))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point (see the module docstring)."""
    import repro.chain.segments as segments
    import repro.core.pipeline as pipeline
    import repro.engine.merge as merge
    import repro.flashbots.mev_geth as mev_geth
    import repro.serve.builders as builders
    import repro.sim.scenario  # noqa: F401  (defines every searcher class)
    from repro.agents.searcher import Searcher
    from repro.agents.trader import BorrowerPopulation, OracleKeeper, \
        TraderPopulation
    from repro.chain.mempool import Mempool
    from repro.chain.node import ArchiveNode
    from repro.core.scan import BlockScan
    from repro.engine.runner import ChunkRunner
    from repro.serve.builders import StoreFeeder
    from repro.serve.service import MevQueryService
    from repro.sim.overlap import BackgroundWriter
    from repro.sim.world import World
    from repro.stream.engine import StreamEngine

    patch = tracer.patch
    patch(World, "run", "sim.run")
    patch(World, "seal", "sim.seal",
          extra=lambda a, k, seal: len(seal.payload))
    original_enter = World.__dict__["_enter_epoch"]

    @functools.wraps(original_enter)
    def enter_epoch(self: Any, epoch_index: int) -> None:
        if not tracer.paused:
            tracer.epochs.append((epoch_index, clock(), rss_mb()))
        return original_enter(self, epoch_index)

    World._enter_epoch = enter_epoch  # type: ignore[method-assign]

    for method in ("make_swap", "make_transfer", "make_stable_swap",
                   "make_naive_arbitrage"):
        patch(TraderPopulation, method, "agents.traffic",
              extra=_one_if_made)
    patch(BorrowerPopulation, "make_borrow", "agents.traffic",
          extra=_one_if_made)
    patch(OracleKeeper, "make_updates", "agents.traffic",
          extra=_one_if_made)

    pending = [Searcher]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "scan" in cls.__dict__:
            patch(cls, "scan",
                  lambda self, *rest: f"agents.searcher.{self.strategy}",
                  extra=lambda a, k, subs: len(subs))
    patch(Mempool, "add", "chain.mempool.add",
          extra=lambda a, k, ok: bool(ok))
    patch(mev_geth, "build_block", "flashbots.build_block",
          extra=_block_extra)

    patch(segments.SegmentStore, "write_segment", "sim.seal.segment")
    patch(segments.SegmentStore, "load_segment", "chain.segments.load",
          extra=lambda a, k, blocks: a[1])
    patch(segments, "_write_durable", "chain.segments.write",
          extra=_write_extra)
    patch(BackgroundWriter, "submit", "sim.overlap.submit")
    patch(BackgroundWriter, "flush", "sim.overlap.flush")
    patch(segments.SpillingBlockchain, "locate_transaction",
          "chain.segments.locate_tx")

    patch(pipeline.MevInspector, "run", "core.run",
          extra=lambda a, k, dataset: len(dataset.to_rows()))
    patch(ArchiveNode, "iter_blocks", "core.read")
    patch(ArchiveNode, "get_logs", "core.read")
    patch(ArchiveNode, "get_receipt", "core.receipt")
    patch(ArchiveNode, "warm_index", "chain.index.warm")
    patch(BlockScan, "scan", "core.scan")
    patch(BlockScan, "scan_views", "core.scan")
    from repro.core.heuristics.arbitrage import ArbitrageVisitor
    from repro.core.heuristics.flashloan import FlashLoanVisitor
    from repro.core.heuristics.liquidation import LiquidationVisitor
    from repro.core.heuristics.sandwich import SandwichVisitor
    for visitor in (SandwichVisitor, ArbitrageVisitor,
                    LiquidationVisitor, FlashLoanVisitor):
        patch(visitor, "finalize", "core.finalize")
    patch(ChunkRunner, "run_chunk", "engine.run_chunk")
    patch(merge, "merge_rows", "core.merge")
    patch(pipeline, "apply_joins", "core.joins")
    patch(pipeline, "finish_quality", "core.quality")

    patch(StreamEngine, "ingest", "stream.ingest")
    patch(StreamEngine, "finalize", "stream.finalize",
          extra=lambda a, k, dataset: dict(
              events=a[0].report.events, reorgs=a[0].report.reorgs,
              retracted_rows=a[0].report.retracted_rows))
    for callback in ("block_indexed", "block_retracted",
                     "watermark_advanced", "stream_finalized"):
        patch(StoreFeeder, callback, "serve.store.write")
    patch(builders, "store_from_dataset", "serve.store.build")
    patch(MevQueryService, "handle", "serve.handle",
          extra=lambda a, k, response, hit: (response.endpoint,
                                             response.status, hit),
          before=_cache_probe)


def _cache_probe(args: tuple, kwargs: dict) -> bool:
    """Whether the service will answer the target from its render
    cache (read before the call, which may fill the cache)."""
    service, target = args[0], args[1]
    cached = service._cache.get(target)
    return cached is not None and cached[0] == service.store.generation
