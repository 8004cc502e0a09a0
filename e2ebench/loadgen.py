"""Open-loop HTTP replay against a query server in its own process.

The server is a fresh interpreter (``python3 loadgen.py DATASET.pkl
TRACED``) that builds its own :class:`MevQueryService` from the served
dataset, so it starts with a cold render cache and a heap that holds
the store only.  The generator sends a fixed schedule (request ``i``
is due at ``t0 + i / rate``) over at most two keep-alive connections,
with a sender and a receiver thread per connection, pipelining when
responses lag.  It times every request from its *due* time to the end
of its response body, so a slow server shows as latency instead of
silently slowing the schedule down (no coordinated omission); the
generator's own lateness is reported separately.

Every response is compared with the bytes ``MevQueryService.handle``
returns for the same target, computed in this process from an
identical service.
"""

from __future__ import annotations

import asyncio
import gc
import os
import pickle
import queue
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracing import clock

#: the rate whose latencies are reported as serve_p50_ms/serve_p99_ms,
#: sent before the max-rate search (which starts from its verdict) and
#: again after it
REFERENCE_RATE = 600.0
REFERENCE_REQUESTS = (1000, 1000)
#: requests replayed (and discarded) before the reference rate
WARMUP_REQUESTS = 300
#: a rate passes when its p99 stays within this limit ...
P99_LIMIT_MS = 12.0
#: ... and its last window's median is not much slower than its first
BACKLOG_FACTOR = 2.0
BACKLOG_SLACK_S = 0.005
#: a step's latencies are cut into this many consecutive windows
WINDOWS = 5
#: max-rate search: doubling (or halving) from the reference rate
#: within these limits, then log-scale bisection of the bracket.  Above
#: MAX_RATE the generator itself (Python, sharing two vCPUs with the
#: server) runs more than a few ms late, so it is the cap: a server
#: that meets the limit there reports MAX_RATE.
MIN_RATE = 50.0
MAX_RATE = 3000.0
BISECT_STEPS = 3
#: each step sends at least this many requests (>= 10 beyond p99)
MIN_STEP_REQUESTS = 1000
STEP_SECONDS = 0.75
CONNECTIONS = 2

Request = Tuple[str, Optional[str], int, bytes]


def resolve_requests(service: Any, mix: List[Dict[str, Any]],
                     max_walk_pages: int) -> List[Request]:
    """Flatten a ``build_mix`` mix into ``(target, if_none_match,
    expected status, expected body)``, following cursor walks and
    conditional re-reads with ``service`` itself."""
    flat: List[Request] = []
    for entry in mix:
        target = entry["target"]
        response = service.handle(target)
        flat.append((target, None, response.status, response.body))
        if entry["kind"] == "conditional" and response.etag:
            again = service.handle(target, if_none_match=response.etag)
            flat.append((target, response.etag, again.status,
                         again.body))
        elif entry["kind"] == "walk":
            pages = 1
            while pages < max_walk_pages and response.status == 200:
                cursor = response.json.get("next_cursor")
                if cursor is None:
                    break
                page = f"{target}&cursor={cursor}"
                response = service.handle(page)
                flat.append((page, None, response.status,
                             response.body))
                pages += 1
    return flat


def _wire(request: Request) -> bytes:
    target, etag, _, _ = request
    head = [f"GET {target} HTTP/1.1", "Host: 127.0.0.1"]
    if etag is not None:
        head.append(f"If-None-Match: {etag}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii")


def _read_response(reader: Any) -> Tuple[int, bytes]:
    status = int(reader.readline().split(b" ")[1])
    length = 0
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    return status, reader.read(length) if length else b""


class StepResult:
    """One fixed-rate step of the replay."""

    def __init__(self, rate: float, count: int) -> None:
        self.rate = rate
        self.latency_s: List[float] = [0.0] * count
        self.late_s: List[float] = [0.0] * count
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    def windows(self) -> List[List[float]]:
        """The step's latencies in ``WINDOWS`` consecutive slices."""
        size = max(1, len(self.latency_s) // WINDOWS)
        return [self.latency_s[i * size:(i + 1) * size]
                for i in range(WINDOWS)]

    def p(self, pct: float) -> float:
        """Median over the windows of each window's percentile, in ms:
        one stall of the host inside one window does not move it."""
        return statistics.median(percentile(window, pct)
                                 for window in self.windows()) * 1000.0

    def passes(self) -> bool:
        if self.failed:
            return False
        windows = self.windows()
        growing = percentile(windows[-1], 50) > \
            BACKLOG_FACTOR * percentile(windows[0], 50) + BACKLOG_SLACK_S
        return self.p(99) <= P99_LIMIT_MS and not growing


def _crossing(passed: StepResult, failed: StepResult) -> float:
    """Where p99 reaches the limit between the highest passing and the
    lowest failing rate, interpolated on log scales (the search grid
    alone would quantize the result to its step)."""
    import math

    low, high = passed.p(99), failed.p(99)
    if not low < P99_LIMIT_MS < high:
        return passed.rate
    share = math.log(P99_LIMIT_MS / low) / math.log(high / low)
    return passed.rate * (failed.rate / passed.rate) ** share


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-int(len(ordered) * pct) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def _step(connections: List[socket.socket], requests: List[Request],
          rate: float) -> StepResult:
    """Send ``requests`` at ``rate`` per second, round-robin over the
    connections: one sender thread per connection sleeps until each
    request's due time (``time.sleep`` has microsecond resolution; an
    event loop's timer would add up to a millisecond), one receiver
    thread per connection reads the responses in order."""
    result = StepResult(rate, len(requests))
    wire = [_wire(request) for request in requests]
    width = len(connections)
    start = clock() + 0.01

    def sender(lane: int, fifo: "queue.SimpleQueue") -> None:
        sock = connections[lane]
        for index in range(lane, len(requests), width):
            due = start + index / rate
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            result.late_s[index] = max(0.0, clock() - due)
            fifo.put((index, due))
            sock.sendall(wire[index])
        fifo.put(None)

    def receiver(lane: int, fifo: "queue.SimpleQueue") -> None:
        reader = readers[lane]
        while True:
            item = fifo.get()
            if item is None:
                return
            index, due = item
            status, body = _read_response(reader)
            result.latency_s[index] = clock() - due
            _, _, want_status, want_body = requests[index]
            if (status, body) != (want_status, want_body):
                failed[lane] += 1

    readers = [sock.makefile("rb") for sock in connections]
    failed = [0] * width  # one counter per receiver thread
    threads = []
    for lane in range(width):
        fifo: "queue.SimpleQueue" = queue.SimpleQueue()
        threads.append(threading.Thread(target=sender, args=(lane, fifo)))
        threads.append(threading.Thread(target=receiver,
                                        args=(lane, fifo)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for reader in readers:
        reader.close()
    result.failed = sum(failed)
    return result


def _search(first: StepResult,
            run: Callable[[float], StepResult]) -> float:
    """The highest rate that passes: bracket the limit by doubling up
    from the reference rate (or halving down when it already fails),
    then bisect the bracket; ``run`` sends one step at a rate."""
    passed = first if first.passes() else None
    failed = None if passed else first
    while passed is None and failed.rate > MIN_RATE:
        step = run(failed.rate / 2.0)
        passed, failed = (step, failed) if step.passes() \
            else (None, step)
    while failed is None and passed.rate < MAX_RATE:
        step = run(min(MAX_RATE, passed.rate * 2.0))
        passed, failed = (step, None) if step.passes() \
            else (passed, step)
    if passed is None:
        return 0.0
    if failed is None:
        return passed.rate
    for _ in range(BISECT_STEPS):
        step = run((passed.rate * failed.rate) ** 0.5)
        if step.passes():
            passed = step
        else:
            failed = step
    return _crossing(passed, failed)


def _replay(port: int, pid: int, mixes: "MixSource",
            search: bool) -> Dict[str, Any]:
    """Warm-up, reference rate, the max-rate search when ``search``,
    reference rate again, against server process ``pid``.  Its CPU time
    is read around the reference batches and its peak RSS after the
    first one, so neither depends on how far the search went (the
    server's render cache grows with every distinct target)."""
    connections = [socket.create_connection(("127.0.0.1", port))
                   for _ in range(CONNECTIONS)]
    for sock in connections:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        warmup = _step(connections, mixes.take(WARMUP_REQUESTS),
                       REFERENCE_RATE)
        cpu_s = -_cpu_s(pid)
        first = _step(connections, mixes.take(REFERENCE_REQUESTS[0]),
                      REFERENCE_RATE)
        cpu_s += _cpu_s(pid)
        peak_rss_mb = _peak_rss_mb(pid)
        steps = [first]

        def run(rate: float) -> StepResult:
            count = max(MIN_STEP_REQUESTS, int(rate * STEP_SECONDS))
            step = _step(connections, mixes.take(count), rate)
            steps.append(step)
            return step

        best = 0.0
        if search:
            best = _search(first, run)
        # The rest of the reference rate, after the search: its
        # latencies then span the whole replay, not one stretch of it.
        cpu_s -= _cpu_s(pid)
        again = _step(connections, mixes.take(REFERENCE_REQUESTS[1]),
                      REFERENCE_RATE)
        cpu_s += _cpu_s(pid)
        steps.append(again)
        reference = StepResult(REFERENCE_RATE, 0)
        reference.latency_s = first.latency_s + again.latency_s
        reference.late_s = first.late_s + again.late_s
    finally:
        for sock in connections:
            sock.close()
    report = {
        "serve_p50_ms": reference.p(50),
        "serve_p99_ms": reference.p(99),
        "late_p99_ms": percentile(reference.late_s, 99) * 1000.0,
        "server_cpu_ms_per_request":
            cpu_s * 1000.0 / reference.attempted,
        "server_peak_rss_mb": peak_rss_mb,
        "attempted": warmup.attempted + sum(step.attempted
                                            for step in steps),
        "failed": warmup.failed + sum(step.failed for step in steps),
        "steps": [(round(step.rate, 3), step.attempted,
                   round(step.p(50), 4), round(step.p(99), 4),
                   round(percentile(step.late_s, 99) * 1000.0, 4),
                   step.failed, step.passes()) for step in steps],
    }
    if search:
        report["serve_max_qps"] = best
    return report


class MixSource:
    """Endless stream of resolved requests: fresh ``build_mix`` mixes
    (seeded ``seed``, ``seed + 1``, ...) over the dataset's range."""

    def __init__(self, service: Any, first: int, last: int,
                 seed: int) -> None:
        from repro.serve.loadgen import MAX_WALK_PAGES

        self.service = service
        self.first, self.last = first, last
        self.seed = seed
        self.max_walk_pages = MAX_WALK_PAGES
        self.pending: List[Request] = []

    def take(self, count: int) -> List[Request]:
        from repro.serve import build_mix

        while len(self.pending) < count:
            mix = build_mix(self.first, self.last, requests=500,
                            seed=self.seed)
            self.seed += 1
            self.pending.extend(resolve_requests(
                self.service, mix, self.max_walk_pages))
        taken, self.pending = self.pending[:count], self.pending[count:]
        return taken


# The server process ----------------------------------------------------------

def serve_main(dataset_path: str, traced: bool) -> None:
    """Server process: serve the pickled dataset until stdin says stop.

    Prints the bound port as the first stdout line; after the stop, it
    writes its ``serve.handle`` spans, pickled.
    """
    from repro.serve import MevHttpServer, service_from_dataset

    tracer = None
    if traced:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    with open(dataset_path, "rb") as handle:
        service = service_from_dataset(pickle.load(handle))
    out = sys.stdout.buffer

    async def main() -> None:
        server = MevHttpServer(service, host="127.0.0.1", port=0)
        await server.start()
        stop = asyncio.Event()
        asyncio.get_running_loop().add_reader(sys.stdin.fileno(), stop.set)
        out.write(f"{server.port}\n".encode("ascii"))
        out.flush()
        await stop.wait()
        # The replay closed its connections; let their handlers finish.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)
        await server.stop()

    asyncio.run(main())
    spans = [] if tracer is None else \
        [span for span in tracer.spans if span[0] == "serve.handle"]
    pickle.dump(spans, out)
    out.flush()


def _cpu_s(pid: int) -> float:
    """CPU seconds the threads of process ``pid`` have run (Linux
    schedstat, nanosecond resolution)."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat", "r",
                  encoding="ascii") as handle:
            total += int(handle.read().split()[0])
    return total / 1e9


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set of process ``pid`` so far, in MB (Linux)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def serve_and_measure(dataset: Any, local_service: Any, first: int,
                      last: int, seed: int, workdir: str, search: bool,
                      tracer: Any = None) -> Dict[str, Any]:
    """Start a server process over ``dataset``, replay, stop it.

    Without ``search`` the replay is the warm-up and the two reference
    batches only, with no max-rate search.

    The server is a fresh interpreter (its heap holds the store, not
    the simulated world); ``local_service`` supplies the expected
    bodies.  Returns the replay metrics plus the server process's peak
    RSS and, when traced, its ``serve.handle`` spans.
    """
    path = os.path.join(workdir, "served-dataset.pkl")
    with open(path, "wb") as handle:
        pickle.dump(dataset, handle, protocol=pickle.HIGHEST_PROTOCOL)
    server = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), path,
         "1" if tracer is not None else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        port = int(server.stdout.readline())
        mixes = MixSource(local_service, first, last, seed)
        # This process still holds the simulated world: keep the
        # collector off that heap so its pauses do not show up as
        # server latency.
        gc.freeze()
        try:
            if tracer is not None:
                with tracer.pause():
                    report = _replay(port, server.pid, mixes, search)
            else:
                report = _replay(port, server.pid, mixes, search)
        finally:
            gc.unfreeze()
        server.stdin.write(b"stop\n")
        server.stdin.flush()
        spans = pickle.load(server.stdout)
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
        server.wait()
        os.remove(path)
    report["server_spans"] = spans
    return report


if __name__ == "__main__":
    serve_main(sys.argv[1], sys.argv[2] == "1")
