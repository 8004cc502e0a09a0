"""End-to-end benchmark: from ``ScenarioConfig`` to a served dataset.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload study_window --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``e2ebench/README.md``): ``study_window`` and
``long_spill``.  Each simulates a fixed world (``ScenarioConfig``
defaults at the workload's size); ``--seed`` drives the traffic that
reaches it: the reorg feed and the HTTP request mix.
Every job that simulates runs in a fresh interpreter
(``e2ebench/child.py``).  Human-readable results go
to stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  The exit code is 1 when any output check fails and 2
when the program's sources are not in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
#: every invocation ends well inside a 180 s per-run limit
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s", "study_s": "s", "peak_rss_mb": "MB",
    "detect_blocks_per_s": "blocks/s", "follow_blocks_per_s": "blocks/s",
    "serve_cpu_ms_per_request": "ms",
}
#: printed with the end-to-end metrics but reported in the JSON only by
#: the traced run (``serve.replay.*``): on a shared host they follow
#: the host's stalls more than the program (see README)
UNGATED = {"serve_p50_ms": "ms", "serve_p99_ms": "ms",
           "serve_max_qps": "1/s"}
#: digests every run of the same study must reproduce
DIGESTS = ("chain", "rows", "dataset", "bodies")
#: timed rounds per invocation, at least; more run while they fit in
#: ``--seconds``.  A round is one study process and its passes.
MIN_ROUNDS = 3
#: share of ``--seconds`` that a round spends on detection and follow
#: passes.  The host's speed swings by tens of percent within a run,
#: so every round takes a few seconds of passes instead of one process
#: taking them all: the medians then span the whole run.
PASSES_SHARE = 0.1


def _stop(proc: subprocess.Popen) -> None:
    """End a child that is still running: SIGTERM first, so that it
    stops its own server process, then SIGKILL."""
    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit``, so ``finally`` blocks stop
    every process this one started."""
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))


class Invocation:
    """One benchmark invocation: its work directory, children, checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.root = os.getcwd()
        self.started = time.monotonic()
        self.work = os.path.join(self.root, ".e2ebench",
                                 f"run-{os.getpid()}")
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.children = 0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        self.attempted += 1
        if not ok:
            self.failed += 1

    def spawn(self, job: str, config: Dict[str, Any], trace: bool = False,
              **extra: Any) -> Dict[str, Any]:
        """Run one child job to completion and return its result."""
        self.children += 1
        tag = f"{self.children:02d}-{job}{'-traced' if trace else ''}"
        spec: Dict[str, Any] = {
            "job": job, "config": config, "seed": self.args.seed,
            "trace": trace,
            "out": os.path.join(self.work, f"{tag}.json"),
            "trace_path": os.path.join(
                self.root, ".e2ebench",
                f"trace-{self.args.workload}-{tag}.jsonl.gz"),
        }
        spec.update(extra)
        spec_path = os.path.join(self.work, f"{tag}.spec.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        print(f"[e2ebench] {tag} ...", file=sys.stderr, flush=True)
        spec["spawned_at"] = time.monotonic()
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        proc = subprocess.Popen([sys.executable, CHILD, spec_path],
                                env=env, cwd=self.root,
                                stdout=sys.stderr, stderr=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{tag} overran the invocation deadline")
        finally:
            _stop(proc)
        if code != 0:
            raise RuntimeError(f"{tag} exited with code {code}")
        print(f"[e2ebench] {tag} done in "
              f"{time.monotonic() - spec['spawned_at']:.1f} s",
              file=sys.stderr, flush=True)
        with open(spec["out"], "r", encoding="utf-8") as handle:
            out = json.load(handle)
        for name, ok in out["checks"].items():
            self.checks[f"{tag}:{name}"] = ok
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        return out

    def same_digests(self, name: str, left: Dict[str, Any],
                     right: Dict[str, Any]) -> None:
        for key in DIGESTS:
            self.check(f"{name}:{key}",
                       left["digests"][key] == right["digests"][key])

    def serve_spec(self, replay: bool) -> Dict[str, Any]:
        """Spec keys of a job that runs the serve phase after its study;
        ``replay`` adds the HTTP replay and the reference checks."""
        return {"passes_s": PASSES_SHARE * self.args.seconds,
                "replay": replay,
                "search": self.args.workload == "study_window"}

    def rounds(self, run: Callable[[int], List[Dict[str, Any]]],
               ) -> List[List[Dict[str, Any]]]:
        """Timed rounds until the next one would overrun ``--seconds``
        (at least ``MIN_ROUNDS``).  ``run(i)`` spawns round ``i``'s
        jobs; the first job of a round is its timed study, and every
        job's passes count as timed too."""
        done: List[List[Dict[str, Any]]] = []
        spent: List[float] = []
        while len(done) < MIN_ROUNDS or sum(spent) + statistics.median(
                spent) <= self.args.seconds:
            jobs = run(len(done))
            done.append(jobs)
            spent.append(jobs[0]["study_s"] + sum(
                sum(job.get("detect_s", ())) + sum(job.get("follow_s", ()))
                for job in jobs))
        return done


def _serve_metrics(inv: Invocation, jobs: List[Dict[str, Any]],
                   ) -> Dict[str, float]:
    """Pass throughputs over every job's passes, and the replay of the
    one job that ran it."""
    blocks = jobs[0]["blocks"]
    for index, job in enumerate(jobs[1:], 1):
        inv.check(f"follow_repeat_{index}",
                  job["follow_digest"] == jobs[0]["follow_digest"])
    post = next(job for job in jobs if "replay" in job)
    replay = post["replay"]
    for rate, sent, p50, p99, late, failed, passed in replay["steps"]:
        print(f"[e2ebench] replay {rate:>9.1f}/s x{sent:<5} p50 {p50:.3f} "
              f"ms p99 {p99:.3f} ms late p99 {late:.3f} ms failed {failed} "
              f"{'pass' if passed else 'FAIL'}", file=sys.stderr)
    metrics = {
        "detect_blocks_per_s": blocks / statistics.median(
            s for job in jobs for s in job["detect_s"]),
        "follow_blocks_per_s": blocks / statistics.median(
            s for job in jobs for s in job["follow_s"]),
        "serve_cpu_ms_per_request": post["server_cpu_ms_per_request"]}
    for name in UNGATED:
        if name in replay:
            metrics[name] = replay[name]
    return metrics


def _traced_pair(inv: Invocation, untraced: Dict[str, Any],
                 traced: Dict[str, Any], name: str) -> None:
    """The traced run must reproduce the untraced run's outputs."""
    inv.same_digests(f"traced_{name}", untraced, traced)
    if "follow_digest" in untraced:
        inv.check(f"traced_{name}:follow",
                  untraced["follow_digest"] == traced["follow_digest"])


def study_window(inv: Invocation) -> Dict[str, Any]:
    config = {"blocks_per_month": 150}
    # With --trace 1 the untraced jobs supply only study_s and digests;
    # the serve phase runs once, in the traced job.
    serve = not inv.args.trace
    runs = [jobs[0] for jobs in inv.rounds(
        lambda i: [inv.spawn("study", config, **(
            inv.serve_spec(replay=i == 0) if serve else {}))])]
    for other in runs[1:]:
        inv.same_digests("repeat_study", runs[0], other)
    reference = inv.spawn("reference", config)
    inv.same_digests("fast_paths_equal_reference", runs[0], reference)
    report = {
        "setup_s": statistics.median(
            r["timed_from_s"] for r in runs + [reference]),
        "study_s": statistics.median(r["study_s"] for r in runs),
        "peak_rss_mb": max(r.get("passes_peak_rss_mb",
                                 r["study_peak_rss_mb"]) for r in runs),
    }
    if serve:
        report["peak_rss_mb"] = max(report["peak_rss_mb"],
                                    runs[0]["server_peak_rss_mb"])
        report.update(_serve_metrics(inv, runs))
    else:
        traced = inv.spawn("study", config, trace=True,
                           **inv.serve_spec(replay=True))
        _traced_pair(inv, runs[0], traced, "study")
        report["layers"] = traced["layers"]
        report["layers"]["trace.overhead_ratio"] = \
            traced["study_s"] / report["study_s"]
    return report


def long_spill(inv: Invocation) -> Dict[str, Any]:
    config = {"blocks_per_month": 20}

    def spilled(trace: bool = False) -> Dict[str, Any]:
        segment_dir = os.path.join(inv.work, f"segments-{inv.children}")
        return inv.spawn("study", config, trace=trace,
                         spill={"dir": segment_dir,
                                "max_resident_epochs": 2})

    # Each round is a spilled study and its in-memory twin, the
    # reference it must equal.  The twin runs the serve phase, because
    # the feeds read only the resident blocks of a spilled chain.
    serve = not inv.args.trace  # as in study_window
    rounds = inv.rounds(lambda i: [spilled(), inv.spawn(
        "study", config, **(inv.serve_spec(replay=i == 0)
                            if serve else {}))])
    runs = [spill for spill, _ in rounds]
    twins = [twin for _, twin in rounds]
    for run, twin in rounds:
        inv.same_digests("spilled_equals_in_memory", run, twin)
    for other in runs[1:]:
        inv.same_digests("repeat_study", runs[0], other)
    report = {
        "setup_s": statistics.median(
            r["timed_from_s"] for r in runs + twins),
        "study_s": statistics.median(r["study_s"] for r in runs),
        "peak_rss_mb": max(r["study_peak_rss_mb"] for r in runs),
    }
    if serve:
        report.update(_serve_metrics(inv, twins))
    else:
        traced = spilled(trace=True)
        traced_twin = inv.spawn("study", config, trace=True,
                                **inv.serve_spec(replay=True))
        _traced_pair(inv, runs[0], traced, "spilled")
        _traced_pair(inv, twins[0], traced_twin, "in_memory")
        from layers import SERVE_PHASE_PREFIXES

        merged = dict(traced["layers"])
        for key, value in traced_twin["layers"].items():
            if key.startswith(SERVE_PHASE_PREFIXES):
                merged[key] = value
        merged["trace.overhead_ratio"] = \
            traced["study_s"] / report["study_s"]
        report["layers"] = merged
    return report


WORKLOADS = {"study_window": study_window, "long_spill": long_spill}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    exit_on_sigterm()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("e2ebench: run from the root of a checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    inv = Invocation(args)
    os.makedirs(inv.work, exist_ok=True)
    for name in os.listdir(os.path.dirname(inv.work)):
        if name.startswith(f"trace-{args.workload}-"):
            os.remove(os.path.join(os.path.dirname(inv.work), name))
    try:
        report = WORKLOADS[args.workload](inv)
    finally:
        shutil.rmtree(inv.work, ignore_errors=True)

    failed_ratio = inv.failed / max(1, inv.attempted)
    for name, ok in sorted(inv.checks.items()):
        if not ok:
            print(f"[e2ebench] CHECK FAILED {name}", file=sys.stderr)
    print(f"[e2ebench] {args.workload} seed={args.seed}: "
          f"{len(inv.checks)} output checks, {inv.attempted} attempts, "
          f"{inv.failed} failed", file=sys.stderr)
    for name, unit in {**END_TO_END, **UNGATED}.items():
        if name in report:
            print(f"  {name:<24} {report[name]:>14.4f} {unit}",
                  file=sys.stderr)
    print(f"  {'failed_ratio':<24} {failed_ratio:>14.4f} ratio",
          file=sys.stderr)
    if args.trace:
        from layers import units

        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in units().items()}
        for name, entry in metrics.items():
            print(f"  {name:<42} {entry['value']:>14.6g} {entry['unit']}",
                  file=sys.stderr)
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = inv.failed == 0 and all(inv.checks.values())
    print(json.dumps({"correct": correct, "attempted": inv.attempted,
                      "failed": inv.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
