"""The campaign workloads: whole ``Campaign.run`` calls in child processes.

Every repetition is a fresh process, so each one also gives a set-up
sample (interpreter start and imports). Its report bytes are hashed and
checked: at seed 7 against the digest pinned for the workload, at any
other seed against the other repetitions of the same run.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from workloads import CAMPAIGNS

#: Repetitions at least, even when one outlasts the run's seconds.
MIN_REPS = 3
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


def run_child(repo: pathlib.Path, workload: str, seed: int, mode: str,
              trace_dir: pathlib.Path | None = None) -> dict:
    """One campaign in a fresh interpreter; returns the child's report.

    ``mode`` is ``campaign_child.py``'s: speed, plain or trace.
    """
    here = pathlib.Path(__file__).parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(repo / "src"), str(here)]))
    command = [sys.executable, str(here / "campaign_child.py"), workload,
               str(seed)]
    spawned_at = time.monotonic()
    command += [repr(spawned_at), mode]
    if trace_dir is not None:
        command.append(str(trace_dir))
    done = subprocess.run(command, env=env, cwd=repo, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"campaign child failed ({done.returncode}):\n"
                           + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest_failures(workload: str, seed: int, digests: list[str]) -> int:
    """How many repetitions produced the wrong report bytes."""
    if seed == 7:
        expected = CAMPAIGNS[workload].pinned_seed7
    else:
        expected = collections.Counter(digests).most_common(1)[0][0]
    return sum(digest != expected for digest in digests)


def run_untraced(repo: pathlib.Path, workload: str, seed: int,
                 seconds: float) -> dict:
    """Repeat the campaign for ``seconds`` (at least MIN_REPS times)."""
    reps = []
    started = time.monotonic()
    while True:
        rep_started = time.monotonic()
        reps.append(run_child(repo, workload, seed, "speed"))
        now = time.monotonic()
        if len(reps) >= MIN_REPS and now - started + (now - rep_started) > seconds:
            break
    digests = [rep["digest"] for rep in reps]
    walls = [rep["wall_s"] for rep in reps]
    return {
        "attempted": len(reps),
        "failed": digest_failures(workload, seed, digests),
        "wall_s": statistics.median(walls),
        "walls": walls,
        "wall_corrected_s": statistics.median(
            rep["wall_corrected_s"] for rep in reps),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "setup_corrected_s": statistics.median(
            rep["setup_corrected_s"] for rep in reps),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
        "q1": reps[0]["q1"],
    }


def merge_traces(documents: list[dict]) -> dict:
    """Sum span aggregates of several processes."""
    merged: dict[str, dict] = {
        "calls": {}, "self_s": {}, "total_s": {}, "counters": {},
    }
    for document in documents:
        for section, values in merged.items():
            for key, value in document[section].items():
                values[key] = values.get(key, 0) + value
    return merged


def run_traced(repo: pathlib.Path, workload: str, seed: int,
               workdir: pathlib.Path) -> tuple[dict, dict]:
    """A traced repetition between two untraced ones; per-layer metrics.

    The untraced pair brackets the traced run, so a drift in host speed
    during the three runs largely cancels out of ``trace.overhead_s``.

    Worker processes of the multicore engine leave their spans in
    ``workdir``; their self times are summed into the parent's, so on
    that engine the layer times add up CPU seconds of every process,
    while ``trace.uncovered_s`` is taken over the parent's spans alone.
    """
    trace_dir = workdir / f"trace-{workload}"
    trace_dir.mkdir()
    before = run_child(repo, workload, seed, "plain")
    traced = run_child(repo, workload, seed, "trace", trace_dir)
    after = run_child(repo, workload, seed, "plain")
    untraced_wall = (before["wall_s"] + after["wall_s"]) / 2.0
    parent = traced["trace"]
    workers = [json.loads(path.read_text())
               for path in sorted(trace_dir.glob("worker-*.json"))]
    spans = merge_traces([parent, *workers])
    self_s = spans["self_s"]
    counters = spans["counters"]
    q1 = traced["q1"]
    engine = traced["engine_stats"] or {}
    busy = engine.get("worker_busy_s", {})
    busy_max = max(busy.values()) if busy else 0.0
    engine_wall = parent["total_s"].get("core.multicore", 0.0)
    metrics = {
        "prober.zmap.self_s": self_s.get("prober.zmap", 0.0),
        "resolvers.population.self_s": self_s.get("resolvers.population", 0.0),
        "resolvers.population.deploy_calls": counters.get("deploy_calls", 0),
        "prober.probe.self_s": self_s.get("prober.probe", 0.0),
        "prober.probe.events_per_probe":
            counters.get("scheduler_events", 0) / q1,
        "dnssec.validation.self_s": self_s.get("dnssec.validation", 0.0),
        "dnssec.validation.codec_calls": counters.get("dnslib.wire.census", 0),
        "prober.capture.self_s": self_s.get("prober.capture", 0.0),
        "analysis.self_s": self_s.get("analysis", 0.0),
        "stream.self_s": self_s.get("stream", 0.0),
        "dnslib.wire.self_s": self_s.get("dnslib.wire", 0.0),
        "dnslib.wire.calls_per_probe.scan":
            counters.get("dnslib.wire.scan", 0) / q1,
        "dnslib.wire.calls_per_probe.census":
            counters.get("dnslib.wire.census", 0) / q1,
        "core.multicore.parent_s": max(0.0, engine_wall - busy_max)
            if engine_wall else 0.0,
        "core.multicore.worker_busy_max_s": busy_max,
        "core.multicore.bytes_shipped": engine.get("bytes_shipped", 0),
        "trace.uncovered_s":
            traced["wall_s"] - sum(parent["self_s"].values()),
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
    }
    digests = [before["digest"], traced["digest"], after["digest"]]
    outcome = {
        "attempted": len(digests),
        "failed": digest_failures(workload, seed, digests),
        "wall_s": traced["wall_s"],
        "untraced_wall_s": untraced_wall,
        "worker_processes": len(workers),
    }
    return outcome, metrics
