"""One campaign run in a fresh process, reported as one JSON line.

Usage: ``campaign_child.py WORKLOAD SEED SPAWNED_AT MODE [TRACE_DIR]``.
``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so set-up time covers
interpreter start and imports up to the point ``Campaign.run`` can be
called. ``MODE`` is one of:

- ``speed``: sample host speed (:mod:`speed`) from the first statement
  on, and report speed-corrected times next to the raw ones;
- ``plain``: no probes at all (the reference for trace overhead);
- ``trace``: install the layer spans and report them; forked multicore
  workers leave theirs in ``TRACE_DIR``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import sys
import time

import speed


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str]) -> None:
    workload, seed, spawned_at, mode = (
        argv[0], int(argv[1]), float(argv[2]), argv[3])
    if mode not in ("speed", "plain", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    sampler = None
    if mode == "speed":
        sampler = speed.SpeedSampler()
        sampler.start()
    from workloads import CAMPAIGNS

    from repro.core.campaign import Campaign

    campaign = Campaign(CAMPAIGNS[workload].config(seed))
    ready = time.monotonic()
    tracer = None
    if mode == "trace":
        from layers import install_campaign
        from spans import Tracer

        tracer = Tracer()
        install_campaign(tracer, pathlib.Path(argv[4]))
    run_started = time.monotonic()
    started = time.perf_counter()
    result = campaign.run()
    wall_s = time.perf_counter() - started
    run_ended = time.monotonic()
    report = {
        "setup_s": ready - spawned_at,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "digest": hashlib.sha256(result.report().encode()).hexdigest(),
        "q1": result.probe_summary.q1,
        "engine_stats": result.engine_stats,
    }
    if sampler is not None:
        sampler.stop()
        samples = sampler.samples
        report["setup_corrected_s"] = speed.corrected(
            report["setup_s"], speed.mean_between(samples, spawned_at, ready))
        report["wall_corrected_s"] = speed.corrected(
            wall_s, speed.mean_between(samples, run_started, run_ended))
    if tracer is not None:
        report["trace"] = tracer.document()
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
