"""Sharded campaign engine: equivalence at scale plus honest timings.

Times a serial campaign against the same campaign split into shards
(in-process and in worker processes) at a scale where a serial run
takes several seconds, and verifies the byte-identical-report guarantee
at that scale. The worker-process speedup is recorded as measured
together with the host's core count: on a single-core host the workers
cannot beat serial (the shards time-slice one CPU and pay IPC on top),
and the point of the record is the honest number, not a flattering one.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore

from benchmarks.conftest import SEED, publish_bench_record, write_result

#: A scale where the serial engine needs seconds, not milliseconds, so
#: the parallel comparison measures real work.
BENCH_SCALE = 2048
WORKERS = 4

CONFIG = CampaignConfig(
    year=2018, scale=BENCH_SCALE, seed=SEED, time_compression=4.0
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_sharded_campaign(benchmark, results_dir):
    serial, serial_s = _timed(lambda: Campaign(CONFIG).run())
    sharded_config = dataclasses.replace(CONFIG, workers=WORKERS)
    inline, inline_s = _timed(
        lambda: run_multicore(sharded_config, parallelism="inline")
    )
    pooled, pooled_s = _timed(
        lambda: run_multicore(sharded_config, parallelism="auto")
    )
    benchmark.pedantic(
        run_multicore,
        kwargs=dict(config=sharded_config, parallelism="auto"),
        rounds=1,
        iterations=1,
    )

    serial_report = serial.report()
    assert inline.report() == serial_report
    assert pooled.report() == serial_report

    cores = os.cpu_count() or 1
    speedup = serial_s / pooled_s if pooled_s else float("inf")
    lines = [
        f"sharded campaign engine @ year=2018 scale=1/{BENCH_SCALE} "
        f"seed={SEED} workers={WORKERS}",
        f"host cores: {cores}",
        f"serial:        {serial_s:8.2f} s",
        f"inline shards: {inline_s:8.2f} s",
        f"processes:     {pooled_s:8.2f} s  (speedup vs serial: {speedup:.2f}x)",
        "reports byte-identical across all three runs: yes",
    ]
    if cores < WORKERS:
        lines.append(
            f"note: only {cores} core(s) available — {WORKERS} workers "
            "time-slice the CPU, so no parallel speedup is possible here; "
            "rerun on a multi-core host for the real curve"
        )
    else:
        assert speedup >= 2.0, (
            f"expected >=2x speedup with {WORKERS} workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
    write_result(results_dir, "sharded_campaign.txt", "\n".join(lines))
    # Machine-readable mirror of the record above, for dashboards and
    # regression tracking across CI runs.
    publish_bench_record(
        "sharded_campaign",
        {
            "benchmark": "sharded_campaign",
            "year": 2018,
            "scale": BENCH_SCALE,
            "seed": SEED,
            "workers": WORKERS,
            "host_cores": cores,
            "serial_s": round(serial_s, 4),
            "inline_s": round(inline_s, 4),
            "pooled_s": round(pooled_s, 4),
            "speedup_vs_serial": round(speedup, 4),
            "reports_byte_identical": True,
        },
    )
