"""Multicore engine benchmark: aggregate probe capacity vs serial.

Measures the shared-nothing engine the way a scale-out scanner is
actually judged: **aggregate probes per CPU-second** across all
workers against the serial engine's single-core rate. Per-worker busy
time is ``time.process_time()`` — CPU consumed, not wall clock — so
the number is honest on hosts with fewer cores than workers: eight
workers time-slicing one core each report their true CPU cost instead
of a contention-inflated wall time, and the aggregate measures what
the engine would sustain given eight real cores. The serial baseline
is CPU-time-based for the same reason (on an otherwise-idle host the
two clocks agree).

The speedup comes from the shared-nothing design, not magic. The
O(universe) setup the serial run pays — the permutation walk and the
sampled world — is paid once in the parent and forked in from its
primed caches. Each worker then picks its hosts by integer address:
one dotted-quad conversion per host, never one per address of its
slice, so a worker's own setup is O(hosts) and its busy time is its
slice's scan (deploy, event loop, join). Results leave as compact
frames instead of fat pickles.

The aggregate is a capacity figure, not an end-to-end one, so the
record also carries two whole-run figures next to it:
``wall_probes_per_sec`` (probes over wall time) for both engines, and
the multicore run's ``parent_serial_s`` — wall time minus the slowest
worker's busy time, i.e. the parent's priming, merge, finalize and
analysis that no worker count shortens. On a host with fewer cores
than workers the workers time-slice, so ``parent_serial_s`` then also
holds their waits for a core. ``host`` stamps where it ran.

Publishes the canonical repo-root ``BENCH_multicore.json`` with a
``baseline`` section (committed reference, rewritten by hand) and a
``current`` section (rewritten every run). The CI gate fails when the
current aggregate rate falls more than ``REGRESSION_TOLERANCE`` below
the committed baseline and skips cleanly when no baseline exists.

Run directly (``PYTHONPATH=src:. python benchmarks/bench_multicore.py``)
or through pytest (``pytest benchmarks/bench_multicore.py``).
"""

from __future__ import annotations

import json
import os
import time

from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore

SEED = 7

#: Same shape as bench_hot_path's timed run so the serial figures are
#: comparable across benches.
TIMED_CONFIG = CampaignConfig(
    year=2018, scale=4096, seed=SEED, time_compression=4.0
)

WORKERS = 8

#: The tentpole contract: the 8-worker engine must aggregate at least
#: this many multiples of the serial single-core rate.
TARGET_AGGREGATE_SPEEDUP = 4.0

#: CI regression gate: current aggregate probes/sec may fall at most
#: this fraction below the committed baseline. Generous (50%) because
#: CI hosts vary wildly; the gate exists to catch engine-level
#: regressions (lost universe inheritance, per-probe dispatch costs),
#: which cost integer multiples, not noise-level fractions.
REGRESSION_TOLERANCE = 0.50


def measure_serial() -> dict:
    """The serial engine's single-core rate, CPU-time based."""
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    result = Campaign(TIMED_CONFIG).run()
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start
    q1 = result.probe_summary.q1
    return {
        "q1": q1,
        "cpu_s": round(cpu, 4),
        "wall_s": round(wall, 4),
        "probes_per_cpu_sec": round(q1 / cpu, 1),
        "wall_probes_per_sec": round(q1 / wall, 1),
    }


def measure_multicore() -> dict:
    """The 8-worker engine's aggregate rate from per-worker CPU time."""
    import dataclasses

    config = dataclasses.replace(TIMED_CONFIG, workers=WORKERS)
    wall_start = time.perf_counter()
    result = run_multicore(config, parallelism="process")
    wall = time.perf_counter() - wall_start
    stats = result.engine_stats
    busy = stats["worker_busy_s"]
    q1 = stats["worker_q1"]
    aggregate = sum(
        q1[index] / busy[index] for index in q1 if busy.get(index)
    )
    q1_total = sum(q1.values())
    return {
        "workers": WORKERS,
        "transport": stats["transport"],
        "event_batch": stats["event_batch"],
        "q1_total": q1_total,
        "worker_busy_s": {str(k): v for k, v in sorted(busy.items())},
        "wall_s": round(wall, 4),
        "wall_probes_per_sec": round(q1_total / wall, 1),
        "parent_serial_s": round(wall - max(busy.values(), default=0.0), 4),
        "bytes_shipped": stats["bytes_shipped"],
        "frames": stats["frames"],
        "aggregate_probes_per_sec": round(aggregate, 1),
    }


def run_benchmark() -> dict:
    """Measure both engines, compute the speedup, publish the record."""
    from benchmarks.conftest import (
        host_note,
        load_bench_record,
        publish_bench_record,
    )

    serial = measure_serial()
    multicore = measure_multicore()
    current = {
        "serial": serial,
        "multicore": multicore,
        "host_cores": os.cpu_count() or 1,
        "host": host_note(),
        "aggregate_speedup": round(
            multicore["aggregate_probes_per_sec"]
            / serial["probes_per_cpu_sec"],
            2,
        ),
    }
    record = load_bench_record("multicore") or {"benchmark": "multicore"}
    record["config"] = {
        "year": TIMED_CONFIG.year,
        "scale": TIMED_CONFIG.scale,
        "seed": SEED,
        "workers": WORKERS,
        "target_aggregate_speedup": TARGET_AGGREGATE_SPEEDUP,
    }
    record["current"] = current
    publish_bench_record("multicore", record)
    return record


def test_multicore_benchmark():
    import pytest

    record = run_benchmark()
    current = record["current"]
    assert current["multicore"]["q1_total"] > 0
    # The tentpole target is asserted as measured — CPU-time rates are
    # stable enough to gate on even under CI contention.
    assert current["aggregate_speedup"] >= TARGET_AGGREGATE_SPEEDUP, (
        f"aggregate speedup {current['aggregate_speedup']:.2f}x is below "
        f"the {TARGET_AGGREGATE_SPEEDUP:.0f}x multicore target"
    )
    baseline = record.get("baseline")
    if baseline is None:
        pytest.skip(
            "no committed multicore baseline (fresh clone); "
            "first measurement recorded"
        )
    reference = baseline.get("aggregate_probes_per_sec")
    if reference:
        floor = reference * (1.0 - REGRESSION_TOLERANCE)
        measured = current["multicore"]["aggregate_probes_per_sec"]
        assert measured >= floor, (
            f"multicore regression: {measured:.0f} aggregate probes/s is "
            f"more than {REGRESSION_TOLERANCE:.0%} below the committed "
            f"baseline of {reference:.0f}"
        )


if __name__ == "__main__":
    report = run_benchmark()
    print(json.dumps(report, indent=2, sort_keys=True))
