"""The repository benchmark: campaign wall time and daemon cost and latency.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. ``--trace 0`` measures the workload for
about ``S`` seconds and prints the end-to-end metrics; ``--trace 1``
runs the workload untraced and with layer spans installed, and prints
the per-layer metrics. Metric names and units come from
``BENCHMARK.json``. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import campaign_bench  # noqa: E402
import serve_bench  # noqa: E402
from workloads import CAMPAIGNS  # noqa: E402

#: Iterations of the calibration loop; its rate stamps the host.
CALIBRATION_ITERATIONS = 300_000


def calibration_mops() -> float:
    """Millions of iterations per second of a fixed loop (best of 5)."""
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        value = 0
        for index in range(CALIBRATION_ITERATIONS):
            value = (value * 31 + index) & 0xFFFFFFF
        best = min(best, time.perf_counter() - started)
    return CALIBRATION_ITERATIONS / best / 1e6


def host_stamp() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_mops": round(calibration_mops(), 3),
        "link": "loopback",
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def campaign(workload: str, seed: int, seconds: float, trace: bool,
             workdir: pathlib.Path) -> tuple[dict, dict, list[str]]:
    if trace:
        outcome, metrics = campaign_bench.run_traced(REPO, workload, seed,
                                                     workdir)
        lines = [
            f"  traced wall {outcome['wall_s']:.3f} s, untraced (mean of the "
            f"runs before and after) {outcome['untraced_wall_s']:.3f} s, "
            "worker span files "
            f"{outcome['worker_processes']}",
        ]
        return outcome, metrics, lines
    run = campaign_bench.run_untraced(REPO, workload, seed, seconds)
    count = len(run["walls"])
    walls = ", ".join(f"{wall:.3f}" for wall in run["walls"])
    lines = [
        f"  busy_s       {run['wall_corrected_s']:.4f} s corrected, "
        f"{run['wall_s']:.4f} s raw (Campaign.run wall time, median of "
        f"{count} runs: {walls})",
        f"  wall_s       {run['wall_s']:.4f} s raw (the same runs)",
        f"  setup_s      {run['setup_corrected_s']:.4f} s corrected, "
        f"{run['setup_s']:.4f} s raw (median of {count} process starts)",
        f"  peak_rss_mb  {run['peak_rss_mb']:.1f} MB",
        f"  error_rate   {run['failed'] / run['attempted']:.4f}   "
        f"({run['failed']} of {run['attempted']} runs with wrong report "
        "bytes)",
        "  p50_ms       n/a (no offered load; a run is one operation)",
        "  p99_ms       n/a (no offered load)",
        f"  max_qps      n/a (no offered load; scan rate "
        f"{run['q1'] / run['wall_s']:,.0f} probes/s of raw wall)",
    ]
    metrics = {
        "busy_s": run["wall_corrected_s"],
        "setup_s": run["setup_corrected_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return run, metrics, lines


def serve(workload_name: str, seed: int, seconds: float, trace: bool,
          workdir: pathlib.Path) -> tuple[dict, dict, list[str]]:
    workload = serve_bench.WORKLOADS[workload_name]
    if trace:
        outcome, metrics = serve_bench.run_traced(REPO, workdir, workload,
                                                  seed)
        lines = [record.line() for record in outcome["steps"]]
        lines.append(
            f"  daemon CPU over the schedule: traced {outcome['busy_s']:.3f}"
            f" s, untraced {outcome['untraced_busy_s']:.3f} s")
        return outcome, metrics, lines
    run = serve_bench.run_untraced(REPO, workdir, workload, seed, seconds)
    queries = serve_bench.WARMUP_QUERIES + workload.queries
    lines = [record.line() for record in run["steps"]]
    lines += [
        f"  busy_s       {run['busy_corrected_s']:.4f} s corrected, "
        f"{run['busy_s']:.4f} s raw (daemon CPU for {queries} queries, "
        f"median of {run['rounds']} daemons)",
        "  wall_s       n/a (the daemon runs until stopped)",
        f"  setup_s      {run['setup_corrected_s']:.4f} s corrected, "
        f"{run['setup_s']:.4f} s raw (median of {run['rounds']} daemon "
        "starts)",
        f"  peak_rss_mb  {run['peak_rss_mb']:.1f} MB  (daemon VmHWM after "
        "the fixed-rate step)",
        f"  error_rate   {run['failed'] / run['attempted']:.5f}   "
        f"({run['failed']} of {run['attempted']} warm-up and fixed-rate "
        "queries)",
        f"  p50_ms       {run['p50_ms']:.4f} ms raw at {workload.rate:.0f} "
        f"q/s offered (median of {run['rounds']} daemons' medians)",
        f"  p99_ms       {run['p99_ms']:.4f} ms raw at {workload.rate:.0f} "
        f"q/s offered ({run['latency_samples']} samples)",
        f"  max_qps      {run['max_qps']:.0f} q/s  (p99 <= "
        f"{serve_bench.LATENCY_LIMIT_MS:.0f} ms, errors <= "
        f"{serve_bench.MAX_ERROR_RATE:.1%}, no growing backlog)",
    ]
    metrics = {
        "busy_s": run["busy_corrected_s"],
        "setup_s": run["setup_corrected_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return run, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*CAMPAIGNS, *serve_bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {REPO / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    host = host_stamp()
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(dir=work_root))
    try:
        runner = campaign if args.workload in CAMPAIGNS else serve
        outcome, measured, lines = runner(args.workload, args.seed,
                                          args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace and set(declared) - set(measured):
        raise RuntimeError(f"unmeasured: {set(declared) - set(measured)}")
    # Per-layer metrics of layers a workload does not run read 0.
    metrics = {
        name: {"value": measured.get(name, 0), "unit": unit}
        for name, unit in declared.items()
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"host {json.dumps(host, sort_keys=True)}")
    for line in lines:
        print(line)
    if trace:
        for name, metric in metrics.items():
            print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
