"""Loopback serving throughput: queries/second through ``repro serve``.

Measures the live daemon end to end — real UDP sockets, the asyncio
reader loop, the recursive resolver, the in-process hierarchy — from a
plain blocking client on the same host. The figure is wall-clock
queries/second over a mixed fixture workload (cache-miss walks plus
cache-hit answers), which is what the daemon actually sustains, not a
codec microbenchmark.

Publishes machine-readable ``BENCH_serve.json`` (results/ and repo
root, the ``BENCH_*.json`` convention); the ``current`` record carries
a host note (cores, Python, calibration score). Unlike the seeded simulator
records this one *is* a timing, so the regression gate is generous
(50%): it catches an accidental O(n) in the serving path, not CI noise.
The gate skips cleanly on a fresh clone with no committed baseline.
"""

import json
import socket
import time

from repro.dnslib.fastwire import build_query_wire
from repro.transport.serve import DEFAULT_SLD, DnsService, ServeConfig
from benchmarks.conftest import (
    host_note,
    load_bench_record,
    publish_bench_record,
    write_result,
)

QUERIES = 2000
REGRESSION_TOLERANCE = 0.50


def measure_loopback_qps(queries: int = QUERIES) -> dict:
    service = DnsService(ServeConfig(port=0, drain_grace=1.0))
    endpoint = service.start()
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(5.0)
    client.bind(("127.0.0.1", 0))
    names = [f"www.{DEFAULT_SLD}", f"api.{DEFAULT_SLD}", f"mail.{DEFAULT_SLD}"]
    wires = [
        build_query_wire(names[index % len(names)], msg_id=index % 0xFFFF + 1)
        for index in range(queries)
    ]
    answered = 0
    try:
        started = time.perf_counter()
        for wire in wires:
            client.sendto(wire, (endpoint.ip, endpoint.port))
            client.recvfrom(65535)
            answered += 1
        elapsed = time.perf_counter() - started
    finally:
        client.close()
        service.stop()
    counters = service.hub.registry.snapshot().counters
    return {
        "queries": queries,
        "answered": answered,
        "elapsed_s": round(elapsed, 4),
        "queries_per_sec": round(answered / elapsed, 1),
        "auth_queries_served": counters.get("auth.queries_served", 0),
        "udp_datagrams": counters.get("udp.received", 0),
    }


def run_benchmark() -> dict:
    """Measure, merge with the committed baseline, write the JSON."""
    current = measure_loopback_qps()
    current["host"] = host_note()
    # Missing or corrupt committed record (first run on a fresh clone)
    # degrades to "no baseline": the measurement is recorded and the
    # regression gate skips instead of erroring.
    record = load_bench_record("serve") or {"benchmark": "serve"}
    record["current"] = current
    baseline = record.get("baseline")
    if baseline is not None and baseline.get("queries_per_sec"):
        record["speedup_vs_baseline"] = round(
            current["queries_per_sec"] / baseline["queries_per_sec"], 2
        )
    publish_bench_record("serve", record)
    return record


def test_serve_loopback_benchmark(results_dir):
    import pytest

    record = run_benchmark()
    current = record["current"]
    assert current["answered"] == current["queries"]
    # Every query crossed the real wire and the first of each name
    # walked the hierarchy; the rest answered from cache.
    assert current["auth_queries_served"] >= 3
    write_result(
        results_dir, "serve_loopback.txt",
        "Live daemon loopback throughput\n\n"
        f"  {current['queries']} queries in {current['elapsed_s']}s "
        f"-> {current['queries_per_sec']:,} q/s",
    )
    baseline = record.get("baseline")
    if baseline is None:
        pytest.skip(
            "no committed serve baseline (fresh clone); "
            "first measurement recorded"
        )
    reference = baseline.get("queries_per_sec")
    if reference:
        floor = reference * (1.0 - REGRESSION_TOLERANCE)
        assert current["queries_per_sec"] >= floor, (
            f"serving regression: {current['queries_per_sec']:.0f} q/s is "
            f"more than {REGRESSION_TOLERANCE:.0%} below the committed "
            f"baseline of {reference:.0f} q/s"
        )


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2, sort_keys=True))
