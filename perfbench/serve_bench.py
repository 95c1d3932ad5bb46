"""The serve workloads: ``repro serve`` under an open-loop generator.

The daemon runs as its own process; this process is the single-threaded
generator (one socket per step, no threads). The two talk over the
host's loopback interface, not a real link.

An untraced run starts the daemon several times. Each daemon gets a
warm-up and then one fixed-rate step at the workload's stated offered
rate. The last one then gets a capacity search: the highest offered
rate whose step meets the latency limit. Each start gives a set-up
sample.

A traced run sends the same fixed schedule to an untraced daemon and
to a daemon with layer spans installed (``serve_main.py``). The
counters come from the daemon's own ``--metrics-out`` document at drain.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import random
import socket
import statistics
import time

import speed
from daemon import Daemon, udp_drops
from dnswire import (
    RCODE_NXDOMAIN,
    question_bytes,
    render_query,
)
from loadgen import Query, StepResult, run_step

#: The zone the daemon serves (``repro.transport.serve.DEFAULT_SLD``).
SLD = "ucfsealresearch.net"

#: A query with no correct reply this long after it was due fails. It
#: sits above the daemon's 2 s upstream timeout, so a resolution that
#: times out upstream comes back as a SERVFAIL (a failure) before the
#: client gives up, and is not mistaken for a slow answer.
CLIENT_DEADLINE_S = 2.5
#: A capacity step passes when p99 latency stays within this limit ...
LATENCY_LIMIT_MS = 50.0
#: ... at most this share of its queries fail ...
MAX_ERROR_RATE = 0.001
#: ... and the median of its last tenth stays within the limit too.
BACKLOG_TAIL = 10
#: Every step holds at least this many queries, so p99 has ten beyond it.
MIN_STEP_QUERIES = 1000
#: Capacity-search step growth until the first failure, and the bracket
#: width at which the bisection stops.
SEARCH_GROWTH = 1.5
SEARCH_WIDTH = 1.04
#: An untraced run starts fresh daemons for this share of its time (at
#: least ``MIN_ROUNDS`` of them) and gives the rest to the search.
ROUND_SHARE = 0.6
MIN_ROUNDS = 3
#: Warm-up queries per daemon, sent at ``WARMUP_RATE``; not timed.
WARMUP_QUERIES = 300
WARMUP_RATE = 300.0


@dataclasses.dataclass(frozen=True)
class ServeWorkload:
    name: str
    rate: float      # the stated offered rate for p50_ms and p99_ms
    queries: int     # queries in that fixed-rate step
    step_s: float    # length of one capacity-search step


WORKLOADS = {
    workload.name: workload for workload in (
        ServeWorkload(name="serve_miss", rate=300.0, queries=1020,
                      step_s=1.0),
    )
}


class QueryFactory:
    """Seeded, never-repeated names under the SLD; each must be NXDOMAIN."""

    def __init__(self, seed: int) -> None:
        self.prefix = f"{random.Random(seed).getrandbits(32):08x}"
        self.serial = 0

    def make(self, count: int) -> list[Query]:
        queries = []
        for _ in range(count):
            self.serial += 1
            question = question_bytes(f"wt-{self.prefix}-{self.serial:x}.{SLD}")
            queries.append(Query(render_query(question), question,
                                 RCODE_NXDOMAIN))
        return queries


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def step_latencies(step: StepResult) -> list[float]:
    """Per-query latency with every failure counted as a miss (inf)."""
    return step.latencies_ms + [math.inf] * step.failed


def step_passes(step: StepResult) -> bool:
    """p99 within the limit, errors within budget, and no growing backlog."""
    if step.error_rate > MAX_ERROR_RATE:
        return False
    if percentile(step_latencies(step), 0.99) > LATENCY_LIMIT_MS:
        return False
    tail = step.latencies_ms[-max(1, len(step.latencies_ms) // BACKLOG_TAIL):]
    return statistics.median(tail) <= LATENCY_LIMIT_MS


@dataclasses.dataclass
class StepRecord:
    """One step as the report prints it."""

    label: str
    result: StepResult
    daemon_drops: int
    generator_drops: int

    def line(self) -> str:
        step = self.result
        latencies = step_latencies(step)
        return (
            f"  {self.label:<7} offered {step.rate:7.0f} q/s "
            f"n={step.attempted:<6d} failed={step.failed:<5d} "
            f"p50={percentile(latencies, 0.5):8.3f} ms "
            f"p99={percentile(latencies, 0.99):8.3f} ms "
            f"lag_p99={percentile(step.lag_ms, 0.99):6.3f} ms "
            f"drops={self.daemon_drops}/{self.generator_drops} "
            f"{'pass' if step_passes(step) else 'FAIL'}"
        )


class Session:
    """One daemon, and the generator's bookkeeping against it."""

    def __init__(self, daemon: Daemon, factory: QueryFactory) -> None:
        self.daemon = daemon
        self.factory = factory
        self.steps: list[StepRecord] = []

    def step(self, label: str, rate: float, count: int) -> StepResult:
        generator_drops = []

        def read_generator_drops(sock: socket.socket) -> None:
            generator_drops.append(
                udp_drops({str(os.fstat(sock.fileno()).st_ino)}))

        before = self.daemon.kernel_drops()
        result = run_step(self.daemon.address, self.factory.make(count), rate,
                          CLIENT_DEADLINE_S, on_socket=read_generator_drops)
        self.steps.append(StepRecord(
            label, result, self.daemon.kernel_drops() - before,
            generator_drops[0]))
        return result

    def fixed_schedule(self, workload: ServeWorkload) -> StepResult:
        """Warm-up, then the fixed-rate step; returns the latter."""
        self.step("warm-up", WARMUP_RATE, WARMUP_QUERIES)
        return self.step("fixed", workload.rate, workload.queries)


def capacity_search(session: Session, workload: ServeWorkload,
                    fixed_passed: bool, until: float) -> float:
    """Highest offered rate whose step passes; 0 if none did.

    From the fixed rate, grows the rate by ``SEARCH_GROWTH`` until a
    step fails (or shrinks it until one passes), then bisects the
    bracket at its geometric midpoint until it is narrower than
    ``SEARCH_WIDTH``, or until a further step could end after ``until``.
    """
    low, high = ((workload.rate, None) if fixed_passed
                 else (None, workload.rate))
    while low is None or high is None or high / low > SEARCH_WIDTH:
        if low is None:
            rate = high / SEARCH_GROWTH
        elif high is None:
            rate = low * SEARCH_GROWTH
        else:
            rate = math.sqrt(low * high)
        if time.monotonic() + workload.step_s + CLIENT_DEADLINE_S > until:
            break
        count = max(MIN_STEP_QUERIES, int(rate * workload.step_s))
        if step_passes(session.step("search", rate, count)):
            low = rate
        else:
            high = rate
    return low or 0.0


def _drained(daemon: Daemon, work):
    """``work(daemon)``, then the daemon's drain document (kill on error)."""
    try:
        outcome = work(daemon)
    except BaseException:
        daemon.kill()
        raise
    return outcome, daemon.stop()


def _counted(steps: list[StepRecord]) -> tuple[int, int]:
    """Attempted and failed queries over the non-search steps."""
    kept = [record.result for record in steps if record.label != "search"]
    return (sum(step.attempted for step in kept),
            sum(step.failed for step in kept))


def run_untraced(repo: pathlib.Path, workdir: pathlib.Path,
                 workload: ServeWorkload, seed: int, seconds: float) -> dict:
    """Daemon rounds for ``ROUND_SHARE`` of the time, then the search.

    Every round starts a fresh daemon (a set-up sample) and gives it the
    fixed schedule; the last round's daemon then runs the capacity
    search until the run's time is up. The daemon's CPU seconds over the
    fixed schedule, less its speed sampler's own, are its busy time.
    Busy and set-up times are corrected for host speed with the samples
    the daemon took over the same interval.
    """
    started = time.monotonic()
    until = started + seconds
    factory = QueryFactory(seed)
    rounds, fixed_latencies, rss, steps = [], [], [], []
    max_qps = None
    while max_qps is None:
        round_started = time.monotonic()
        daemon = Daemon(repo, workdir, f"{workload.name}-{len(rounds)}")
        session = Session(daemon, factory)

        def work(daemon: Daemon):
            cpu_before, window_start = daemon.cpu_s(), time.monotonic()
            fixed = session.fixed_schedule(workload)
            cpu = daemon.cpu_s() - cpu_before
            window = (window_start, time.monotonic())
            rss.append(daemon.peak_rss_mb())
            now = time.monotonic()
            if len(rounds) + 1 < MIN_ROUNDS or (
                now + (now - round_started) < started + ROUND_SHARE * seconds
            ):
                return fixed, cpu, window, None
            return fixed, cpu, window, capacity_search(
                session, workload, step_passes(fixed), until)

        (fixed, cpu, window, max_qps), _ = _drained(daemon, work)
        latencies = step_latencies(fixed)
        fixed_latencies.extend(latencies)
        samples = daemon.speed_samples
        busy = cpu - sum(took for at, took in samples
                         if window[0] <= at <= window[1])
        rounds.append({
            "setup_s": daemon.setup_s,
            "setup_corrected_s": speed.corrected(
                daemon.setup_s,
                speed.mean_between(samples, daemon.started, daemon.ready)),
            "busy_s": busy,
            "busy_corrected_s": speed.corrected(
                busy, speed.mean_between(samples, *window)),
            "p50_ms": percentile(latencies, 0.5),
        })
        steps.extend(session.steps)
    attempted, failed = _counted(steps)

    def median(key: str) -> float:
        return statistics.median(entry[key] for entry in rounds)

    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "setup_s": median("setup_s"),
        "setup_corrected_s": median("setup_corrected_s"),
        "busy_s": median("busy_s"),
        "busy_corrected_s": median("busy_corrected_s"),
        "p50_ms": median("p50_ms"),
        "p99_ms": percentile(fixed_latencies, 0.99),
        "latency_samples": len(fixed_latencies),
        "max_qps": max_qps,
        "peak_rss_mb": max(rss),
        "steps": steps,
    }


def run_traced(repo: pathlib.Path, workdir: pathlib.Path,
               workload: ServeWorkload, seed: int) -> tuple[dict, dict]:
    """The fixed schedule on an untraced and on a traced daemon.

    Both daemons see the same queries. Their CPU seconds over the
    schedule stand in for wall time: the daemon idles between queries.
    """
    trace_out = workdir / f"trace-{workload.name}.json"
    busy, documents, sessions = {}, {}, {}
    for traced in (False, True):
        daemon = Daemon(repo, workdir, f"{workload.name}-t{int(traced)}",
                        mode="trace" if traced else "plain",
                        trace_out=trace_out)
        session = Session(daemon, QueryFactory(seed))

        def work(daemon: Daemon) -> float:
            start = daemon.cpu_s()
            session.fixed_schedule(workload)
            return daemon.cpu_s() - start

        busy[traced], documents[traced] = _drained(daemon, work)
        sessions[traced] = session
    spans = json.loads(trace_out.read_text())
    counters = documents[True]["counters"]
    self_s = spans["self_s"]
    queries = counters["serve.client_queries"]
    lookups = spans["counters"].get("cache_lookups", 0)
    steps = sessions[True].steps
    metrics = {
        "dnslib.wire.self_s": self_s.get("dnslib.wire", 0.0),
        "dnslib.wire.calls_per_query":
            spans["calls"].get("dnslib.wire", 0) / queries,
        "dnssrv.cache.hit_ratio":
            spans["counters"].get("cache_hits", 0) / lookups if lookups else 0.0,
        "dnssrv.recursive.self_s": self_s.get("dnssrv.recursive", 0.0),
        "dnssrv.recursive.upstream_per_query":
            counters["serve.upstream_queries"] / queries,
        "dnssrv.recursive.servfail": counters["serve.servfail"],
        "dnssrv.delegation.self_s": self_s.get("dnssrv.delegation", 0.0),
        "dnssrv.auth.self_s": self_s.get("dnssrv.auth", 0.0),
        "transport.socketio.send_s": self_s.get("transport.socketio.send", 0.0),
        "transport.socketio.recv_s": self_s.get("transport.socketio.recv", 0.0),
        "transport.socketio.datagrams_per_query":
            (counters["udp.received"] + counters["udp.sent"]) / queries,
        "udp.kernel_drops": sum(record.daemon_drops for record in steps),
        "loadgen.lag_p99_ms": percentile(
            [lag for record in steps for lag in record.result.lag_ms], 0.99),
        "loadgen.sent": sum(record.result.attempted for record in steps),
        "loadgen.kernel_drops": sum(record.generator_drops for record in steps),
        "trace.uncovered_s": busy[True] - sum(self_s.values()),
        "trace.overhead_s": busy[True] - busy[False],
    }
    attempted, failed = _counted(sessions[False].steps + steps)
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy[True],
        "untraced_busy_s": busy[False],
        "steps": steps,
    }
    return outcome, metrics
