"""Sharded parallel campaign engine with crash-tolerant execution.

The paper's scan covers the routable IPv4 space from one box; ZMap's
cyclic-group permutation is what makes that embarrassingly parallel:
any strided slice of the permutation is itself a uniform sample of the
space. This module partitions the campaign universe into ``N``
deterministic shards — shard ``i`` probes ``universe[i::N]`` at
``rate/N`` — runs each shard as an independent :class:`Prober` +
:class:`Network` discrete-event simulation (in a
``ProcessPoolExecutor`` worker when the platform allows, in-process
otherwise), and merges the per-shard captures and flows into a single
:class:`CampaignResult`.

Determinism contract (see DESIGN.md §6): for a given
``(seed, scale, year)`` and ``loss_rate == 0`` the merged run renders
Tables II–X byte-identically to the serial run, for any worker count.
The guarantee holds because

- the population is sampled once per (seed, scale, year) from the full
  universe, identically in every worker, and each host lands in
  exactly one shard (the one probing its address);
- resolver behavior is a deterministic function of the spec and the
  query, so per-probe outcomes do not depend on interleaving (the auth
  server retains every installed cluster zone for exactly this reason:
  a reused subdomain must resolve the same whenever its Q2 lands);
- each shard paces ``1/N`` of the probes at ``rate/N``, so the merged
  scan spans the same wall clock as the serial scan;
- analysis tables are order-independent: each shard mints qnames from
  a private slice of the cluster namespace (so merged flows union
  collision-free), and every analyzer sorts on content, never on
  arrival order.

Per-shard randomness (latency draws, fault schedules) is seeded by the
derivation rule ``derive_seed(seed, index, workers)`` — shards never
replay each other's streams, and a *re-run* shard replays exactly its
own. That second property is the failure-domain story: a shard worker
that crashes or is killed is requeued up to
``config.max_shard_retries`` times, and because the re-run is
byte-identical, recovery is invisible in the merged tables. Shards
that exhaust their retries are reported in the result's ``degraded``
manifest instead of aborting the campaign, and every completed shard
can be checkpointed to disk (``checkpoint_dir=``) so an interrupted
campaign resumes by re-executing only the missing shards
(``resume=True``).

With ``loss_rate > 0`` the sharded run is statistically, but not
byte-for-byte, equivalent to the serial run (loss coin-flips land on
different packets). The same holds for the stochastic parts of a fault
profile — but blackholed addresses are identical at every worker
count, because their selection hashes the address, not the shard.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import pathlib
import pickle
import warnings

from repro.dnssrv.auth import QueryLogEntry
from repro.dnssrv.hierarchy import (
    AUTH_IP,
    ROOT_IP,
    TLD_IP,
    build_hierarchy,
)
from repro.netsim.faults import build_injector, fault_profile
from repro.netsim.ipv4 import ip_to_int
from repro.netsim.latency import LogNormalLatency
from repro.netsim.loss import BernoulliLoss
from repro.netsim.network import Network
from repro.netsim.seeds import derive_seed
from repro.prober.capture import FlowSet, join_flows, merge_flow_sets
from repro.prober.probe import (
    PROBER_IP,
    ProbeCapture,
    ProbeConfig,
    Prober,
    merge_captures,
)
from repro.prober.subdomain import SubdomainScheme
from repro.prober.zmap import probe_list
from repro.resolvers.apportion import scale_count
from repro.resolvers.population import (
    PopulationSampler,
    ResolverAssignment,
    SampledPopulation,
    assign_transparent_forwarders,
    deploy_forwarder_upstreams,
)
from repro.resolvers.profiles import profile_for_year
from repro.stream.aggregate import TableAggregate, merge_aggregates
from repro.stream.assembler import StreamStats
from repro.stream.pipeline import StreamPipeline
from repro.telemetry.hub import (
    TelemetryConfig,
    TelemetryHub,
    TelemetrySnapshot,
    as_hub,
    maybe_span,
)

#: Chaos-testing hooks, read by every shard worker (the environment
#: crosses the process boundary, so they work under both inline and
#: pool execution). Format: ``"index:count,index:count"`` — shard
#: ``index`` fails while its attempt number is below ``count``.
#: ``REPRO_CHAOS_RAISE`` raises inside the worker (a crashing shard);
#: ``REPRO_CHAOS_EXIT`` hard-kills the worker process with
#: ``os._exit`` (a dying worker — only use under process parallelism,
#: inline execution would take the whole interpreter down).
CHAOS_RAISE_ENV = "REPRO_CHAOS_RAISE"
CHAOS_EXIT_ENV = "REPRO_CHAOS_EXIT"


class ShardExecutionError(RuntimeError):
    """A shard worker failed.

    Carries the shard coordinates and the derived seed so the failure
    is reproducible from the message alone:
    ``run_shard(ShardTask(config, index=i, workers=n))`` replays the
    exact simulation, faults included.
    """

    def __init__(self, index: int, workers: int, seed: int, message: str) -> None:
        super().__init__(
            f"shard {index}/{workers} failed (derived seed {seed:#x}; "
            f"reproduce with run_shard(ShardTask(config, index={index}, "
            f"workers={workers}))): {message}"
        )
        self.index = index
        self.workers = workers
        self.seed = seed
        self.message = message

    def __reduce__(self):  # exceptions with extra args need explicit pickling
        return (ShardExecutionError, (self.index, self.workers, self.seed, self.message))


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One worker's assignment: which slice of which campaign.

    Small by construction — workers rebuild the universe and the
    population from the config instead of unpickling them, except for
    an explicit ``population_override`` (an evolved world cannot be
    re-derived from the seed). ``attempt`` counts previous failures of
    this shard; it never feeds the seed derivation, so a requeued shard
    re-runs byte-identically.
    """

    config: "CampaignConfig"  # noqa: F821 - imported lazily to avoid a cycle
    index: int
    workers: int
    population_override: SampledPopulation | None = None
    attempt: int = 0
    #: Optional observability config (picklable, crosses the process
    #: boundary); the worker builds its own TelemetryHub from it and
    #: ships the snapshot back on the outcome. Deliberately not part
    #: of CampaignConfig — it never shapes shard bytes.
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not 0 <= self.index < self.workers:
            raise ValueError(f"shard index {self.index} outside [0, {self.workers})")


@dataclasses.dataclass
class ShardOutcome:
    """What one shard ships back to the parent for merging.

    A streaming shard (``config.mode == "stream"``) also carries its
    folded :class:`TableAggregate` — with ``drop_captures`` that is
    essentially *all* it carries: ``capture.r2_records``, ``flow_set``
    and ``query_log`` come back empty, so shard checkpoints persist
    accumulator state instead of raw packets and ``--resume`` stays
    cheap at any probe count.
    """

    index: int
    capture: ProbeCapture
    flow_set: FlowSet
    query_log: list[QueryLogEntry]
    aggregate: TableAggregate | None = None
    stream_stats: StreamStats | None = None
    #: Per-shard telemetry snapshot (metrics + spans + heartbeats),
    #: merged into the parent hub; ~KBs, so checkpoints stay cheap.
    telemetry: TelemetrySnapshot | None = None


def shard_universe(universe: list[int], index: int, workers: int) -> list[int]:
    """Shard ``index``'s strided slice of the probe universe."""
    return universe[index::workers]


def shard_assignments(
    assignments: list[ResolverAssignment], addresses: list[int]
) -> list[ResolverAssignment]:
    """The hosts probed by a shard whose slice is ``addresses``.

    Keeps population order, so a shard deploys its hosts exactly as a
    filter over the full population would. The cost is one dotted-quad
    conversion per *host* plus one C-level membership pass over the
    slice; the slice itself is never rendered to strings, so a worker's
    setup scales with its hosts, not with the universe.
    """
    host_ints = [ip_to_int(assignment.ip) for assignment in assignments]
    in_slice = set(host_ints).intersection(addresses)
    return [
        assignment
        for assignment, address in zip(assignments, host_ints)
        if address in in_slice
    ]


def cluster_namespace_slice(index: int, workers: int) -> tuple[int, int]:
    """Shard ``index``'s private ``[base, limit)`` cluster-number range.

    Disjoint ranges make every shard's qnames globally unique without
    any cross-shard coordination, which keeps merged flows join-safe
    and persisted datasets rejoinable offline. With subdomain reuse a
    shard opens only a handful of clusters, so even a thin slice of the
    1000-cluster namespace is roomy.
    """
    max_clusters = SubdomainScheme().max_clusters
    span = max_clusters // workers
    if span == 0:
        raise ValueError(
            f"{workers} workers cannot share a {max_clusters}-cluster namespace"
        )
    return index * span, (index + 1) * span


def checkpoint_fingerprint(config) -> dict:
    """The config fields that shape shard bytes, for manifest matching.

    ``max_shard_retries`` is deliberately excluded: retrying harder is
    a legitimate thing to change between a crash and its resume. So is
    ``engine``: the pool and multicore engines produce byte-identical
    shard outcomes, so a campaign checkpointed under one resumes under
    the other.
    """
    fingerprint = dataclasses.asdict(config)
    fingerprint.pop("max_shard_retries", None)
    fingerprint.pop("engine", None)
    return fingerprint


#: Single-slot memo for the campaign universe: (key, list). The walk
#: over the ZMap permutation is a pure function of (seed, year, scale)
#: and every shard needs the *full* list (the population sampler draws
#: host addresses across the whole universe), so recomputing it per
#: worker is pure fixed cost. The multicore engine primes this slot
#: before forking, and fork children inherit the materialized list for
#: free. The cached list is never mutated — shards slice it, samplers
#: read it.
_universe_cache: tuple[tuple, list[int]] | None = None


def _campaign_universe(config) -> list[int]:
    global _universe_cache
    key = (config.seed, config.year, config.scale)
    cached = _universe_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    profile = profile_for_year(config.year)
    q1_target = scale_count(profile.q1_full, config.scale)
    universe = probe_list(seed=config.seed, limit=q1_target)
    _universe_cache = (key, universe)
    return universe


#: Single-slot memo for the sampled world: (key, (population,
#: software_map, banners, validators)). Like the universe, the sampled
#: population and its intel overlays are pure functions of the config
#: (the infrastructure exclusion set is module constants), identical
#: for every shard — and sampling walks the whole universe, so it is
#: the other O(universe) fixed cost a worker would otherwise pay per
#: process. The cached state is read-only after construction: the
#: transparent-forwarder overlay (the one in-place mutation) is
#: applied exactly once before the value enters the cache, assignments
#: and specs are frozen dataclasses, and ``deploy`` builds fresh
#: per-network hosts — so shards in one process (inline engines) and
#: fork children (multicore) can all share it without byte drift.
_world_cache: tuple[tuple, tuple] | None = None


def _campaign_world(config, universe) -> tuple:
    """(population, software_map, banners, validators) for ``config``."""
    global _world_cache
    key = (
        config.seed, config.year, config.scale,
        config.fingerprinting, config.dnssec,
    )
    cached = _world_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    infrastructure = {ROOT_IP, TLD_IP, AUTH_IP, PROBER_IP}
    population = PopulationSampler(
        profile_for_year(config.year),
        scale=config.scale,
        seed=config.seed,
        excluded_ips=infrastructure,
        universe=universe,
    ).sample()
    software_map: dict[str, object] = {}
    banners: dict[str, str | None] = {}
    if config.fingerprinting:
        from repro.fingerprint.identities import assign_software

        software_map = assign_software(population, seed=config.seed)
        banners = {ip: identity.banner for ip, identity in software_map.items()}
    validators: set[str] = set()
    if config.dnssec:
        from repro.dnssec.census import assign_validators

        validators = assign_validators(
            population, year=config.year, seed=config.seed
        )
    # Transparent-forwarder overlay, exactly as the serial engine
    # applies it: an independent seeded lane, so every shard and the
    # parent see the same hosts flipped to the same upstreams.
    assign_transparent_forwarders(population, seed=config.seed)
    world = (population, software_map, banners, validators)
    _world_cache = (key, world)
    return world


def prime_shard_caches(
    config, population_override: SampledPopulation | None = None
) -> None:
    """Materialize the config-pure shared state (universe + world).

    The multicore engine calls this in the parent before forking so
    children inherit both O(universe) artifacts — the permutation walk
    and the sampled population — instead of recomputing them per
    worker. The universe is config-pure even when an evolved world
    overrides the population, so it is primed in every case; only the
    world memo is skipped then (the override replaces it).
    """
    universe = _campaign_universe(config)
    if population_override is None:
        _campaign_world(config, universe)


def _build_world(config, network: Network, universe, population_override=None):
    """Hierarchy + full population + intel maps, as the serial run builds them.

    Returns (hierarchy, population, software_map, banners, validators).
    Deterministic in (seed, scale, year): every shard and the parent
    compute identical worlds, so behavior does not depend on which
    process deploys which host.
    """
    hierarchy = build_hierarchy(network)
    if population_override is not None:
        # An evolved world bypasses the cache: it is not derivable from
        # the config, and its overlay was applied when it was built.
        population = population_override
        software_map: dict[str, object] = {}
        banners: dict[str, str | None] = {}
        if config.fingerprinting:
            from repro.fingerprint.identities import assign_software

            software_map = assign_software(population, seed=config.seed)
            banners = {
                ip: identity.banner
                for ip, identity in software_map.items()
            }
        validators: set[str] = set()
        if config.dnssec:
            from repro.dnssec.census import assign_validators

            validators = assign_validators(
                population, year=config.year, seed=config.seed
            )
        assign_transparent_forwarders(population, seed=config.seed)
        return hierarchy, population, software_map, banners, validators
    population, software_map, banners, validators = _campaign_world(
        config, universe
    )
    return hierarchy, population, software_map, banners, validators


def _chaos_fail_count(env_name: str, index: int) -> int:
    """Parse a chaos directive: how many attempts shard ``index`` fails."""
    for part in os.environ.get(env_name, "").split(","):
        part = part.strip()
        if not part:
            continue
        shard, _, count = part.partition(":")
        if int(shard) == index:
            return int(count) if count else 1
    return 0


def _dump_flight_recorder(
    hub: TelemetryHub | None, task: ShardTask, reason: str
) -> None:
    """Post-mortem: write the shard's last-N wire events to disk.

    Fires when a shard worker fails or a chaos hook raises; a
    hard-killed worker (``REPRO_CHAOS_EXIT``) gets no dump — nothing
    survives ``os._exit``, which is the point of that chaos mode.
    Dump failures are swallowed: post-mortem telemetry must never turn
    a recoverable shard crash into an unrecoverable one.
    """
    if hub is None or hub.config.flight_dump_dir is None:
        return
    target = (
        pathlib.Path(hub.config.flight_dump_dir)
        / f"flight_shard_{task.index:04d}_attempt{task.attempt}.json"
    )
    try:
        hub.recorder.dump(target, reason=reason)
    except OSError:
        pass


def run_shard(task: ShardTask, event_batch: int | None = None) -> ShardOutcome:
    """Execute one shard's scan to completion (worker entry point).

    Top-level and argument-picklable so it can run under
    ``ProcessPoolExecutor`` with either the fork or spawn start method.
    Any failure is re-raised as :class:`ShardExecutionError` carrying
    the shard index and derived seed, so the crash is reproducible from
    the error message alone. When the task carries a telemetry config
    with a ``flight_dump_dir``, any failure (chaos hooks included) also
    dumps the shard's flight-recorder window there for post-mortem.

    ``event_batch`` (the multicore engine's batched-dispatch knob)
    drains the scheduler in fixed-size event batches; the event order —
    and therefore every shipped byte — is identical to the unbounded
    drain.
    """
    shard_seed = derive_seed(task.config.seed, task.index, task.workers)
    hub: TelemetryHub | None = None
    if task.telemetry is not None and task.telemetry.enabled:
        hub = TelemetryHub(task.telemetry)
    if task.attempt < _chaos_fail_count(CHAOS_RAISE_ENV, task.index):
        _dump_flight_recorder(
            hub, task, f"injected chaos failure ({CHAOS_RAISE_ENV})"
        )
        raise ShardExecutionError(
            task.index, task.workers, shard_seed,
            f"injected chaos failure ({CHAOS_RAISE_ENV})",
        )
    if task.attempt < _chaos_fail_count(CHAOS_EXIT_ENV, task.index):
        os._exit(13)
    try:
        return _run_shard_scan(task, shard_seed, hub, event_batch=event_batch)
    except ShardExecutionError as exc:
        _dump_flight_recorder(hub, task, str(exc))
        raise
    except Exception as exc:
        _dump_flight_recorder(hub, task, f"{type(exc).__name__}: {exc}")
        raise ShardExecutionError(
            task.index, task.workers, shard_seed,
            f"{type(exc).__name__}: {exc}",
        ) from exc


def _run_shard_scan(
    task: ShardTask,
    shard_seed: int,
    hub: TelemetryHub | None = None,
    event_batch: int | None = None,
) -> ShardOutcome:
    config = task.config
    profile = profile_for_year(config.year)
    loss = BernoulliLoss(config.loss_rate) if config.loss_rate else None
    network = Network(
        seed=shard_seed,
        latency=LogNormalLatency(median=config.latency_median, sigma=0.5),
        loss=loss,
    )
    if hub is not None:
        hub.tracer.clock = lambda: network.scheduler.now
    universe = _campaign_universe(config)
    hierarchy, population, _, banners, validators = _build_world(
        config, network, universe, task.population_override
    )
    network.attach_faults(
        build_injector(
            config.fault_profile, config.seed, task.index, task.workers,
            exempt={
                hierarchy.root.ip, hierarchy.tld.ip, hierarchy.auth.ip,
                PROBER_IP, *profile.forwarder_upstreams,
            },
        )
    )
    addresses = shard_universe(universe, task.index, task.workers)
    cluster_base, cluster_limit = cluster_namespace_slice(
        task.index, task.workers
    )
    local = dataclasses.replace(
        population,
        assignments=shard_assignments(population.assignments, addresses),
    )
    local.deploy(
        network, auth_ip=hierarchy.auth.ip, version_banners=banners,
        dnssec_validators=validators,
    )
    # The shared upstreams answer relays from *any* shard's transparent
    # hosts, so every shard deploys all of them (they are never probed
    # — TEST-NET-1 is outside the universe — hence never double-counted).
    deploy_forwarder_upstreams(network, profile, hierarchy.auth.ip)
    probe_config = ProbeConfig(
        q1_target=len(addresses),
        rate_pps=profile.probe_rate_pps
        * config.time_compression
        / config.scale
        / task.workers,
        cluster_size=max(50, scale_count(5_000_000, config.scale)),
        reuse_subdomains=config.reuse_subdomains,
        seed=config.seed,
        sld=hierarchy.sld,
        record_sent_log=config.record_sent_log,
        addresses=tuple(addresses),
        cluster_base=cluster_base,
        cluster_limit=cluster_limit,
        retry=config.retry_policy(),
    )
    pipeline: StreamPipeline | None = None
    if config.mode == "stream":
        if config.drop_captures:
            probe_config.retain_r2 = False
            hierarchy.auth.retain_query_log = False
        pipeline = StreamPipeline(
            truth_ip=hierarchy.auth.ip,
            source_port=probe_config.source_port,
            response_window=probe_config.response_window,
            upstream_ips=frozenset(profile.forwarder_upstreams),
            retain_flows=not config.drop_captures,
        )
        pipeline.attach(network)
    hint = local.address_set() if config.fast else None
    prober = Prober(
        network, hierarchy.auth, probe_config, ip=PROBER_IP,
        responder_hint=hint, telemetry=hub,
    )
    if hub is not None:
        hub.attach(
            network,
            auth_ip=hierarchy.auth.ip,
            prober_ip=PROBER_IP,
            source_port=probe_config.source_port,
            response_window=probe_config.response_window,
            upstream_ips=frozenset(profile.forwarder_upstreams),
        )
        hub.add_sampler(
            "scheduler.pending_events", lambda: network.scheduler.pending
        )
        hub.add_sampler(
            "prober.in_flight_batches", lambda: len(prober._in_flight)
        )
        if pipeline is not None:
            hub.add_sampler(
                "stream.live_flows", lambda: pipeline.assembler.live_flows
            )
    # Per-batch hook: fold the sink's batched wire tallies at batch
    # boundaries instead of per packet (their values are only read at
    # heartbeats and snapshots, which flush anyway — this just bounds
    # staleness for live samplers).
    on_batch = None
    if hub is not None and event_batch is not None:
        sink = hub._sink
        if sink is not None:
            on_batch = sink.flush
    with maybe_span(
        hub, "shard", index=task.index, workers=task.workers,
        attempt=task.attempt, seed=shard_seed,
    ):
        capture = prober.run(event_batch=event_batch, on_batch=on_batch)
    if hub is not None:
        hub.detach()
        hub.heartbeat(network.now)  # the final progress mark
        hub.add_fault_window_spans(
            fault_profile(config.fault_profile).plan,
            capture.start_time, network.now,
        )
        hub.finalize_network(network)
        hub.finalize_capture(capture)
    aggregate = stream_stats = None
    if pipeline is not None:
        aggregate = pipeline.finish()
        stream_stats = pipeline.stats
        if hub is not None:
            hub.finalize_stream(stream_stats)
        flow_set = pipeline.flows(hierarchy.auth)
    else:
        flow_set = join_flows(capture.r2_records, hierarchy.auth)
    if config.mode == "stream" and config.drop_captures:
        query_log: list[QueryLogEntry] = []
    else:
        # The shard's world dies with this function, so the log needs no
        # defensive copy before shipping (unlike the serial path, whose
        # auth server keeps appending during follow-up scans). With
        # retention opted out it is not shipped at all.
        query_log = (
            hierarchy.auth.query_log if config.retain_query_log else []
        )
    return ShardOutcome(
        index=task.index,
        capture=capture,
        flow_set=flow_set,
        query_log=query_log,
        aggregate=aggregate,
        stream_stats=stream_stats,
        telemetry=hub.snapshot() if hub is not None else None,
    )


def _supports_process_pool() -> bool:
    try:
        return bool(multiprocessing.get_all_start_methods())
    except Exception:  # pragma: no cover - exotic platforms
        return False


def _note_pool_fallback(reason: str, hub: TelemetryHub | None) -> None:
    """A "parallel" round is about to run serially — say so, loudly once.

    The inline result is byte-identical, but the wall-clock expectation
    is not: a user who asked for N workers should know the pool was
    unavailable. Counted on ``campaign.pool_fallbacks`` when telemetry
    is on, and surfaced as a one-line RuntimeWarning either way.
    """
    if hub is not None:
        hub.registry.counter("campaign.pool_fallbacks").inc()
    warnings.warn(
        f"process pool unavailable ({reason}); shard round running inline "
        "in one process (results are identical, wall clock is not)",
        RuntimeWarning,
        stacklevel=3,
    )


def _run_tasks(
    tasks: list[ShardTask], parallelism: str, hub: TelemetryHub | None = None
) -> list[tuple[ShardTask, "ShardOutcome | BaseException"]]:
    """Run one round of shard tasks, capturing per-shard failures.

    Returns (task, outcome-or-exception) pairs — a failed shard never
    aborts its siblings; the recovery loop in :func:`run_sharded`
    decides whether to requeue it. ``parallelism``: ``"process"``
    forces the pool, ``"inline"`` forces in-process execution,
    ``"auto"`` picks the pool when the platform has one and more than
    one task exists. A worker killed outright breaks the whole
    ``ProcessPoolExecutor`` — every task still in flight surfaces as
    ``BrokenExecutor`` and is retried in a fresh pool on the next
    round. Pool failures that predate any shard work (sandboxed
    semaphores, unpicklable overrides) fall back to inline execution —
    the result is identical either way, and the fallback is announced
    via :func:`_note_pool_fallback`.
    """
    use_pool = parallelism == "process" or (
        parallelism == "auto" and len(tasks) > 1 and _supports_process_pool()
    )
    if use_pool:
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(len(tasks), max(1, os.cpu_count() or 1))
            ) as pool:
                futures = {pool.submit(run_shard, task): task for task in tasks}
                results = []
                unpicklable = False
                for future in concurrent.futures.as_completed(futures):
                    task = futures[future]
                    try:
                        results.append((task, future.result()))
                    except (pickle.PicklingError, TypeError, AttributeError) as exc:
                        # The task could not cross the process boundary;
                        # a pool retry would fail forever.
                        unpicklable = True
                        results.append((task, exc))
                    except BaseException as exc:
                        results.append((task, exc))
                if not (unpicklable and parallelism == "auto"):
                    return results
            _note_pool_fallback("task not picklable", hub)
        except (OSError, pickle.PicklingError, concurrent.futures.BrokenExecutor) as exc:
            if parallelism == "process":
                raise
            _note_pool_fallback(f"{type(exc).__name__}: {exc}", hub)
    results = []
    for task in tasks:
        try:
            results.append((task, run_shard(task)))
        except Exception as exc:
            results.append((task, exc))
    return results


def run_sharded(
    config,
    population_override: SampledPopulation | None = None,
    parallelism: str = "auto",
    checkpoint_dir=None,
    resume: bool = False,
    telemetry=None,
) -> "CampaignResult":  # noqa: F821
    """Run a campaign as ``config.workers`` shards and merge the results.

    The merged :class:`CampaignResult` carries a live parent world —
    population deployed on a (never-scanned) parent network — so
    follow-up scans (fingerprinting, DNSSEC census) work exactly as
    they do on a serial result.

    Failure domains: a shard whose worker raises or dies is requeued
    with the same derived seed up to ``config.max_shard_retries``
    times (the re-run is byte-identical, so recovery cannot skew the
    tables). With ``checkpoint_dir`` every completed shard is persisted
    as it finishes and ``resume=True`` re-executes only the shards
    missing from that directory. Shards that exhaust their retries are
    recorded in the result's ``degraded`` manifest — which shards, how
    many probes went unexecuted — instead of raising; only a campaign
    with *zero* surviving shards raises :class:`ShardExecutionError`.

    ``telemetry`` (a :class:`~repro.telemetry.hub.TelemetryConfig` or
    :class:`~repro.telemetry.hub.TelemetryHub`) instruments every shard
    worker: each runs its own hub and ships a mergeable snapshot back
    on its outcome; the parent folds them (counters add, shard spans
    nest under the parent trace, heartbeats are shard-tagged) and the
    merged snapshot lands on ``result.telemetry``. A failing worker
    with a configured ``flight_dump_dir`` dumps its flight recorder.
    """
    if parallelism not in ("auto", "process", "inline"):
        raise ValueError(f"unknown parallelism mode: {parallelism!r}")
    hub = as_hub(telemetry)
    workers = config.workers
    cluster_namespace_slice(0, workers)  # reject impossible splits up front
    fingerprint = checkpoint_fingerprint(config)
    completed: dict[int, ShardOutcome] = {}
    if resume:
        if checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        from repro.datasets.store import load_shard_checkpoints

        completed = {
            index: outcome
            for index, outcome in load_shard_checkpoints(
                checkpoint_dir, fingerprint
            ).items()
            if 0 <= index < workers
        }
    if checkpoint_dir is not None:
        from repro.datasets.store import save_shard_checkpoint

    pending = [index for index in range(workers) if index not in completed]
    attempts = dict.fromkeys(pending, 0)
    failures: dict[int, tuple[int, BaseException]] = {}
    with maybe_span(
        hub, "shard_execution", workers=workers,
        resumed=len(completed), pending=len(pending),
    ):
        while pending:
            tasks = [
                ShardTask(
                    config=config,
                    index=index,
                    workers=workers,
                    population_override=population_override,
                    attempt=attempts[index],
                    telemetry=hub.config if hub is not None else None,
                )
                for index in pending
            ]
            requeue = []
            for task, result in _run_tasks(tasks, parallelism, hub):
                if isinstance(result, ShardOutcome):
                    completed[result.index] = result
                    if checkpoint_dir is not None:
                        save_shard_checkpoint(
                            checkpoint_dir, fingerprint, result.index, result
                        )
                    continue
                attempts[task.index] += 1
                if hub is not None:
                    hub.registry.counter("campaign.shard_attempts_failed").inc()
                if attempts[task.index] > config.max_shard_retries:
                    failures[task.index] = (attempts[task.index], result)
                else:
                    requeue.append(task.index)
            pending = sorted(requeue)
        if hub is not None:
            # Fold every shard's snapshot (resumed checkpoints included;
            # pre-telemetry checkpoints lack the attribute entirely).
            for index in sorted(completed):
                hub.merge_snapshot(
                    getattr(completed[index], "telemetry", None), shard=index
                )
    return finalize_outcomes(
        config, completed, failures, population_override, hub
    )


def finalize_outcomes(
    config,
    completed: dict[int, ShardOutcome],
    failures: dict[int, tuple[int, BaseException]],
    population_override: SampledPopulation | None = None,
    hub: TelemetryHub | None = None,
) -> "CampaignResult":  # noqa: F821
    """Merge completed shard outcomes into a :class:`CampaignResult`.

    The single finalization path shared by both execution engines
    (:func:`run_sharded` and :func:`repro.core.multicore.run_multicore`):
    whatever transported the outcomes — pickles through a pool, compact
    frames through a ring — the merge, the parent-world rebuild, the
    analysis dispatch and the degraded-manifest accounting are this one
    function, so the engines cannot drift apart byte-wise.
    """
    from repro.core.campaign import (
        Campaign,
        DegradedManifest,
        ShardFailureRecord,
    )

    workers = config.workers
    if not completed:
        index, (tries, error) = sorted(failures.items())[0]
        raise ShardExecutionError(
            index, workers, derive_seed(config.seed, index, workers),
            f"all {workers} shard(s) failed after {tries} attempt(s); "
            f"first error: {error}",
        )

    outcomes = [completed[index] for index in sorted(completed)]
    with maybe_span(hub, "merge", shards=len(outcomes)):
        capture = merge_captures([outcome.capture for outcome in outcomes])
        if config.time_compression != 1.0:
            capture = dataclasses.replace(
                capture,
                end_time=capture.start_time
                + capture.duration * config.time_compression,
            )
        flow_set = merge_flow_sets([outcome.flow_set for outcome in outcomes])
        query_log = [
            entry for outcome in outcomes for entry in outcome.query_log
        ]
    loss = BernoulliLoss(config.loss_rate) if config.loss_rate else None
    network = Network(
        seed=config.seed,
        latency=LogNormalLatency(median=config.latency_median, sigma=0.5),
        loss=loss,
    )
    universe = _campaign_universe(config)
    with maybe_span(hub, "build_parent_world"):
        hierarchy, population, software_map, banners, validators = _build_world(
            config, network, universe, population_override
        )
        population.deploy(
            network, auth_ip=hierarchy.auth.ip, version_banners=banners,
            dnssec_validators=validators,
        )
        # Follow-up scans against the parent world (fingerprinting, the
        # DNSSEC censuses) must see the upstreams a serial network has.
        deploy_forwarder_upstreams(
            network, population.profile, hierarchy.auth.ip
        )
    campaign = Campaign(config)
    with maybe_span(hub, "analyze", mode=config.mode):
        if config.mode == "stream":
            # merge_aggregates folds into its first element; outcomes are
            # fresh per run, so the mutation is private. Index order is
            # cosmetic — the merge laws make any order byte-identical.
            aggregate = merge_aggregates(
                [outcome.aggregate for outcome in outcomes]
            )
            stream_stats = StreamStats()
            for outcome in outcomes:
                stream_stats.merge(outcome.stream_stats)
            result = campaign._analyze_stream(
                population, hierarchy, network, software_map, validators,
                capture, flow_set, aggregate, stream_stats,
                query_log=query_log,
            )
        else:
            result = campaign._analyze(
                population, hierarchy, network, software_map, validators,
                capture, flow_set, query_log=query_log,
            )
    if hub is not None:
        hub.registry.counter("campaign.shards_completed").inc(len(outcomes))
        hub.registry.counter("campaign.shards_failed").inc(len(failures))
        result.telemetry = hub.snapshot()
    if failures:
        records = [
            ShardFailureRecord(
                index=index,
                seed=derive_seed(config.seed, index, workers),
                attempts=tries,
                probes_lost=len(shard_universe(universe, index, workers)),
                error=str(error),
            )
            for index, (tries, error) in sorted(failures.items())
        ]
        result.degraded = DegradedManifest(
            failed_shards=records,
            probes_planned=len(universe),
            probes_lost=sum(record.probes_lost for record in records),
        )
    return result
