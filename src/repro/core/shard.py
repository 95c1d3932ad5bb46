"""The campaign engine's unit of work: one shard of the ZMap sweep.

The paper's scan covers the routable IPv4 space from one box; ZMap's
cyclic-group permutation is what makes that embarrassingly parallel:
any strided slice of the permutation is itself a uniform sample of the
space. This module partitions the campaign universe into ``N``
deterministic shards — shard ``i`` probes ``universe[i::N]`` at
``rate/N`` — runs each shard as an independent :class:`Prober` +
:class:`Network` discrete-event simulation, and merges the per-shard
captures and flows into a single :class:`CampaignResult`.

Every campaign runs through the one shard-scan function here. A serial
run (:func:`run_in_process`) is shard 0 of 1 in the caller's process:
its scanned world becomes the result's world. A sharded run hands
shards to :func:`repro.core.multicore.run_multicore`, whose workers
call :func:`run_shard`; :func:`finalize_outcomes` merges either.

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

Per-shard randomness (latency draws, fault schedules) is seeded by
:func:`shard_seed`: ``derive_seed(seed, index, workers)`` when there is
more than one shard, the campaign seed itself when there is one — so a
serial run and a one-worker sharded run are the same simulation. Shards
never replay each other's streams, and a *re-run* shard replays exactly
its own. That second property is the failure-domain story: a shard
worker that crashes or is killed is requeued up to
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

import dataclasses
import os
import pathlib

from repro.dnssrv.auth import QueryLogEntry
from repro.dnssrv.hierarchy import (
    AUTH_IP,
    ROOT_IP,
    TLD_IP,
    Hierarchy,
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
    maybe_span,
)

#: Chaos-testing hooks, read by every shard worker (the environment
#: crosses the process boundary, so they work under both inline and
#: process execution; a serial run never reads them). Format: ``"index:count,index:count"`` — shard
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
    ``engine``, a compatibility field that never shapes a byte.
    """
    fingerprint = dataclasses.asdict(config)
    fingerprint.pop("max_shard_retries", None)
    fingerprint.pop("engine", None)
    return fingerprint


def shard_seed(seed: int, index: int, workers: int) -> int:
    """The network seed of shard ``index`` of ``workers``.

    One shard is the whole campaign, so it keeps the campaign seed: a
    serial run and a one-worker sharded run draw the same latencies
    and render the same bytes under every fault profile. Only a real
    split derives per-shard lanes.
    """
    if workers == 1:
        return seed
    return derive_seed(seed, index, workers)


def campaign_probe_count(config) -> int:
    """How many addresses the campaign probes (the universe's length)."""
    return scale_count(profile_for_year(config.year).q1_full, config.scale)


def shard_probe_count(total: int, index: int, workers: int) -> int:
    """``len(universe[index::workers])`` for a universe of ``total``."""
    return max(0, (total - index + workers - 1) // workers)


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
    universe = probe_list(seed=config.seed, limit=campaign_probe_count(config))
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
#: per-network hosts — so every shard in one process and every fork
#: child can share it without byte drift.
_world_cache: tuple[tuple, tuple] | None = None


def _campaign_world(
    config, population_override: SampledPopulation | None = None
) -> tuple:
    """(population, software_map, banners, validators) for ``config``.

    ``population_override`` (an evolved world, see :mod:`repro.monitor`)
    replaces the sampled population and bypasses the memo: it is not
    derivable from the config, and no universe is walked for it.
    """
    global _world_cache
    key = (
        config.seed, config.year, config.scale,
        config.fingerprinting, config.dnssec,
    )
    if population_override is None:
        cached = _world_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        population = PopulationSampler(
            profile_for_year(config.year),
            scale=config.scale,
            seed=config.seed,
            excluded_ips={ROOT_IP, TLD_IP, AUTH_IP, PROBER_IP},
            universe=_campaign_universe(config),
        ).sample()
    else:
        population = population_override
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
    # Post-sampling overlay: flip the calibrated share of std-resolvers
    # into transparent forwarders. An independent seeded lane, so every
    # shard and the parent see the same hosts flipped to the same
    # upstreams; idempotent, so re-applying it to an override is safe.
    assign_transparent_forwarders(population, seed=config.seed)
    world = (population, software_map, banners, validators)
    if population_override is None:
        _world_cache = (key, world)
    return world


def prime_shard_caches(
    config, population_override: SampledPopulation | None = None
) -> None:
    """Materialize the config-pure shared state (universe + world).

    The multicore engine calls this in the parent before forking so
    children inherit both O(universe) artifacts — the permutation walk
    and the sampled population — instead of recomputing them per
    worker. An override replaces the sampled world; its shards still
    slice the universe, unless one shard probes it all.
    """
    if population_override is None:
        _campaign_world(config)
    elif config.workers > 1:
        _campaign_universe(config)


@dataclasses.dataclass
class ShardWorld:
    """A deployed simulation: one network and everything bound to it."""

    network: Network
    hierarchy: Hierarchy
    population: SampledPopulation
    software_map: dict[str, object]
    validators: set[str]
    #: The part of ``population`` deployed on ``network``: all of it
    #: for one shard, the shard's hosts otherwise.
    deployed: SampledPopulation
    #: The addresses this world's shard probes, in probe order; None
    #: when the prober walks the permutation itself (one shard with a
    #: population override, so no universe is materialized).
    addresses: list[int] | None


def build_world(
    config,
    seed: int,
    population_override: SampledPopulation | None = None,
    index: int = 0,
    workers: int = 1,
    hub: TelemetryHub | None = None,
) -> ShardWorld:
    """Shard ``index`` of ``workers``' world on a network seeded ``seed``.

    The one world builder: a shard scans it, a serial run (shard 0 of
    1) keeps it, and a sharded result gets a never-scanned whole world
    for follow-up scans. Deterministic in (seed, scale, year), so
    behavior does not depend on which process deploys which host. A
    split deploys only the hosts in the shard's slice; one shard
    deploys the whole population with no slice and no filter.
    """
    loss = BernoulliLoss(config.loss_rate) if config.loss_rate else None
    network = Network(
        seed=seed,
        latency=LogNormalLatency(median=config.latency_median, sigma=0.5),
        loss=loss,
    )
    if hub is not None:
        hub.tracer.clock = lambda: network.scheduler.now
    hierarchy = build_hierarchy(network)
    with maybe_span(hub, "universe_walk"):
        population, software_map, banners, validators = _campaign_world(
            config, population_override
        )
        addresses = None
        if workers > 1:
            addresses = shard_universe(
                _campaign_universe(config), index, workers
            )
        elif population_override is None:
            addresses = _campaign_universe(config)
    deployed = population
    if workers > 1:
        deployed = dataclasses.replace(
            population,
            assignments=shard_assignments(population.assignments, addresses),
        )
    with maybe_span(hub, "deploy", hosts=len(deployed.assignments)):
        deployed.deploy(
            network, auth_ip=hierarchy.auth.ip, version_banners=banners,
            dnssec_validators=validators,
        )
        # The shared upstreams answer relays from *any* shard's
        # transparent hosts, so every world deploys all of them (they
        # are never probed — TEST-NET-1 is outside the universe — hence
        # never double-counted).
        deploy_forwarder_upstreams(
            network, population.profile, hierarchy.auth.ip
        )
    return ShardWorld(
        network=network,
        hierarchy=hierarchy,
        population=population,
        software_map=software_map,
        validators=validators,
        deployed=deployed,
        addresses=addresses,
    )


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
    seed = shard_seed(task.config.seed, task.index, task.workers)
    hub: TelemetryHub | None = None
    if task.telemetry is not None and task.telemetry.enabled:
        hub = TelemetryHub(task.telemetry)
    if task.attempt < _chaos_fail_count(CHAOS_RAISE_ENV, task.index):
        _dump_flight_recorder(
            hub, task, f"injected chaos failure ({CHAOS_RAISE_ENV})"
        )
        raise ShardExecutionError(
            task.index, task.workers, seed,
            f"injected chaos failure ({CHAOS_RAISE_ENV})",
        )
    if task.attempt < _chaos_fail_count(CHAOS_EXIT_ENV, task.index):
        os._exit(13)
    try:
        with maybe_span(
            hub, "shard", index=task.index, workers=task.workers,
            attempt=task.attempt, seed=seed,
        ):
            outcome, _ = _run_shard_scan(task, hub, event_batch=event_batch)
        if hub is not None:
            outcome.telemetry = hub.snapshot()
        return outcome
    except ShardExecutionError as exc:
        _dump_flight_recorder(hub, task, str(exc))
        raise
    except Exception as exc:
        _dump_flight_recorder(hub, task, f"{type(exc).__name__}: {exc}")
        raise ShardExecutionError(
            task.index, task.workers, seed,
            f"{type(exc).__name__}: {exc}",
        ) from exc


def _run_shard_scan(
    task: ShardTask,
    hub: TelemetryHub | None = None,
    event_batch: int | None = None,
) -> tuple[ShardOutcome, ShardWorld]:
    """Build shard ``task``'s world, scan it, and return both."""
    config = task.config
    profile = profile_for_year(config.year)
    world = build_world(
        config,
        shard_seed(config.seed, task.index, task.workers),
        task.population_override,
        task.index,
        task.workers,
        hub,
    )
    network, hierarchy, addresses = (
        world.network, world.hierarchy, world.addresses
    )
    network.attach_faults(
        build_injector(
            config.fault_profile, config.seed, task.index, task.workers,
            # The shared forwarder upstreams are infrastructure too:
            # blackholing one would silently convert its whole
            # transparent fan-in into unresponsive hosts.
            exempt={
                hierarchy.root.ip, hierarchy.tld.ip, hierarchy.auth.ip,
                PROBER_IP, *profile.forwarder_upstreams,
            },
        )
    )
    cluster_base, cluster_limit = cluster_namespace_slice(
        task.index, task.workers
    )
    probe_config = ProbeConfig(
        q1_target=(
            len(addresses) if addresses is not None
            else campaign_probe_count(config)
        ),
        rate_pps=profile.probe_rate_pps
        * config.time_compression
        / config.scale
        / task.workers,
        cluster_size=max(50, scale_count(5_000_000, config.scale)),
        reuse_subdomains=config.reuse_subdomains,
        seed=config.seed,
        sld=hierarchy.sld,
        record_sent_log=config.record_sent_log,
        addresses=tuple(addresses) if addresses is not None else None,
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
    hint = world.deployed.address_set() if config.fast else None
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
    with maybe_span(hub, "scan"):
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
        # Shipped without a copy: a worker's world dies with it, and
        # finalize_outcomes copies the log into the result, so an
        # in-process world's later follow-up scans never reach it.
        # With retention opted out it is not shipped at all.
        query_log = (
            hierarchy.auth.query_log if config.retain_query_log else []
        )
    outcome = ShardOutcome(
        index=task.index,
        capture=capture,
        flow_set=flow_set,
        query_log=query_log,
        aggregate=aggregate,
        stream_stats=stream_stats,
    )
    return outcome, world


def run_in_process(
    config,
    population_override: SampledPopulation | None = None,
    hub: TelemetryHub | None = None,
) -> "CampaignResult":  # noqa: F821
    """Run the whole campaign as shard 0 of 1 in this process.

    A serial campaign: no worker, no ring, no parent-world rebuild. The
    shard's own scanned world becomes the result's world, so follow-up
    scans (fingerprinting, the DNSSEC censuses) run on the network the
    campaign measured. ``hub`` is the caller's: the scan records into
    it directly.
    """
    task = ShardTask(
        config=config, index=0, workers=1,
        population_override=population_override,
    )
    outcome, world = _run_shard_scan(task, hub)
    with maybe_span(hub, "merge_and_analyze"):
        return finalize_outcomes(
            config, {0: outcome}, {}, population_override, hub, world=world
        )


def finalize_outcomes(
    config,
    completed: dict[int, ShardOutcome],
    failures: dict[int, tuple[int, BaseException]],
    population_override: SampledPopulation | None = None,
    hub: TelemetryHub | None = None,
    world: ShardWorld | None = None,
) -> "CampaignResult":  # noqa: F821
    """Merge completed shard outcomes into a :class:`CampaignResult`.

    The single finalization path of every campaign: whatever carried
    the outcomes — a return value in this process, compact frames
    through a ring — the merge, the analysis dispatch and the
    degraded-manifest accounting are this one function, so execution
    modes cannot drift apart byte-wise. ``world`` is the in-process
    shard's scanned world; without one (sharded runs) a never-scanned
    parent world is built for follow-up scans.
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
            index, workers, shard_seed(config.seed, index, workers),
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
    if world is None:
        with maybe_span(hub, "build_parent_world"):
            world = build_world(config, config.seed, population_override)
    campaign = Campaign(config)
    analyzed = (
        world.population, world.hierarchy, world.network,
        world.software_map, world.validators, capture, flow_set,
    )
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
                *analyzed, aggregate, stream_stats, query_log=query_log,
            )
        else:
            result = campaign._analyze(*analyzed, query_log=query_log)
    if hub is not None:
        hub.registry.counter("campaign.shards_completed").inc(len(outcomes))
        hub.registry.counter("campaign.shards_failed").inc(len(failures))
    if failures:
        planned = campaign_probe_count(config)
        records = [
            ShardFailureRecord(
                index=index,
                seed=shard_seed(config.seed, index, workers),
                attempts=tries,
                probes_lost=shard_probe_count(planned, index, workers),
                error=str(error),
            )
            for index, (tries, error) in sorted(failures.items())
        ]
        result.degraded = DegradedManifest(
            failed_shards=records,
            probes_planned=planned,
            probes_lost=sum(record.probes_lost for record in records),
        )
    return result
