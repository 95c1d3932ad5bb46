"""Shared-nothing per-core campaign engine with pipelined result rings.

The pool engine (:func:`repro.core.shard.run_sharded`) ships fat
pickled :class:`~repro.core.shard.ShardOutcome` objects through a
``ProcessPoolExecutor`` and merges them when the round ends. This
module replaces that loop with the ZDNS/ZMap scale-out shape the
ROADMAP names:

- **Work distribution without task objects.** The parent sends each
  worker only scalars: the config's field tuple plus
  ``(worker_id, nworkers, attempt)``. The worker derives everything
  else locally — its splitmix64 seed lane via
  ``derive_seed(campaign_seed, worker_id, nworkers)`` and its strided
  probe slice ``universe[worker_id::nworkers]`` — exactly as
  :func:`~repro.core.shard.run_shard` always has, so the per-shard
  simulation is byte-identical to the pool engine's. Under the fork
  start method the parent primes the shared universe memo first, so
  children inherit the materialized permutation walk instead of each
  recomputing it.
- **Compact result rings, drained incrementally.** Each worker owns a
  single-producer ring (:mod:`repro.core.ringbuf`: shared memory,
  pipe fallback, or in-process for inline execution) and ships its
  outcome as a struct-packed frame (:mod:`repro.stream.codec`) when
  the state is compact (streaming ``drop_captures``), or a pickle
  frame otherwise. The parent drains all rings continuously while
  workers run, so a ring never blocks a producer and results are
  decoded as they land, not at the end of the round.
- **Batched dispatch inside the worker.** The scan drains the
  scheduler in fixed-size event batches
  (:meth:`~repro.netsim.events.Scheduler.run_batch`), the fastwire Q1
  template already renders from one reused buffer, and telemetry wire
  counters are coalesced into per-batch flushes instead of per-probe
  increments.

Fault handling mirrors the pool engine: a worker that raises ships an
error frame; a worker that dies without a frame (chaos kill, crash) is
detected by exit code; both are requeued with the same derived seed up
to ``config.max_shard_retries``, then recorded in the degraded
manifest. Checkpoints use the same fingerprint (``engine`` excluded),
so campaigns checkpoint/resume interchangeably across engines. The
merge itself is :func:`repro.core.shard.finalize_outcomes` — one
finalization path for both engines, so the byte-identity contract for
Tables II–X is structural, not aspirational.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import struct
import time
import warnings

from repro.core.ringbuf import (
    KIND_ERROR,
    KIND_OUTCOME_COMPACT,
    KIND_OUTCOME_PICKLE,
    FrameParser,
    MemoryRing,
    PipeRing,
    ShmRing,
    create_ring,
    open_child_ring,
    pack_frame,
)
from repro.core.shard import (
    ShardExecutionError,
    ShardOutcome,
    ShardTask,
    _supports_process_pool,
    checkpoint_fingerprint,
    cluster_namespace_slice,
    finalize_outcomes,
    prime_shard_caches,
    run_shard,
)
from repro.netsim.seeds import derive_seed
from repro.resolvers.population import SampledPopulation
from repro.telemetry.hub import as_hub, maybe_span

__all__ = ["run_multicore", "DEFAULT_EVENT_BATCH"]

#: Scheduler events pulled per batch inside each worker. Large enough
#: to amortize the batch-boundary work to noise, small enough that
#: telemetry tallies stay fresh for live samplers.
DEFAULT_EVENT_BATCH = 4096

#: Outcome-frame prefix: worker index, attempt, CPU-busy seconds. Busy
#: time is ``time.process_time`` — CPU consumed by the worker process —
#: so aggregate capacity numbers are honest even when workers contend
#: for fewer physical cores than there are shards.
_PREFIX = struct.Struct("<IId")

#: Fork-inheritance slot for ``population_override``: an evolved world
#: cannot be re-derived from the seed, so it cannot ride the scalar
#: wire. The parent parks it here before forking and clears it after;
#: forked children read it at task build time. Under a non-fork start
#: method an override forces inline execution instead.
_fork_override: SampledPopulation | None = None

_TRANSPORT_NAMES = {
    ShmRing: "shm",
    PipeRing: "pipe",
    MemoryRing: "memory",
}


def _config_to_wire(config) -> tuple:
    """The config as a flat scalar tuple (field order is the schema)."""
    return tuple(
        getattr(config, field.name) for field in dataclasses.fields(config)
    )


def _config_from_wire(wire: tuple):
    from repro.core.campaign import CampaignConfig

    names = [field.name for field in dataclasses.fields(CampaignConfig)]
    return CampaignConfig(**dict(zip(names, wire)))


def _worker_main(
    wire: tuple,
    index: int,
    workers: int,
    attempt: int,
    ring_handle,
    telemetry_config,
    event_batch: int,
) -> None:
    """One worker: derive the slice locally, scan, ship one frame.

    Runs as a child process (fork or spawn — the args are scalars plus
    a ring descriptor) or inline for the in-process engine. Exactly one
    frame leaves: a compact or pickled outcome on success, an error
    frame on :class:`ShardExecutionError`. A hard kill ships nothing;
    the parent reads the exit code instead.
    """
    ring = open_child_ring(ring_handle)
    try:
        config = _config_from_wire(wire)
        task = ShardTask(
            config=config,
            index=index,
            workers=workers,
            population_override=_fork_override,
            attempt=attempt,
            telemetry=telemetry_config,
        )
        busy_start = time.process_time()
        try:
            outcome = run_shard(task, event_batch=event_batch)
        except ShardExecutionError as exc:
            ring.write(pack_frame(
                KIND_ERROR,
                pickle.dumps(
                    (exc.index, exc.workers, exc.seed, exc.message),
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            ))
            return
        busy = time.process_time() - busy_start
        prefix = _PREFIX.pack(index, attempt, busy)
        from repro.stream.codec import encode_outcome

        compact = encode_outcome(outcome)
        if compact is not None:
            ring.write(pack_frame(KIND_OUTCOME_COMPACT, prefix + compact))
        else:
            ring.write(pack_frame(
                KIND_OUTCOME_PICKLE,
                prefix + pickle.dumps(
                    outcome, protocol=pickle.HIGHEST_PROTOCOL
                ),
            ))
    finally:
        if not isinstance(ring, MemoryRing):
            ring.close()


def _handle_frame(
    kind: int,
    payload: bytes,
    outcomes: dict[int, ShardOutcome],
    errors: dict[int, BaseException],
    stats: dict,
) -> None:
    stats["frames"] += 1
    if kind == KIND_ERROR:
        index, workers, seed, message = pickle.loads(payload)
        errors[index] = ShardExecutionError(index, workers, seed, message)
        return
    index, _attempt, busy = _PREFIX.unpack_from(payload, 0)
    blob = payload[_PREFIX.size:]
    if kind == KIND_OUTCOME_COMPACT:
        from repro.stream.codec import decode_outcome

        outcome = decode_outcome(blob)
        stats["compact_frames"] += 1
    elif kind == KIND_OUTCOME_PICKLE:
        outcome = pickle.loads(blob)
        stats["pickle_frames"] += 1
    else:
        raise ValueError(f"unknown result-ring frame kind: {kind}")
    stats["worker_busy_s"][index] = round(busy, 6)
    outcomes[index] = outcome


@dataclasses.dataclass
class _WorkerState:
    ring: object
    parser: FrameParser
    proc: object


def _drain_workers(
    states: dict[int, _WorkerState],
    outcomes: dict[int, ShardOutcome],
    errors: dict[int, BaseException],
    stats: dict,
    config,
) -> None:
    """Pump every live worker's ring until all workers are finished.

    The incremental half of the pipeline: frames are parsed and decoded
    the moment their bytes land, so a worker writing a frame larger
    than its ring streams through in chunks while the parent consumes,
    and the merge-side work overlaps the slowest worker's tail.
    """

    def pump(state: _WorkerState) -> bool:
        data = state.ring.read()
        if not data:
            return False
        stats["bytes_shipped"] += len(data)
        for kind, payload in state.parser.feed(data):
            _handle_frame(kind, payload, outcomes, errors, stats)
        return True

    while states:
        progress = False
        for index in list(states):
            state = states[index]
            if pump(state):
                progress = True
            proc = state.proc
            if proc is not None and not proc.is_alive():
                proc.join()
                pump(state)  # the frame may have landed between polls
                if index not in outcomes and index not in errors:
                    errors[index] = ShardExecutionError(
                        index, config.workers,
                        derive_seed(config.seed, index, config.workers),
                        "worker exited with code "
                        f"{proc.exitcode} before shipping a result",
                    )
                state.ring.close()
                del states[index]
                progress = True
        if not progress:
            time.sleep(0.001)


def _run_round_processes(
    config,
    pending: list[int],
    attempts: dict[int, int],
    population_override,
    telemetry_config,
    ring_kind: str,
    event_batch: int,
    stats: dict,
) -> tuple[dict[int, ShardOutcome], dict[int, BaseException]]:
    global _fork_override
    wire = _config_to_wire(config)
    outcomes: dict[int, ShardOutcome] = {}
    errors: dict[int, BaseException] = {}
    states: dict[int, _WorkerState] = {}
    _fork_override = population_override
    try:
        for index in pending:
            ring = create_ring(ring_kind)
            stats["transport"] = _TRANSPORT_NAMES.get(
                type(ring), type(ring).__name__
            )
            proc = multiprocessing.Process(
                target=_worker_main,
                args=(
                    wire, index, config.workers, attempts[index],
                    ring.child_handle(), telemetry_config, event_batch,
                ),
            )
            proc.start()
            if isinstance(ring, PipeRing):
                ring.close_writer()  # the child holds the only write end now
            states[index] = _WorkerState(
                ring=ring, parser=FrameParser(), proc=proc
            )
    finally:
        _fork_override = None
    _drain_workers(states, outcomes, errors, stats, config)
    return outcomes, errors


def _run_round_inline(
    config,
    pending: list[int],
    attempts: dict[int, int],
    population_override,
    telemetry_config,
    event_batch: int,
    stats: dict,
) -> tuple[dict[int, ShardOutcome], dict[int, BaseException]]:
    """In-process rounds still go through the ring + codec path, so the
    inline engine exercises — and the conformance suite covers — the
    exact encode/decode bytes the process engine ships."""
    global _fork_override
    wire = _config_to_wire(config)
    outcomes: dict[int, ShardOutcome] = {}
    errors: dict[int, BaseException] = {}
    stats["transport"] = "memory"
    for index in pending:
        ring = MemoryRing()
        _fork_override = population_override
        try:
            _worker_main(
                wire, index, config.workers, attempts[index], ring,
                telemetry_config, event_batch,
            )
        finally:
            _fork_override = None
        data = ring.read()
        stats["bytes_shipped"] += len(data)
        for kind, payload in FrameParser().feed(data):
            _handle_frame(kind, payload, outcomes, errors, stats)
        if index not in outcomes and index not in errors:
            errors[index] = ShardExecutionError(
                index, config.workers,
                derive_seed(config.seed, index, config.workers),
                "worker produced no result frame",
            )
    return outcomes, errors


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def run_multicore(
    config,
    population_override: SampledPopulation | None = None,
    parallelism: str = "auto",
    checkpoint_dir=None,
    resume: bool = False,
    telemetry=None,
    ring: str = "auto",
    event_batch: int = DEFAULT_EVENT_BATCH,
) -> "CampaignResult":  # noqa: F821
    """Run a campaign on the shared-nothing multicore engine.

    Same contract as :func:`repro.core.shard.run_sharded` — same
    retry/degraded semantics, same checkpoint fingerprint, same merged
    tables byte for byte — different execution substrate: one process
    per shard, scalar-only work distribution, compact binary result
    frames over per-worker rings with continuous parent-side drain.

    ``parallelism``: ``"process"`` forces child processes, ``"inline"``
    forces in-process execution (still through the ring/codec path),
    ``"auto"`` picks processes when the platform supports them.
    ``ring`` picks the transport (``"auto"``/``"shm"``/``"pipe"``).
    The result's ``engine_stats`` records transport, rounds, frames,
    bytes shipped, and per-worker CPU-busy seconds and probe counts.
    """
    if parallelism not in ("auto", "process", "inline"):
        raise ValueError(f"unknown parallelism mode: {parallelism!r}")
    if ring not in ("auto", "shm", "pipe"):
        raise ValueError(f"unknown ring transport: {ring!r}")
    if event_batch < 1:
        raise ValueError("event_batch must be at least 1")
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

    use_processes = parallelism == "process" or (
        parallelism == "auto" and _supports_process_pool()
    )
    if use_processes and population_override is not None and not _fork_available():
        if parallelism == "process":
            raise ValueError(
                "population_override needs the fork start method (it "
                "cannot ride the scalar wire); use parallelism='inline'"
            )
        warnings.warn(
            "population_override cannot cross a non-fork process boundary; "
            "multicore round running inline",
            RuntimeWarning,
            stacklevel=2,
        )
        use_processes = False
    if not use_processes or _fork_available():
        # Prime the config-pure shared state (universe walk, plus the
        # sampled world unless an override replaces it): fork children
        # inherit it, inline shards and finalize_outcomes reuse it,
        # instead of each paying the O(universe) setup again.
        prime_shard_caches(config, population_override)

    resumed = len(completed)
    pending = [index for index in range(workers) if index not in completed]
    attempts = dict.fromkeys(pending, 0)
    failures: dict[int, tuple[int, BaseException]] = {}
    stats: dict = {
        "engine": "multicore",
        "transport": None,
        "workers": workers,
        "event_batch": event_batch,
        "rounds": 0,
        "resumed_shards": resumed,
        "frames": 0,
        "bytes_shipped": 0,
        "compact_frames": 0,
        "pickle_frames": 0,
        "worker_busy_s": {},
        "worker_q1": {},
    }
    telemetry_config = hub.config if hub is not None else None
    with maybe_span(
        hub, "multicore_execution", workers=workers,
        resumed=resumed, pending=len(pending),
    ):
        while pending:
            stats["rounds"] += 1
            if use_processes:
                outcomes, errors = _run_round_processes(
                    config, pending, attempts, population_override,
                    telemetry_config, ring, event_batch, stats,
                )
            else:
                outcomes, errors = _run_round_inline(
                    config, pending, attempts, population_override,
                    telemetry_config, event_batch, stats,
                )
            for index in sorted(outcomes):
                completed[index] = outcomes[index]
                if checkpoint_dir is not None:
                    save_shard_checkpoint(
                        checkpoint_dir, fingerprint, index, outcomes[index]
                    )
            requeue = []
            for index in sorted(errors):
                if index in outcomes:
                    continue  # a retry raced a late frame; outcome wins
                attempts[index] += 1
                if hub is not None:
                    hub.registry.counter(
                        "campaign.shard_attempts_failed"
                    ).inc()
                if attempts[index] > config.max_shard_retries:
                    failures[index] = (attempts[index], errors[index])
                else:
                    requeue.append(index)
            pending = sorted(requeue)
        if hub is not None:
            for index in sorted(completed):
                hub.merge_snapshot(
                    getattr(completed[index], "telemetry", None), shard=index
                )
    result = finalize_outcomes(
        config, completed, failures, population_override, hub
    )
    stats["worker_q1"] = {
        index: completed[index].capture.q1_sent for index in sorted(completed)
    }
    result.engine_stats = stats
    return result
