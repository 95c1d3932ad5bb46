"""Unit tests for the shared-nothing multicore campaign engine.

Campaign-level byte identity across engines lives in
``tests/conformance/test_engines.py``; this file covers the engine's
own machinery — scalar-only work distribution, frame handling, fault
paths, engine stats, and the loud inline fallback when worker
processes cannot start.
"""

import dataclasses
import multiprocessing
import pickle
import warnings
from multiprocessing import shared_memory

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.multicore import (
    _config_from_wire,
    _config_to_wire,
    run_multicore,
)
from repro.core.ringbuf import ShmRing
from repro.core.shard import CHAOS_EXIT_ENV, CHAOS_RAISE_ENV
from repro.telemetry.hub import TelemetryConfig, as_hub

SCALE = 65536

BASE = CampaignConfig(year=2018, scale=SCALE, seed=3, workers=2)


def _config(**overrides):
    return dataclasses.replace(BASE, **overrides)


class TestWireConfig:
    def test_round_trips_every_field(self):
        config = _config(
            mode="stream", drop_captures=True, fault_profile="bursty",
            time_compression=4.0,
        )
        assert _config_from_wire(_config_to_wire(config)) == config

    def test_wire_is_scalars_only(self):
        # The shared-nothing contract: nothing object-shaped crosses
        # the boundary, so the wire tuple must pickle to a few hundred
        # bytes no matter the campaign size.
        wire = _config_to_wire(_config(scale=1024))
        assert len(pickle.dumps(wire)) < 1024


class TestEngineStats:
    def test_process_engine_reports_transport_and_work(self):
        result = run_multicore(_config(), parallelism="process")
        stats = result.engine_stats
        assert stats["engine"] == "multicore"
        assert stats["transport"] in ("shm", "pipe")
        assert stats["workers"] == 2
        assert stats["rounds"] == 1
        assert stats["frames"] == 2
        assert stats["bytes_shipped"] > 0
        assert sorted(stats["worker_q1"]) == [0, 1]
        assert all(q1 > 0 for q1 in stats["worker_q1"].values())
        assert all(
            busy >= 0 for busy in stats["worker_busy_s"].values()
        )

    def test_compact_frames_used_for_streaming(self):
        result = run_multicore(
            _config(mode="stream", drop_captures=True),
            parallelism="process",
        )
        assert result.engine_stats["compact_frames"] == 2
        assert result.engine_stats["pickle_frames"] == 0

    def test_pickle_frames_used_for_batch(self):
        result = run_multicore(_config(), parallelism="inline")
        assert result.engine_stats["pickle_frames"] == 2
        assert result.engine_stats["compact_frames"] == 0

    def test_compact_frames_are_smaller(self):
        fat = run_multicore(_config(), parallelism="inline")
        slim = run_multicore(
            _config(mode="stream", drop_captures=True),
            parallelism="inline",
        )
        assert (
            slim.engine_stats["bytes_shipped"]
            < fat.engine_stats["bytes_shipped"] / 4
        )


class TestValidation:
    def test_rejects_unknown_parallelism(self):
        with pytest.raises(ValueError):
            run_multicore(_config(), parallelism="threads")

    def test_rejects_unknown_ring(self):
        with pytest.raises(ValueError):
            run_multicore(_config(), ring="floppy")

    def test_rejects_bad_event_batch(self):
        with pytest.raises(ValueError):
            run_multicore(_config(), event_batch=0)

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            CampaignConfig(year=2018, scale=SCALE, seed=3, engine="gpu")
        with pytest.raises(ValueError):
            CampaignConfig(year=2018, scale=SCALE, seed=3, engine="pool")


class TestFaultPaths:
    def test_crashing_worker_degrades_after_retries(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "1:99")
        result = run_multicore(
            _config(max_shard_retries=1), parallelism="process"
        )
        assert result.degraded is not None
        assert [
            record.index for record in result.degraded.failed_shards
        ] == [1]

    def test_killed_worker_is_requeued_and_recovers(self, monkeypatch):
        monkeypatch.setenv(CHAOS_EXIT_ENV, "1:1")
        result = run_multicore(
            _config(max_shard_retries=2), parallelism="process"
        )
        assert result.degraded is None
        assert result.engine_stats["rounds"] == 2
        reference = Campaign(_config(workers=1)).run()
        assert result.report() == reference.report()

    def test_inline_crash_degrades(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "0:99")
        result = run_multicore(
            _config(max_shard_retries=0), parallelism="inline"
        )
        assert result.degraded is not None


class TestCampaignDispatch:
    def test_engine_field_routes_to_multicore(self):
        result = Campaign(_config(engine="multicore")).run()
        assert result.engine_stats is not None
        assert result.engine_stats["engine"] == "multicore"

    def test_one_worker_runs_in_process(self):
        # The compatibility field never routes: one worker is the
        # in-process shard, with no engine accounting to report.
        result = Campaign(_config(workers=1, engine="multicore")).run()
        assert result.engine_stats is None


def _record_shm_segments(monkeypatch) -> list[str]:
    """Record the name of every shared-memory ring the engine creates."""
    names: list[str] = []
    create = ShmRing.create.__func__

    def recording_create(cls, *args, **kwargs):
        ring = create(cls, *args, **kwargs)
        names.append(ring.child_handle()[1])
        return ring

    monkeypatch.setattr(ShmRing, "create", classmethod(recording_create))
    return names


def _assert_unlinked(names: list[str]) -> None:
    assert names, "the run created no shared-memory ring"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _no_semaphores(*args, **kwargs):
    raise OSError("semaphores unavailable")


class TestPoolFallbackIsLoud:
    """A sandboxed host (no semaphores, no shared memory) must not
    quietly run an N-worker round serially: an ``auto`` run cleans up
    what it started, warns once, counts on ``campaign.pool_fallbacks``
    and finishes inline; a forced ``process`` run raises."""

    def test_broken_executor_warns_and_counts(self, monkeypatch):
        monkeypatch.setattr(multiprocessing.Process, "start", _no_semaphores)
        segments = _record_shm_segments(monkeypatch)
        hub = as_hub(TelemetryConfig())
        with pytest.warns(RuntimeWarning, match="shard round running inline"):
            result = run_multicore(
                _config(), parallelism="auto", ring="shm", telemetry=hub
            )
        assert result.degraded is None
        assert result.engine_stats["transport"] == "memory"
        counters = result.telemetry.metrics.counters
        assert counters.get("campaign.pool_fallbacks") == 1
        assert result.report() == Campaign(_config(workers=1)).run().report()
        _assert_unlinked(segments)

    def test_ring_failure_reaps_started_workers(self, monkeypatch):
        segments = _record_shm_segments(monkeypatch)
        recording_create = ShmRing.create.__func__

        def second_ring_fails(cls, *args, **kwargs):
            if segments:
                raise OSError("no space left for shared memory")
            return recording_create(cls, *args, **kwargs)

        monkeypatch.setattr(ShmRing, "create", classmethod(second_ring_fails))
        with pytest.warns(RuntimeWarning, match="shard round running inline"):
            result = run_multicore(_config(), parallelism="auto", ring="shm")
        assert result.degraded is None
        assert multiprocessing.active_children() == []
        _assert_unlinked(segments)

    def test_forced_process_parallelism_still_raises(self, monkeypatch):
        monkeypatch.setattr(multiprocessing.Process, "start", _no_semaphores)
        segments = _record_shm_segments(monkeypatch)
        with pytest.raises(OSError):
            run_multicore(_config(), parallelism="process", ring="shm")
        _assert_unlinked(segments)

    def test_healthy_pool_does_not_warn(self):
        hub = as_hub(TelemetryConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_multicore(
                _config(), parallelism="auto", telemetry=hub
            )
        assert result.engine_stats["transport"] in ("shm", "pipe")
        counters = result.telemetry.metrics.counters
        assert "campaign.pool_fallbacks" not in counters
