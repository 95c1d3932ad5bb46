"""Engine conformance: every execution shape renders one report.

There is one campaign engine. A serial run is shard 0 of 1 in process;
sharded runs go through :func:`repro.core.multicore.run_multicore`.
Changing the process topology, wire format or dispatch granularity
changes *nothing* about the measurement: for a fixed config, every
worker count must render the serial report byte-identically under the
clean profile, one worker must match the serial run under every fault
profile, and interruption plus resume must not move a byte.

Under faults a worker count is its own simulation (loss lands per
shard, on the shard's seed), so those counts are pinned by the SHA-256
of their reports instead.

The worker-count matrix runs in process (``parallelism="inline"``),
which still routes every outcome through the ring + codec wire path,
so the suite stays fast on small CI boxes; real child processes and
both ring transports get dedicated cases at one worker count.
"""

import dataclasses
import hashlib

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore
from repro.core.shard import CHAOS_RAISE_ENV, checkpoint_fingerprint
from repro.datasets.store import load_shard_checkpoints

SCALE = 65536

BASE = CampaignConfig(year=2018, scale=SCALE, seed=3)

WORKER_COUNTS = (1, 2, 4, 8)

#: SHA-256 of ``report()`` for ``BASE`` under the bursty profile, by
#: worker count. Recorded from the process-pool engine, which rendered
#: the same bytes as the multicore engine at these counts.
BURSTY_REPORT_SHA256 = {
    2: "77ff22b004e5a8fb772478b6f160e3179cf225687689cacfec50de07cac0acbe",
    4: "b9fe213da264cbb25803bd5fc06058a384bf745f0a5110d1f2bc633bad6505f6",
    8: "5e39950b3350c33a6f3adf36b5cf69a56c918b3a38309f5205ae638158547949",
}


def _config(**overrides):
    return dataclasses.replace(BASE, **overrides)


def _serial(**overrides):
    return Campaign(_config(**overrides)).run()


def _multicore(parallelism="inline", ring="auto", **overrides):
    config = _config(**overrides)
    return run_multicore(config, parallelism=parallelism, ring=ring)


def _sha256(result):
    return hashlib.sha256(result.report().encode()).hexdigest()


def _assert_same_tables(result, reference):
    assert result.report() == reference.report()
    assert result.forwarder_table == reference.forwarder_table
    assert result.validation_table == reference.validation_table


@pytest.fixture(scope="module")
def serial_batch():
    return _serial()


class TestCleanProfileMatrix:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_multicore_matches_serial(self, serial_batch, workers):
        _assert_same_tables(_multicore(workers=workers), serial_batch)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_multicore_stream_matches_serial(self, serial_batch, workers):
        streamed = _multicore(
            workers=workers, mode="stream", drop_captures=True
        )
        _assert_same_tables(streamed, serial_batch)


class TestOneShardIsSerial:
    # One shard keeps the campaign seed, so a one-worker engine run is
    # the serial simulation itself, faults included.
    @pytest.mark.parametrize("profile", ["none", "bursty", "hostile"])
    def test_one_worker_matches_serial(self, profile):
        _assert_same_tables(
            _multicore(fault_profile=profile, workers=1),
            _serial(fault_profile=profile),
        )


class TestBurstyProfileMatrix:
    @pytest.mark.parametrize("workers", sorted(BURSTY_REPORT_SHA256))
    def test_multicore_matches_pool_same_workers(self, workers):
        result = _multicore(fault_profile="bursty", workers=workers)
        assert _sha256(result) == BURSTY_REPORT_SHA256[workers]


class TestProcessTransports:
    @pytest.mark.parametrize("ring", ["shm", "pipe"])
    def test_child_processes_match_serial(self, serial_batch, ring):
        result = _multicore(parallelism="process", ring=ring, workers=4)
        assert result.engine_stats["transport"] == ring
        _assert_same_tables(result, serial_batch)

    def test_stream_compact_frames_over_processes(self, serial_batch):
        result = _multicore(
            parallelism="process", workers=4,
            mode="stream", drop_captures=True,
        )
        assert result.engine_stats["compact_frames"] == 4
        _assert_same_tables(result, serial_batch)


class TestResumeMidCampaign:
    @pytest.mark.parametrize("profile", ["none", "bursty"])
    def test_interrupted_multicore_resumes_identically(
        self, serial_batch, monkeypatch, tmp_path, profile
    ):
        config = _config(
            fault_profile=profile, workers=4, max_shard_retries=0,
        )
        checkpoint_dir = tmp_path / "ckpt"
        monkeypatch.setenv(CHAOS_RAISE_ENV, "3:99")
        interrupted = run_multicore(
            config, parallelism="inline", checkpoint_dir=checkpoint_dir
        )
        assert interrupted.degraded is not None
        saved = load_shard_checkpoints(
            checkpoint_dir, checkpoint_fingerprint(config)
        )
        assert sorted(saved) == [0, 1, 2]

        monkeypatch.delenv(CHAOS_RAISE_ENV)
        resumed = run_multicore(
            config,
            parallelism="inline",
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        assert resumed.degraded is None
        assert resumed.engine_stats["resumed_shards"] == 3
        if profile == "none":
            _assert_same_tables(resumed, serial_batch)
        else:
            assert _sha256(resumed) == BURSTY_REPORT_SHA256[4]
