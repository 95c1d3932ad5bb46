"""Failure domains: chaos-killed shards, degraded campaigns, resume.

The chaos hooks (``REPRO_CHAOS_RAISE`` / ``REPRO_CHAOS_EXIT``) make a
chosen shard fail its first ``count`` attempts, so every recovery path
is exercised deterministically: requeue-and-recover, retry exhaustion
with a degraded manifest, total failure, and checkpoint/resume.
"""

import dataclasses

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore
from repro.core.shard import (
    CHAOS_EXIT_ENV,
    CHAOS_RAISE_ENV,
    ShardExecutionError,
    ShardTask,
    checkpoint_fingerprint,
    run_shard,
    shard_universe,
)
from repro.datasets.store import load_shard_checkpoints
from repro.netsim.seeds import derive_seed

SCALE = 65536
CONFIG = CampaignConfig(year=2018, scale=SCALE, seed=3)


@pytest.fixture(scope="module")
def serial():
    return Campaign(CONFIG).run()


def sharded_config(**overrides):
    return dataclasses.replace(CONFIG, workers=4, **overrides)


class TestShardFailureReporting:
    def test_error_carries_index_and_seed(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "1:99")
        with pytest.raises(ShardExecutionError) as excinfo:
            run_shard(ShardTask(config=CONFIG, index=1, workers=4))
        error = excinfo.value
        expected_seed = derive_seed(CONFIG.seed, 1, 4)
        assert error.index == 1
        assert error.workers == 4
        assert error.seed == expected_seed
        assert "shard 1/4" in str(error)
        assert f"{expected_seed:#x}" in str(error)
        assert "run_shard(ShardTask(config, index=1, workers=4))" in str(error)

    def test_unexpected_exceptions_are_wrapped(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.shard._run_shard_scan",
            lambda task, seed, hub=None, event_batch=None: (
                _ for _ in ()
            ).throw(KeyError("boom")),
        )
        with pytest.raises(ShardExecutionError, match="KeyError"):
            run_shard(ShardTask(config=CONFIG, index=2, workers=4))

    def test_chaos_attempt_threshold(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "0:2")
        with pytest.raises(ShardExecutionError):
            run_shard(ShardTask(config=CONFIG, index=0, workers=4, attempt=1))
        outcome = run_shard(
            ShardTask(config=CONFIG, index=0, workers=4, attempt=2)
        )
        assert outcome.index == 0


class TestCrashRecovery:
    def test_killed_shard_requeued_byte_identical(self, serial, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "0:1")
        result = run_multicore(
            sharded_config(max_shard_retries=1), parallelism="inline"
        )
        assert result.degraded is None
        assert result.report() == serial.report()

    def test_exhausted_retries_degrade_gracefully(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "2:99")
        result = run_multicore(
            sharded_config(max_shard_retries=1), parallelism="inline"
        )
        degraded = result.degraded
        assert degraded is not None
        assert [record.index for record in degraded.failed_shards] == [2]
        record = degraded.failed_shards[0]
        assert record.seed == derive_seed(CONFIG.seed, 2, 4)
        assert record.attempts == 2  # initial try + one retry
        # Coverage accounting: the probes the campaign did execute are
        # exactly the planned universe minus the dead shard's slice.
        assert degraded.probes_lost == record.probes_lost
        assert result.capture.q1_sent == degraded.probes_completed
        assert 0.7 < degraded.coverage < 0.8  # one shard of four, strided
        assert "DEGRADED" in result.summary()

    def test_all_shards_failing_raises(self, monkeypatch):
        monkeypatch.setenv(
            CHAOS_RAISE_ENV, "0:99,1:99,2:99,3:99"
        )
        with pytest.raises(ShardExecutionError, match="all 4 shard"):
            run_multicore(
                sharded_config(max_shard_retries=0), parallelism="inline"
            )

    def test_hard_killed_worker_recovered_in_fresh_pool(
        self, serial, monkeypatch
    ):
        # os._exit(13) takes the worker process down mid-flight, before
        # it ships a frame; the recovery loop must requeue it into a
        # fresh worker and still merge byte-identically.
        monkeypatch.setenv(CHAOS_EXIT_ENV, "1:1")
        result = run_multicore(
            sharded_config(max_shard_retries=2), parallelism="process"
        )
        assert result.degraded is None
        assert result.report() == serial.report()


class TestCheckpointResume:
    def test_resume_runs_only_missing_shards(self, serial, monkeypatch, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        monkeypatch.setenv(CHAOS_RAISE_ENV, "3:99")
        interrupted = run_multicore(
            sharded_config(max_shard_retries=0),
            parallelism="inline",
            checkpoint_dir=checkpoint_dir,
        )
        assert interrupted.degraded is not None
        saved = load_shard_checkpoints(
            checkpoint_dir, checkpoint_fingerprint(sharded_config())
        )
        assert sorted(saved) == [0, 1, 2]

        monkeypatch.delenv(CHAOS_RAISE_ENV)
        executed = []

        def counting_run_shard(task, **kwargs):
            executed.append(task.index)
            return run_shard(task, **kwargs)

        monkeypatch.setattr(
            "repro.core.multicore.run_shard", counting_run_shard
        )
        resumed = run_multicore(
            sharded_config(),
            parallelism="inline",
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        assert executed == [3]
        assert resumed.degraded is None
        assert resumed.report() == serial.report()
        saved = load_shard_checkpoints(
            checkpoint_dir, checkpoint_fingerprint(sharded_config())
        )
        assert sorted(saved) == [0, 1, 2, 3]

    def test_resume_with_everything_checkpointed_runs_nothing(
        self, serial, monkeypatch, tmp_path
    ):
        checkpoint_dir = tmp_path / "ckpt"
        run_multicore(
            sharded_config(), parallelism="inline",
            checkpoint_dir=checkpoint_dir,
        )
        monkeypatch.setattr(
            "repro.core.multicore.run_shard",
            lambda task, **kwargs: pytest.fail("no shard should re-run"),
        )
        resumed = Campaign(sharded_config()).run(
            resume_from=checkpoint_dir
        )
        assert resumed.report() == serial.report()

    def test_resume_rejects_a_different_campaign(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        run_multicore(
            sharded_config(), parallelism="inline",
            checkpoint_dir=checkpoint_dir,
        )
        with pytest.raises(ValueError, match="different campaign"):
            run_multicore(
                dataclasses.replace(sharded_config(), seed=4),
                parallelism="inline",
                checkpoint_dir=checkpoint_dir,
                resume=True,
            )

    def test_resume_tolerates_raised_retry_budget(self, tmp_path):
        # max_shard_retries is excluded from the fingerprint: retrying
        # harder on resume is a legitimate recovery move.
        checkpoint_dir = tmp_path / "ckpt"
        run_multicore(
            sharded_config(max_shard_retries=0), parallelism="inline",
            checkpoint_dir=checkpoint_dir,
        )
        run_multicore(
            sharded_config(max_shard_retries=3), parallelism="inline",
            checkpoint_dir=checkpoint_dir, resume=True,
        )

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_multicore(sharded_config(), parallelism="inline", resume=True)

    def test_torn_checkpoint_is_re_run(self, serial, monkeypatch, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        run_multicore(
            sharded_config(), parallelism="inline",
            checkpoint_dir=checkpoint_dir,
        )
        (checkpoint_dir / "shard_0002.pkl").write_bytes(b"torn write")
        executed = []

        def counting_run_shard(task, **kwargs):
            executed.append(task.index)
            return run_shard(task, **kwargs)

        monkeypatch.setattr(
            "repro.core.multicore.run_shard", counting_run_shard
        )
        resumed = run_multicore(
            sharded_config(), parallelism="inline",
            checkpoint_dir=checkpoint_dir, resume=True,
        )
        assert executed == [2]
        assert resumed.report() == serial.report()

    def test_crash_between_tmp_write_and_rename_re_runs_only_that_shard(
        self, serial, monkeypatch, tmp_path
    ):
        # Simulate a worker killed mid-checkpoint: the shard's pickle
        # was written to its temp name but the rename never happened,
        # so the directory holds a stray *.tmp and no shard_0002.pkl.
        checkpoint_dir = tmp_path / "ckpt"
        run_multicore(
            sharded_config(), parallelism="inline",
            checkpoint_dir=checkpoint_dir,
        )
        committed = checkpoint_dir / "shard_0002.pkl"
        torn = checkpoint_dir / "shard_0002.pkl.tmp"
        torn.write_bytes(committed.read_bytes()[:64])
        committed.unlink()
        executed = []

        def counting_run_shard(task, **kwargs):
            executed.append(task.index)
            return run_shard(task, **kwargs)

        monkeypatch.setattr(
            "repro.core.multicore.run_shard", counting_run_shard
        )
        resumed = run_multicore(
            sharded_config(), parallelism="inline",
            checkpoint_dir=checkpoint_dir, resume=True,
        )
        assert executed == [2]
        assert resumed.report() == serial.report()
        # The torn temp file was quarantined, never adopted.
        assert not torn.exists()
        assert (checkpoint_dir / "shard_0002.pkl.tmp.quarantined").exists()
        saved = load_shard_checkpoints(
            checkpoint_dir, checkpoint_fingerprint(sharded_config())
        )
        assert sorted(saved) == [0, 1, 2, 3]


class TestFaultProfileCampaigns:
    def test_hostile_profile_completes_with_retries(self):
        result = Campaign(
            dataclasses.replace(CONFIG, fault_profile="hostile")
        ).run()
        capture = result.capture
        assert capture.q1_sent == Campaign(CONFIG).run().capture.q1_sent
        assert capture.retries_sent > 0
        assert capture.retries_exhausted > 0

    def test_fault_profile_reduces_but_does_not_zero_coverage(self, serial):
        hostile = Campaign(
            dataclasses.replace(CONFIG, fault_profile="hostile")
        ).run()
        assert 0 < hostile.capture.r2_count <= serial.capture.r2_count

    def test_none_profile_is_byte_identical_to_default(self, serial):
        explicit = Campaign(
            dataclasses.replace(CONFIG, fault_profile="none")
        ).run()
        assert explicit.report() == serial.report()

    def test_unknown_profile_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="fault profile"):
            dataclasses.replace(CONFIG, fault_profile="chaotic")

    def test_sharded_fault_run_stable_per_worker_blackholes(self):
        # Stochastic faults differ per shard, but every worker count
        # sees the same planned universe and target accounting.
        hostile = dataclasses.replace(CONFIG, fault_profile="hostile")
        two = run_multicore(
            dataclasses.replace(hostile, workers=2), parallelism="inline"
        )
        four = run_multicore(
            dataclasses.replace(hostile, workers=4), parallelism="inline"
        )
        assert two.capture.q1_sent == four.capture.q1_sent


class TestShardUniverseAccounting:
    def test_probes_lost_matches_strided_slice(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "1:99")
        result = run_multicore(
            sharded_config(max_shard_retries=0), parallelism="inline"
        )
        from repro.core.shard import _campaign_universe

        universe = _campaign_universe(sharded_config())
        record = result.degraded.failed_shards[0]
        assert record.probes_lost == len(shard_universe(universe, 1, 4))
        assert result.degraded.probes_planned == len(universe)
