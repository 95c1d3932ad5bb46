"""Golden streaming-vs-batch equivalence: the stream pipeline's core
guarantee.

For every (seed, year, fault profile, worker count) the streaming
campaign must render the full Tables II–X report byte-identically to
the batch campaign with the same sharding — including ``drop_captures``
runs that never retain a single raw packet.
"""

import dataclasses

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore

#: Coarse enough that one campaign runs in well under a second.
SCALE = 65536

CONFIG_2018 = CampaignConfig(year=2018, scale=SCALE, seed=3)
#: The subdomain-reuse regime (see test_shard_equivalence): clusters
#: cycle fast enough that evicted qnames resurface, the hardest case
#: for online flow eviction.
CONFIG_2013 = CampaignConfig(
    year=2013, scale=SCALE, seed=7, time_compression=64.0
)


def _stream(config, **overrides):
    return dataclasses.replace(config, mode="stream", **overrides)


@pytest.fixture(scope="module")
def batch_2018():
    return Campaign(CONFIG_2018).run()


@pytest.fixture(scope="module")
def batch_2013():
    return Campaign(CONFIG_2013).run()


class TestSerialEquivalence(object):
    def test_2018_report_byte_identical(self, batch_2018):
        streamed = Campaign(_stream(CONFIG_2018)).run()
        assert streamed.report() == batch_2018.report()

    def test_2013_reuse_regime_byte_identical(self, batch_2013):
        streamed = Campaign(_stream(CONFIG_2013)).run()
        assert streamed.report() == batch_2013.report()

    @pytest.mark.parametrize("seed", [0, 11])
    def test_other_seeds_byte_identical(self, seed):
        config = dataclasses.replace(CONFIG_2018, seed=seed)
        batch = Campaign(config).run()
        streamed = Campaign(_stream(config)).run()
        assert streamed.report() == batch.report()

    @pytest.mark.parametrize("profile", ["none", "bursty", "hostile"])
    def test_fault_profiles_byte_identical(self, profile):
        config = dataclasses.replace(CONFIG_2018, fault_profile=profile)
        batch = Campaign(config).run()
        streamed = Campaign(_stream(config)).run()
        assert streamed.report() == batch.report()

    def test_flow_set_matches_batch_in_retention_mode(self, batch_2018):
        # Default streaming retains captures, so follow-up consumers
        # (persistence, monitor snapshots) see the batch-identical join.
        streamed = Campaign(_stream(CONFIG_2018)).run()
        assert streamed.flow_set.views == batch_2018.flow_set.views
        assert len(streamed.query_log) == len(batch_2018.query_log)


class TestShardedEquivalence(object):
    @pytest.mark.parametrize("profile", ["none", "bursty", "hostile"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_stream_matches_batch_at_same_worker_count(self, profile, workers):
        config = dataclasses.replace(
            CONFIG_2018, fault_profile=profile, workers=workers
        )
        batch = run_multicore(config, parallelism="inline")
        streamed = run_multicore(_stream(config), parallelism="inline")
        assert streamed.report() == batch.report()

    def test_2013_sharded_drop_captures(self, ):
        config = dataclasses.replace(CONFIG_2013, workers=3)
        batch = run_multicore(config, parallelism="inline")
        streamed = run_multicore(
            _stream(config, drop_captures=True), parallelism="inline"
        )
        assert streamed.report() == batch.report()

    def test_merged_stream_stats_cover_all_shards(self):
        config = _stream(dataclasses.replace(CONFIG_2018, workers=4))
        result = run_multicore(config, parallelism="inline")
        serial = Campaign(_stream(CONFIG_2018)).run()
        assert result.stream_stats is not None
        assert result.stream_stats.r2_events == serial.stream_stats.r2_events
        assert result.stream_stats.q2_events == serial.stream_stats.q2_events


class TestDropCaptures(object):
    def test_tables_identical_with_nothing_retained(self, batch_2018):
        result = Campaign(_stream(CONFIG_2018, drop_captures=True)).run()
        assert result.report() == batch_2018.report()
        assert result.capture.r2_records == []
        assert result.flow_set.flows == {}
        assert result.flow_set.unjoinable == []
        assert result.query_log == []

    def test_requires_stream_mode(self):
        with pytest.raises(ValueError):
            CampaignConfig(drop_captures=True)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(mode="firehose")


class TestCheckpointResume(object):
    def test_aggregate_checkpoints_resume_byte_identical(self, tmp_path):
        config = _stream(
            dataclasses.replace(
                CONFIG_2018, fault_profile="hostile", workers=4
            ),
            drop_captures=True,
        )
        first = run_multicore(
            config, parallelism="inline", checkpoint_dir=tmp_path
        )
        resumed = run_multicore(
            config, parallelism="inline", checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.report() == first.report()

    def test_drop_captures_checkpoints_stay_small(self, tmp_path):
        config = _stream(
            dataclasses.replace(CONFIG_2018, workers=2), drop_captures=True
        )
        run_multicore(config, parallelism="inline", checkpoint_dir=tmp_path)
        shard_files = sorted(tmp_path.glob("shard_*.pkl"))
        assert shard_files, "no shard checkpoints written"
        for path in shard_files:
            # Accumulator state only — kilobytes, not captures.
            assert path.stat().st_size < 64 * 1024


class TestStreamStats(object):
    def test_batch_result_has_no_stream_stats(self, batch_2018):
        assert batch_2018.stream_stats is None

    def test_stream_stats_match_scan_shape(self, batch_2018):
        result = Campaign(_stream(CONFIG_2018)).run()
        stats = result.stream_stats
        assert stats is not None
        assert stats.r2_events == batch_2018.flow_set.r2_count
        assert stats.q2_events == len(batch_2018.query_log)
        assert stats.flows_evicted <= stats.flows_opened
        assert 0 < stats.peak_live_flows <= stats.flows_opened

    def test_eviction_bounds_live_flows(self):
        # The whole point: peak live flows stays far below total flows.
        result = Campaign(_stream(CONFIG_2018)).run()
        stats = result.stream_stats
        assert stats.peak_live_flows < stats.flows_opened / 2

    def test_stats_absent_from_report_bytes(self, batch_2018):
        # summary()/report() must not mention streaming, or byte
        # identity with the batch path would be unsatisfiable.
        streamed = Campaign(_stream(CONFIG_2018)).run()
        assert "stream" not in streamed.summary()
        assert streamed.summary() == batch_2018.summary()
