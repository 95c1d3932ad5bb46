"""Round-trip tests for the compact shard-outcome codec.

The codec is a wire format: every aggregate field that feeds a table
must survive encode→decode exactly, and the encoding itself must be
deterministic (the multicore engine ships these bytes between
processes, and the conformance suite's byte-identity contract rides on
them). Rather than hand-build aggregates field by field, the tests run
small real campaigns — batch for the non-compact refusal, streaming
``drop_captures`` for the compact path — so the encoded state is
exactly what a multicore worker would ship.
"""

import dataclasses
import pickle

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.shard import ShardTask, run_shard
from repro.stream.codec import (
    OUTCOME_BUDGET_BYTES,
    decode_aggregate,
    decode_outcome,
    decode_stream_stats,
    encode_aggregate,
    encode_outcome,
    encode_stream_stats,
)

SCALE = 65536

STREAM_CONFIG = CampaignConfig(
    year=2018, scale=SCALE, seed=3, mode="stream", drop_captures=True
)
BATCH_CONFIG = CampaignConfig(year=2018, scale=SCALE, seed=3)


def _stream_outcome(index=0, workers=2):
    config = dataclasses.replace(STREAM_CONFIG, workers=workers)
    return run_shard(ShardTask(config=config, index=index, workers=workers))


@pytest.fixture(scope="module")
def outcome():
    return _stream_outcome()


class TestAggregateRoundTrip:
    def test_tables_survive(self, outcome):
        aggregate = outcome.aggregate
        decoded = decode_aggregate(encode_aggregate(aggregate))
        assert decoded == aggregate

    def test_decoded_state_pickles_no_larger(self, outcome):
        # Every sharded checkpoint pickles a decoded aggregate, so the
        # decode must not unshare the addresses the worker's maps share.
        decoded = decode_aggregate(encode_aggregate(outcome.aggregate))
        assert len(pickle.dumps(decoded)) <= len(
            pickle.dumps(outcome.aggregate)
        )

    def test_encoding_is_deterministic(self, outcome):
        assert encode_aggregate(outcome.aggregate) == encode_aggregate(
            outcome.aggregate
        )

    def test_faulty_aggregate_round_trips(self):
        # A bursty run exercises the retry/rcode/unjoinable dict fields
        # a clean run leaves sparse.
        config = dataclasses.replace(
            STREAM_CONFIG, fault_profile="bursty", workers=2
        )
        shard = run_shard(ShardTask(config=config, index=1, workers=2))
        decoded = decode_aggregate(encode_aggregate(shard.aggregate))
        assert decoded == shard.aggregate


class TestStreamStatsRoundTrip:
    def test_all_counters_survive(self, outcome):
        stats = outcome.stream_stats
        assert stats is not None
        decoded = decode_stream_stats(encode_stream_stats(stats))
        assert decoded == stats


class TestOutcomeRoundTrip:
    def test_compact_outcome_round_trips(self, outcome):
        blob = encode_outcome(outcome)
        assert blob is not None
        decoded = decode_outcome(blob)
        assert decoded.index == outcome.index
        assert decoded.aggregate == outcome.aggregate
        assert decoded.stream_stats == outcome.stream_stats
        assert decoded.capture.q1_sent == outcome.capture.q1_sent
        assert decoded.capture.start_time == outcome.capture.start_time
        assert decoded.capture.end_time == outcome.capture.end_time
        assert (
            decoded.capture.cluster_stats == outcome.capture.cluster_stats
        )
        assert decoded.flow_set.flows == {}
        assert decoded.query_log == []

    def test_batch_outcome_refused(self):
        # Batch shards carry O(probes) raw state the compact format
        # deliberately cannot express; the engine falls back to pickle.
        config = dataclasses.replace(BATCH_CONFIG, workers=2)
        shard = run_shard(ShardTask(config=config, index=0, workers=2))
        assert encode_outcome(shard) is None

    def test_compact_blob_is_small(self, outcome):
        blob = encode_outcome(outcome)
        assert len(blob) < OUTCOME_BUDGET_BYTES

    def test_telemetry_snapshot_survives(self):
        from repro.telemetry import TelemetryConfig

        config = dataclasses.replace(STREAM_CONFIG, workers=2)
        shard = run_shard(
            ShardTask(
                config=config, index=0, workers=2,
                telemetry=TelemetryConfig(),
            )
        )
        assert shard.telemetry is not None
        decoded = decode_outcome(encode_outcome(shard))
        assert decoded.telemetry == shard.telemetry
