"""Regression guard: a streaming shard's result payload stays small.

The whole point of ``--drop-captures`` streaming plus the compact
codec is that what crosses the process boundary (and lands in shard
checkpoints) is accumulator state, not packets — a few KB regardless
of probe count. This pins that property to a fixed byte budget so a
field quietly added to :class:`TableAggregate` or
:class:`ShardOutcome` that drags O(probes) state back onto the wire
fails loudly here instead of silently fattening every ring frame and
checkpoint.

The budget (``OUTCOME_BUDGET_BYTES``, 64 KiB) is deliberately loose —
typical compact frames are under 1 KiB — because the failure mode it
guards against is asymptotic (per-probe state), not constant bloat:
doubling the probe count must not move the payload size.
"""

import dataclasses
import pickle

from repro.core import CampaignConfig
from repro.core.shard import ShardTask, run_shard
from repro.stream.codec import OUTCOME_BUDGET_BYTES, encode_outcome

STREAM_CONFIG = CampaignConfig(
    year=2018, seed=3, mode="stream", drop_captures=True, workers=2
)


def _outcome(scale):
    config = dataclasses.replace(STREAM_CONFIG, scale=scale)
    return run_shard(ShardTask(config=config, index=0, workers=2))


def test_compact_encoding_fits_budget():
    outcome = _outcome(scale=65536)
    blob = encode_outcome(outcome)
    assert blob is not None
    assert len(blob) < OUTCOME_BUDGET_BYTES


def test_pickled_outcome_fits_budget():
    # Shard checkpoints pickle the same outcome; the budget holds for
    # that format too, so checkpoints stay cheap.
    outcome = _outcome(scale=65536)
    payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(payload) < OUTCOME_BUDGET_BYTES


def test_payload_is_flat_in_probe_count():
    # 4x the probes must not move the payload materially: the compact
    # state is keyed by distinct destinations, not probes. Allow 2x
    # slack for genuinely destination-shaped growth.
    small = encode_outcome(_outcome(scale=65536))
    large = encode_outcome(_outcome(scale=16384))
    assert len(large) < 2 * len(small)
