"""End-to-end campaign API: population -> scan -> analysis -> report."""

from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    DegradedManifest,
    ShardFailureRecord,
    run_both_years,
)
from repro.core.shard import (
    ShardExecutionError,
    ShardOutcome,
    ShardTask,
    checkpoint_fingerprint,
    run_in_process,
    run_shard,
    shard_universe,
)
from repro.core.sweep import MetricStats, SweepResult, run_seed_sweep

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "DegradedManifest",
    "MetricStats",
    "ShardExecutionError",
    "ShardFailureRecord",
    "ShardOutcome",
    "ShardTask",
    "SweepResult",
    "checkpoint_fingerprint",
    "run_both_years",
    "run_seed_sweep",
    "run_in_process",
    "run_shard",
    "shard_universe",
]
