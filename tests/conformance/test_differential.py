"""Differential conformance across execution modes.

The two new census tables — transparent forwarders (off-path R2 join)
and DNSSEC validation behavior (bogus-RRSIG probe) — ride the same
byte-identity contract as Tables II–X: for a fixed config the rendered
report must not depend on *how* the campaign executed. Concretely:

- at zero loss, any worker count and either mode renders the serial
  batch report byte-for-byte;
- under a fault profile, batch and stream at the same worker count
  render identically (faults are derived per-shard, so worker counts
  are distinct populations by design);
- a campaign resumed from a mid-campaign checkpoint renders the same
  report as an uninterrupted run.

Structured-table equality (``forwarder_table`` / ``validation_table``
dataclasses) is asserted alongside the rendered text so a renderer that
happens to collapse two different tables into the same string cannot
mask a join divergence.
"""

import dataclasses

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore
from repro.core.shard import (
    CHAOS_RAISE_ENV,
    checkpoint_fingerprint,
)
from repro.datasets.store import load_shard_checkpoints

#: Coarse enough that one campaign runs in well under a second.
SCALE = 65536

BASE = CampaignConfig(year=2018, scale=SCALE, seed=3)

#: Section headers of the two new tables inside ``report()``.
FORWARDER_HEADER = "Transparent forwarders (off-path R2)"
VALIDATION_HEADER = "DNSSEC validation behavior"


def _config(**overrides):
    return dataclasses.replace(BASE, **overrides)


def _run(**overrides):
    config = _config(**overrides)
    if config.workers > 1:
        return run_multicore(config, parallelism="inline")
    return Campaign(config).run()


@pytest.fixture(scope="module")
def serial_batch():
    return _run()


@pytest.fixture(scope="module")
def bursty_by_workers():
    """Batch runs under the bursty profile, one per worker count."""
    return {
        workers: _run(fault_profile="bursty", workers=workers)
        for workers in (1, 2, 4)
    }


def _assert_same_tables(result, reference):
    assert result.report() == reference.report()
    assert result.forwarder_table == reference.forwarder_table
    assert result.validation_table == reference.validation_table


class TestReportCarriesNewTables:
    def test_both_sections_present(self, serial_batch):
        report = serial_batch.report()
        assert FORWARDER_HEADER in report
        assert VALIDATION_HEADER in report

    def test_summary_stays_mode_agnostic(self, serial_batch):
        assert "stream" not in serial_batch.summary()


class TestZeroLossEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_stream_matches_serial_batch(self, serial_batch, workers):
        streamed = _run(mode="stream", workers=workers)
        _assert_same_tables(streamed, serial_batch)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_batch_matches_serial_batch(self, serial_batch, workers):
        sharded = _run(workers=workers)
        _assert_same_tables(sharded, serial_batch)


class TestBurstyEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_stream_matches_batch_same_workers(
        self, bursty_by_workers, workers
    ):
        streamed = _run(
            fault_profile="bursty", mode="stream", workers=workers
        )
        _assert_same_tables(streamed, bursty_by_workers[workers])

    def test_validation_table_invariant_to_workers(self, bursty_by_workers):
        # The validation census is a pure function of campaign knobs
        # (seed, year, latency, loss, fault profile) — never of the
        # execution split — so it must agree even where the probe
        # tables legitimately differ between worker counts.
        tables = {
            workers: result.validation_table
            for workers, result in bursty_by_workers.items()
        }
        assert tables[1] == tables[2] == tables[4]


class TestResumeEquivalence:
    @pytest.mark.parametrize("profile", ["none", "bursty"])
    def test_resumed_report_matches_full_run(
        self, monkeypatch, tmp_path, profile
    ):
        config = _config(
            fault_profile=profile, workers=4, max_shard_retries=0
        )
        checkpoint_dir = tmp_path / "ckpt"
        # Kill shard 3 on its first attempt: the run checkpoints shards
        # 0-2 and exits degraded, a genuine mid-campaign interruption.
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
        full = run_multicore(config, parallelism="inline")
        assert resumed.degraded is None
        _assert_same_tables(resumed, full)


class TestGoldenPins:
    """Exact values at the (2018, 1/65536, seed 3) reference config.

    A drift here means the sampling stream or the overlay RNG moved —
    which silently invalidates every other pinned table in the suite.
    """

    def test_forwarder_table(self, serial_batch):
        table = serial_batch.forwarder_table
        assert table is not None
        assert (table.on_path, table.off_path) == (96, 3)
        assert table.off_path_share == pytest.approx(3.030, abs=5e-4)
        assert {row.upstream: row.fan_in for row in table.rows} == {
            "192.0.2.3": 2,
            "192.0.2.2": 1,
        }

    def test_validation_table(self, serial_batch):
        table = serial_batch.validation_table
        assert table is not None
        assert table.targets == 99
        assert (table.validating, table.non_validating) == (3, 37)
        assert table.unresponsive == 59
        assert table.responsive == 40
        assert table.validating_share == pytest.approx(7.500, abs=5e-4)
