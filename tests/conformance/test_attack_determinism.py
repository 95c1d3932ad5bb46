"""Attack-matrix conformance: byte-identity across execution modes.

The adversarial suite rides the same contract as Tables II–X: for a
fixed config the attack × defense matrix must not depend on *how* the
campaign executed. Serial batch, sharded batch (any worker count),
streaming, and runs resumed from a mid-campaign checkpoint must all
render byte-identical matrices — the matrix is a pure function of
(seed, latency_median), derived through the dedicated splitmix64 attack
lane.

Golden pins freeze exact cell values at the seed-3 reference config so
an accidental reshuffle of any attack schedule (a new RNG draw, a lane
renumber, a retuned default) is caught as a diff, not a silent drift.
"""

import dataclasses

import pytest

from repro.attacks import (
    AttackSuiteConfig,
    MATRIX_HEADER,
    render_attack_matrix,
    run_attack_matrix,
)
from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore
from repro.core.shard import (
    CHAOS_RAISE_ENV,
    checkpoint_fingerprint,
)
from repro.datasets.store import load_shard_checkpoints

SCALE = 65536

BASE = CampaignConfig(year=2018, scale=SCALE, seed=3, attack_suite=True)


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


def _assert_same_matrix(result, reference):
    assert result.attack_matrix == reference.attack_matrix
    assert result.report() == reference.report()


class TestReportCarriesMatrix:
    def test_section_present_when_enabled(self, serial_batch):
        assert serial_batch.attack_matrix is not None
        assert MATRIX_HEADER in serial_batch.report()

    def test_default_off_leaves_tables_untouched(self, serial_batch):
        plain = _run(attack_suite=False)
        assert plain.attack_matrix is None
        assert MATRIX_HEADER not in plain.report()
        # The attack section is appended strictly after every census
        # table, so disabling it must subtract exactly that section and
        # perturb nothing else (Tables II–X byte-identity).
        assert serial_batch.report() == (
            plain.report()
            + "\n\n"
            + render_attack_matrix(serial_batch.attack_matrix)
        )


class TestCrossModeEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_matches_serial(self, serial_batch, workers):
        _assert_same_matrix(_run(workers=workers), serial_batch)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stream_matches_serial(self, serial_batch, workers):
        _assert_same_matrix(
            _run(mode="stream", workers=workers), serial_batch
        )

    def test_matrix_ignores_fault_profile_split(self, serial_batch):
        # Probe-plane faults reshape Tables II–X, but the attack matrix
        # is derived only from (seed, latency) — it must not move.
        faulted = _run(fault_profile="bursty", workers=2)
        assert faulted.attack_matrix == serial_batch.attack_matrix


class TestResumeEquivalence:
    def test_resumed_matrix_matches_full_run(
        self, serial_batch, monkeypatch, tmp_path
    ):
        config = _config(workers=4, max_shard_retries=0)
        checkpoint_dir = tmp_path / "ckpt"
        monkeypatch.setenv(CHAOS_RAISE_ENV, "3:99")
        interrupted = run_multicore(
            config, parallelism="inline", checkpoint_dir=checkpoint_dir
        )
        assert interrupted.degraded is not None
        # Even a degraded merge renders the (mode-invariant) matrix.
        assert interrupted.attack_matrix == serial_batch.attack_matrix
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
        _assert_same_matrix(resumed, serial_batch)


class TestGoldenPins:
    """Exact cell values at ``AttackSuiteConfig(seed=3)`` defaults.

    These are the same cells a ``CampaignConfig(seed=3)`` campaign
    embeds (the matrix inherits only seed and latency from the
    campaign), pinned against the standalone runner so the pin stays
    cheap. A drift here means an attack schedule, defense default, or
    seed lane moved — every one of those is a conformance break, not a
    tuning detail.
    """

    @pytest.fixture(scope="class")
    def matrix(self, serial_batch):
        standalone = run_attack_matrix(AttackSuiteConfig(seed=3))
        assert standalone == serial_batch.attack_matrix
        return standalone

    def test_nxns_row(self, matrix):
        undefended = matrix.cell("nxns", "undefended")
        assert undefended.amplification == pytest.approx(12.0)
        assert undefended.auth_queries == 1152
        assert undefended.glueless_launched == 1152
        hardened = matrix.cell("nxns", "hardened")
        assert hardened.amplification == pytest.approx(1.375)
        assert hardened.auth_queries == 132
        assert (hardened.glueless_launched, hardened.glueless_capped) == (
            132,
            660,
        )
        assert hardened.quota_refused == 30
        assert hardened.rrl_dropped == 54

    def test_water_torture_row(self, matrix):
        undefended = matrix.cell("water_torture", "undefended")
        assert undefended.auth_queries == 96
        assert undefended.auth_qps == pytest.approx(160.0)
        hardened = matrix.cell("water_torture", "hardened")
        assert hardened.auth_queries == 62
        assert hardened.negative_hits == 4
        assert hardened.quota_refused == 30

    def test_reflection_row(self, matrix):
        undefended = matrix.cell("reflection", "undefended")
        assert undefended.amplification == pytest.approx(20.4933, abs=5e-4)
        assert undefended.victim_bytes == 165996
        assert undefended.victim_packets == 108
        rrl = matrix.cell("reflection", "rrl")
        assert rrl.amplification == pytest.approx(6.8311, abs=5e-4)
        assert rrl.victim_packets == 36
        hardened = matrix.cell("reflection", "hardened")
        assert hardened.victim_bytes == 50977
        assert hardened.quota_refused == 42

    def test_benign_plane(self, matrix):
        for cell in matrix.rows:
            assert (cell.benign_sent, cell.benign_answered) == (96, 96)
