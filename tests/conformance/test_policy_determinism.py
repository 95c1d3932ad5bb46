"""Policy-rung conformance: byte-identity across execution engines.

The policy posture is opt-in (``attack_policy``), and two contracts
hold simultaneously:

* **off** — the default ladder, every report and golden pin, is
  byte-identical to a build that has never heard of policies;
* **on** — the extended ladder's decisions are a pure function of the
  seed: serial batch, sharded runs in worker processes or in process
  (any worker count) and streaming all render byte-identical matrices
  and policy decision tables.

Golden pins freeze the policy cells at the seed-3 reference config, the
same convention as ``test_attack_determinism``: a drift means a rule,
lane, or schedule moved — a conformance break, not a tuning detail.
"""

import dataclasses

import pytest

from repro.attacks import (
    AttackSuiteConfig,
    POLICY_HEADER,
    postures_with_policy,
    render_attack_matrix,
    run_attack_matrix,
)
from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore

SCALE = 65536

BASE = CampaignConfig(
    year=2018, scale=SCALE, seed=3, attack_suite=True, attack_policy=True
)


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


class TestLadderShape:
    def test_policy_rung_appends_without_reshuffling(self, serial_batch):
        matrix = serial_batch.attack_matrix
        assert matrix.postures == (
            "undefended", "rrl", "quota", "hardened", "policy"
        )
        assert len(matrix.rows) == 20
        # The original sixteen cells are the *same cells* the default
        # ladder produces: the policy lane only appends.
        default = run_attack_matrix(AttackSuiteConfig(seed=3))
        for cell in default.rows:
            assert matrix.cell(cell.family, cell.posture) == cell

    def test_report_carries_the_decision_table(self, serial_batch):
        assert POLICY_HEADER in serial_batch.report()

    def test_default_off_has_no_policy_trace(self):
        plain = _run(attack_policy=False)
        report = plain.report()
        assert POLICY_HEADER not in report
        assert "policy" not in report
        assert len(plain.attack_matrix.rows) == 16


class TestCrossEngineEquivalence:
    def _assert_same(self, result, reference):
        assert result.attack_matrix == reference.attack_matrix
        assert result.report() == reference.report()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_pool_matches_serial(self, serial_batch, workers):
        # Campaign.run routes a sharded config to worker processes.
        self._assert_same(
            Campaign(_config(workers=workers)).run(), serial_batch
        )

    def test_stream_matches_serial(self, serial_batch):
        self._assert_same(_run(mode="stream", workers=2), serial_batch)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_multicore_matches_serial(self, serial_batch, workers):
        self._assert_same(
            run_multicore(_config(workers=workers), parallelism="inline"),
            serial_batch,
        )

    def test_standalone_matrix_matches_campaign(self, serial_batch):
        standalone = run_attack_matrix(
            AttackSuiteConfig(seed=3, postures=postures_with_policy())
        )
        assert standalone == serial_batch.attack_matrix
        assert (
            render_attack_matrix(standalone)
            in serial_batch.report()
        )


class TestGoldenPolicyPins:
    """Exact policy-cell values at seed 3 (the reference config)."""

    @pytest.fixture(scope="class")
    def matrix(self, serial_batch):
        return serial_batch.attack_matrix

    def test_nxns_neutralized_by_qname_block(self, matrix):
        cell = matrix.cell("nxns", "policy")
        assert cell.policy_nxdomain == 96
        assert cell.policy_blocked == 96
        assert cell.auth_queries == 0
        assert cell.amplification == pytest.approx(0.0)

    def test_water_torture_neutralized_by_label_block(self, matrix):
        cell = matrix.cell("water_torture", "policy")
        assert cell.policy_nxdomain == 96
        assert cell.auth_queries == 0

    def test_reflection_deflated_by_sinkhole(self, matrix):
        cell = matrix.cell("reflection", "policy")
        assert cell.policy_sinkholed == 108
        assert cell.victim_bytes == 8640
        assert cell.victim_packets == 108
        assert cell.amplification == pytest.approx(1.0667, abs=5e-4)
        assert cell.auth_queries == 0

    def test_baseline_policy_cell_decides_nothing(self, matrix):
        cell = matrix.cell("baseline", "policy")
        assert cell.policy_blocked == 0
        assert cell.policy_sinkholed == 0

    def test_benign_plane_untouched_by_policy(self, matrix):
        for cell in matrix.rows:
            assert (cell.benign_sent, cell.benign_answered) == (96, 96)

    def test_policy_counts_zero_outside_the_policy_rung(self, matrix):
        for cell in matrix.rows:
            if cell.posture != "policy":
                assert cell.policy_blocked == 0
                assert cell.policy_sinkholed == 0
                assert cell.policy_routed == 0
                assert cell.policy_rewritten == 0
