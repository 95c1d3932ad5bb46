"""Golden table pins: the paper's headline shapes, frozen per seed.

Two layers of protection against silent analysis drift:

- *Shape pins* over the shared two-year worlds (DESIGN.md §4's
  reproduction criterion): Err(RA0) ≫ Err(RA1), the AA=1 error rate
  roughly doubling 2013→2018, malicious R2 roughly doubling while the
  open-resolver count drops ~4×.
- *Byte pins* of rendered tables at a pinned (seed, scale, year): any
  change to sampling, behavior assignment, joining, aggregation or
  rendering shows up as a diff here. Deliberate changes must update
  the goldens consciously.
"""

import pytest

from repro.analysis.report import render_correctness, render_flag_table
from repro.core import Campaign, CampaignConfig

GOLDEN_CONFIG = CampaignConfig(year=2018, scale=65536, seed=3)


@pytest.fixture(scope="module")
def golden_result():
    return Campaign(GOLDEN_CONFIG).run()


class TestShapes2013To2018(object):
    """DESIGN.md §4: shape, not absolute counts."""

    def test_ra0_error_dwarfs_ra1_both_years(self, both_years):
        result_2013, result_2018, _ = both_years
        for result in (result_2013, result_2018):
            ra = result.ra_table
            assert ra.zero.err > 10 * ra.one.err

    def test_aa1_error_rate_roughly_doubles(self, both_years):
        result_2013, result_2018, _ = both_years
        ratio = result_2018.aa_table.one.err / result_2013.aa_table.one.err
        assert 1.5 < ratio < 3.5  # paper: ~40% -> ~79%

    def test_malicious_r2_roughly_doubles(self, both_years):
        result_2013, result_2018, _ = both_years
        before = result_2013.malicious_categories.total_r2
        after = result_2018.malicious_categories.total_r2
        assert after >= 1.5 * before  # paper: 12,874 -> 26,926

    def test_open_resolvers_drop_about_4x(self, both_years):
        result_2013, result_2018, _ = both_years
        ratio = result_2018.estimates.ra_and_correct / (
            result_2013.estimates.ra_and_correct or 1
        )
        assert 0.15 < ratio < 0.35  # paper: ~1/4

    def test_responder_population_shrinks(self, both_years):
        result_2013, result_2018, _ = both_years
        assert result_2013.flow_set.r2_count > 2 * result_2018.flow_set.r2_count


class TestByteGoldens(object):
    """Exact rendered tables at (year=2018, scale=65536, seed=3)."""

    def test_table_iii_correctness(self, golden_result):
        assert render_correctness({2018: golden_result.correctness}) == (
            "Table III\n"
            "+------+----+-----+--------+----------+--------+\n"
            "| Year | R2 | W/O | W_Corr | W_Incorr | Err(%) |\n"
            "+------+----+-----+--------+----------+--------+\n"
            "| 2018 | 99 |  56 |     41 |        2 |  4.651 |\n"
            "+------+----+-----+--------+----------+--------+"
        )

    def test_table_iv_ra_flag(self, golden_result):
        assert render_flag_table({2018: golden_result.ra_table}) == (
            "Table IV\n"
            "+------+------+-----+--------+----------+-------+---------+\n"
            "| Year | Flag | W/O | W_Corr | W_Incorr | Total |  Err(%) |\n"
            "+------+------+-----+--------+----------+-------+---------+\n"
            "| 2018 |  RA0 |  52 |      0 |        1 |    53 | 100.000 |\n"
            "| 2018 |  RA1 |   4 |     41 |        1 |    46 |   2.381 |\n"
            "+------+------+-----+--------+----------+-------+---------+"
        )

    def test_table_v_aa_flag(self, golden_result):
        assert render_flag_table({2018: golden_result.aa_table}) == (
            "Table V\n"
            "+------+------+-----+--------+----------+-------+---------+\n"
            "| Year | Flag | W/O | W_Corr | W_Incorr | Total |  Err(%) |\n"
            "+------+------+-----+--------+----------+-------+---------+\n"
            "| 2018 |  AA0 |  54 |     41 |        0 |    95 |   0.000 |\n"
            "| 2018 |  AA1 |   2 |      0 |        2 |     4 | 100.000 |\n"
            "+------+------+-----+--------+----------+-------+---------+"
        )

    def test_probe_summary_magnitudes(self, golden_result):
        summary = golden_result.probe_summary
        assert (summary.q1, summary.q2_r1, summary.r2) == (56492, 198, 99)
        assert summary.duration_text == "10h 17m"

    def test_goldens_hold_under_sharding(self, golden_result):
        # The byte pins above must be exactly what a sharded run of the
        # same config renders, too.
        import dataclasses

        from repro.core.multicore import run_multicore

        sharded = run_multicore(
            dataclasses.replace(GOLDEN_CONFIG, workers=2), parallelism="inline"
        )
        assert sharded.report() == golden_result.report()
