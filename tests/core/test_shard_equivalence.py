"""Sharded-vs-serial equivalence: the shard engine's core guarantee.

For a fixed (seed, scale, year) and zero packet loss, the sharded
campaign must render every table of the report byte-identically to the
serial campaign, for any worker count, whether the shards run in
worker processes or in-process.
"""

import dataclasses

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.multicore import run_multicore
from repro.core.shard import (
    ShardTask,
    cluster_namespace_slice,
    shard_probe_count,
    shard_seed,
    shard_universe,
)
from repro.netsim.seeds import derive_seed

#: Coarse enough that one campaign runs in well under a second.
SCALE = 65536

CONFIG_2018 = CampaignConfig(year=2018, scale=SCALE, seed=3)
#: 64x is the CLI's default compression for 2013. At that pace the scan
#: reuses subdomains from long-superseded clusters, which is exactly the
#: regime where the auth server evicting old cluster zones once broke
#: equivalence (a reused qname NXDOMAINed or resolved depending on
#: install timing, which differs per worker count).
CONFIG_2013 = CampaignConfig(
    year=2013, scale=SCALE, seed=7, time_compression=64.0
)


@pytest.fixture(scope="module")
def serial_2018():
    return Campaign(CONFIG_2018).run()


@pytest.fixture(scope="module")
def serial_2013():
    return Campaign(CONFIG_2013).run()


class TestRenderedTableEquivalence(object):
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_2018_reports_byte_identical(self, serial_2018, workers):
        sharded = run_multicore(
            dataclasses.replace(CONFIG_2018, workers=workers),
            parallelism="inline",
        )
        assert sharded.report() == serial_2018.report()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_2013_reports_byte_identical(self, serial_2013, workers):
        sharded = run_multicore(
            dataclasses.replace(CONFIG_2013, workers=workers),
            parallelism="inline",
        )
        assert sharded.report() == serial_2013.report()

    def test_process_pool_path_byte_identical(self, serial_2018):
        # Force real worker processes: the inline fallback must not
        # mask workers that cannot ship shard work across the boundary.
        sharded = run_multicore(
            dataclasses.replace(CONFIG_2018, workers=4),
            parallelism="process",
        )
        assert sharded.report() == serial_2018.report()

    def test_campaign_run_workers_override(self, serial_2018):
        sharded = Campaign(CONFIG_2018).run(workers=2)
        assert sharded.report() == serial_2018.report()

    def test_campaign_run_honors_config_workers(self, serial_2018):
        config = dataclasses.replace(CONFIG_2018, workers=2)
        sharded = Campaign(config).run()
        assert sharded.report() == serial_2018.report()


class TestMergedArtifacts(object):
    def test_counts_match_serial(self, serial_2018):
        sharded = run_multicore(
            dataclasses.replace(CONFIG_2018, workers=4), parallelism="inline"
        )
        assert sharded.capture.q1_sent == serial_2018.capture.q1_sent
        assert sharded.capture.q1_bytes == serial_2018.capture.q1_bytes
        assert sharded.capture.r2_count == serial_2018.capture.r2_count
        assert sharded.flow_set.q2_count == serial_2018.flow_set.q2_count
        assert len(sharded.query_log) == len(serial_2018.query_log)

    def test_sharded_result_supports_followups(self):
        # The merged result carries a live deployed world, so the
        # fingerprint follow-up scan works exactly as on a serial run.
        from repro.fingerprint import VersionScanner

        sharded = run_multicore(
            dataclasses.replace(CONFIG_2018, workers=2), parallelism="inline"
        )
        targets = sorted(sharded.population.address_set())
        scan = VersionScanner(sharded.network).scan(targets)
        assert scan.responded > 0


class TestShardPrimitives(object):
    def test_shards_partition_the_universe(self):
        universe = list(range(103))
        shards = [shard_universe(universe, i, 4) for i in range(4)]
        merged = sorted(address for shard in shards for address in shard)
        assert merged == universe

    def test_probe_count_is_the_slice_length(self):
        for total in (0, 1, 7, 103):
            universe = list(range(total))
            for workers in (1, 2, 3, 4, 8):
                for index in range(workers):
                    assert shard_probe_count(total, index, workers) == len(
                        shard_universe(universe, index, workers)
                    )

    def test_one_shard_keeps_the_campaign_seed(self):
        assert shard_seed(3, 0, 1) == 3
        assert shard_seed(3, 1, 4) == derive_seed(3, 1, 4)
        assert shard_seed(3, 0, 2) == derive_seed(3, 0, 2)

    def test_namespace_slices_disjoint(self):
        slices = [cluster_namespace_slice(i, 4) for i in range(4)]
        for (a_low, a_high), (b_low, b_high) in zip(slices, slices[1:]):
            assert a_low < a_high <= b_low < b_high

    def test_too_many_workers_rejected(self):
        with pytest.raises(ValueError):
            cluster_namespace_slice(0, 10_000)

    def test_derived_seeds_distinct_and_stable(self):
        seeds = {derive_seed(3, i, 8) for i in range(8)}
        assert len(seeds) == 8
        assert derive_seed(3, 0, 8) == derive_seed(3, 0, 8)
        assert derive_seed(3, 0, 8) != derive_seed(4, 0, 8)

    def test_shard_task_validation(self):
        with pytest.raises(ValueError):
            ShardTask(config=CONFIG_2018, index=2, workers=2)
        with pytest.raises(ValueError):
            ShardTask(config=CONFIG_2018, index=-1, workers=2)

    def test_workers_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(workers=0)

    def test_unknown_parallelism_rejected(self):
        with pytest.raises(ValueError):
            run_multicore(CONFIG_2018, parallelism="threads")
