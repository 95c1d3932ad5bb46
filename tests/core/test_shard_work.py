"""What a shard worker pays: O(hosts) setup and one decode per R2.

A shard picks its hosts by testing their integer addresses against its
slice of the universe, never by rendering the slice to dotted quads, and
a run that retains its captures builds its flow set from the views the
stream assembler already decoded. These tests pin both rules: the
integer slice selects exactly the hosts the old string filter did, the
view-built flow set equals the batch join, and the work counters of one
``run_shard`` stay at the host count and the R2 count.
"""

import dataclasses
import importlib
import sys
import types

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core import multicore, shard
from repro.core.shard import (
    ShardTask,
    _campaign_universe,
    _campaign_world,
    prime_shard_caches,
    run_shard,
    shard_assignments,
    shard_universe,
)
from repro.netsim.ipv4 import int_to_ip, ip_to_int
from repro.prober.capture import join_flows, parse_r2

SCALE = 65536

CONFIG_2018 = CampaignConfig(year=2018, scale=SCALE, seed=3)
CONFIG_2013 = CampaignConfig(
    year=2013, scale=SCALE, seed=7, time_compression=64.0
)


def _count_calls(monkeypatch, module_name: str, name: str) -> list[int]:
    """Count calls of ``module_name.name`` from every module bound to it.

    Modules import these helpers by name, so patching the defining
    module alone would miss most call sites.
    """
    original = getattr(importlib.import_module(module_name), name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def _batch_join(capture, query_log):
    """The reference flow set: every captured R2 decoded again."""
    return join_flows(
        capture.r2_records, types.SimpleNamespace(query_log=query_log)
    )


def _assert_same_flow_set(actual, expected):
    assert list(actual.flows.items()) == list(expected.flows.items())
    assert actual.unjoinable == expected.unjoinable


class TestShardAssignments:
    @pytest.mark.parametrize("config", [CONFIG_2018, CONFIG_2013])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    def test_partitions_the_population_like_the_string_filter(
        self, config, workers
    ):
        universe = _campaign_universe(config)
        population = _campaign_world(config, universe)[0]
        assignments = population.assignments
        owner: dict[int, int] = {}
        for index in range(workers):
            addresses = shard_universe(universe, index, workers)
            local = shard_assignments(assignments, addresses)
            slice_ips = {int_to_ip(address) for address in addresses}
            assert local == [
                assignment
                for assignment in assignments
                if assignment.ip in slice_ips
            ]
            for assignment in local:
                assert id(assignment) not in owner
                owner[id(assignment)] = index
        assert len(owner) == len(assignments)

    def test_keeps_population_order_and_ignores_outside_hosts(self):
        universe = _campaign_universe(CONFIG_2018)
        population = _campaign_world(CONFIG_2018, universe)[0]
        hosts = population.assignments[:6]
        outside = dataclasses.replace(hosts[0], ip="192.0.2.1")
        assert ip_to_int(outside.ip) not in set(universe)
        picked = shard_assignments(
            [hosts[3], outside, hosts[1], hosts[5]], universe
        )
        assert picked == [hosts[3], hosts[1], hosts[5]]


def _with_empty_questions(config):
    """``config``'s world with every fifth host echoing no question.

    At test scales the sampled world holds no empty-question cell (the
    paper saw 494 such packets in the full 2018 scan), so the hosts are
    flipped here to put unjoinable R2s on the wire.
    """
    universe = _campaign_universe(config)
    population = _campaign_world(config, universe)[0]
    assignments = [
        dataclasses.replace(
            assignment,
            spec=dataclasses.replace(assignment.spec, empty_question=True),
        )
        if position % 5 == 0
        else assignment
        for position, assignment in enumerate(population.assignments)
    ]
    return dataclasses.replace(population, assignments=assignments)


class TestOneDecodeFlowSet:
    """The view-built flow set equals ``join_flows`` over the captures.

    The hostile fault profile duplicates deliveries (the last view of a
    qname wins) and the override world answers with empty questions
    (unjoinable views keep arrival order); both are asserted present.
    """

    @staticmethod
    def _assert_hostile_shapes(captures, flow_sets):
        duplicated = 0
        for capture in captures:
            views = [parse_r2(record) for record in capture.r2_records]
            qnames = [view.qname for view in views if view.qname]
            duplicated += len(qnames) - len(set(qnames))
        assert duplicated > 0
        assert all(flow_set.unjoinable for flow_set in flow_sets)

    @pytest.mark.parametrize("fault_profile", ["none", "hostile"])
    def test_serial_stream(self, fault_profile):
        config = dataclasses.replace(
            CONFIG_2018, mode="stream", fault_profile=fault_profile
        )
        result = Campaign(config).run(
            population_override=_with_empty_questions(config)
        )
        expected = _batch_join(result.capture, result.query_log)
        _assert_same_flow_set(result.flow_set, expected)
        assert result.flow_set.flows
        if fault_profile == "hostile":
            self._assert_hostile_shapes([result.capture], [result.flow_set])

    @pytest.mark.parametrize("config", [CONFIG_2018, CONFIG_2013])
    @pytest.mark.parametrize("fault_profile", ["none", "hostile"])
    def test_shard_stream(self, config, fault_profile):
        config = dataclasses.replace(
            config, mode="stream", fault_profile=fault_profile, workers=2
        )
        override = _with_empty_questions(config)
        outcomes = [
            run_shard(
                ShardTask(
                    config, index=index, workers=2,
                    population_override=override,
                )
            )
            for index in range(2)
        ]
        for outcome in outcomes:
            expected = _batch_join(outcome.capture, outcome.query_log)
            _assert_same_flow_set(outcome.flow_set, expected)
            assert outcome.flow_set.flows
        if fault_profile == "hostile":
            self._assert_hostile_shapes(
                [outcome.capture for outcome in outcomes],
                [outcome.flow_set for outcome in outcomes],
            )

    def test_drop_captures_ships_no_flows(self):
        config = dataclasses.replace(
            CONFIG_2018, mode="stream", drop_captures=True, workers=2
        )
        outcome = run_shard(ShardTask(config, index=0, workers=2))
        assert outcome.flow_set.flows == {}
        assert outcome.flow_set.unjoinable == []
        assert outcome.stream_stats.r2_events > 0


class TestShardWorkCounters:
    """Exact setup and decode work of one ``run_shard``.

    A shard converts each host's address once and renders a dotted
    quad only for the probes it sends to a host; rendering the whole
    slice cost one ``int_to_ip`` per probed address. Each delivered R2
    is decoded once; a retained stream run used to decode it twice.
    """

    WORKERS = 2

    def _config(self, **overrides):
        return dataclasses.replace(
            CONFIG_2018, workers=self.WORKERS, **overrides
        )

    def test_address_conversions_scale_with_hosts(self, monkeypatch):
        config = self._config(mode="stream")
        # The universe walk and the sampled world are shared, config-pure
        # state (forked in by the multicore engine); count only the
        # shard's own work.
        prime_shard_caches(config)
        universe = _campaign_universe(config)
        population = _campaign_world(config, universe)[0]
        addresses = shard_universe(universe, 0, self.WORKERS)
        calls = _count_calls(monkeypatch, "repro.netsim.ipv4", "int_to_ip")
        run_shard(ShardTask(config, index=0, workers=self.WORKERS))
        hosts = len(population.assignments)
        host_ints = {
            ip_to_int(assignment.ip) for assignment in population.assignments
        }
        hint_hit_sends = len(host_ints.intersection(addresses))
        assert 0 < calls[0] <= hosts + hint_hit_sends
        # The bound is far below the slice the old filter rendered.
        assert hosts + hint_hit_sends < len(addresses) // 10

    @pytest.mark.parametrize(
        "mode, drop_captures",
        [("batch", False), ("stream", False), ("stream", True)],
    )
    def test_one_decode_per_r2_delivery(
        self, monkeypatch, mode, drop_captures
    ):
        config = self._config(
            mode=mode, drop_captures=drop_captures, fault_profile="hostile"
        )
        calls = _count_calls(monkeypatch, "repro.prober.capture", "parse_r2")
        outcome = run_shard(ShardTask(config, index=0, workers=self.WORKERS))
        if drop_captures:
            deliveries = outcome.stream_stats.r2_events
        else:
            deliveries = len(outcome.capture.r2_records)
        if outcome.stream_stats is not None:
            assert outcome.stream_stats.r2_events == deliveries
        assert deliveries > 0
        assert calls[0] == deliveries


class TestUniversePrimedWithOverride:
    def test_parent_memo_set_before_a_process_round(self, monkeypatch):
        if not multicore._fork_available():
            pytest.skip("population_override needs the fork start method")
        config = dataclasses.replace(
            CONFIG_2018, workers=2, engine="multicore"
        )
        universe = _campaign_universe(config)
        override = _campaign_world(config, universe)[0]
        monkeypatch.setattr(shard, "_universe_cache", None)
        seen = []
        real_round = multicore._run_round_processes

        def spying_round(*args, **kwargs):
            cached = shard._universe_cache
            primed = cached is not None and cached[1] == universe
            seen.append((args[3] is override, primed))
            return real_round(*args, **kwargs)

        monkeypatch.setattr(multicore, "_run_round_processes", spying_round)
        result = multicore.run_multicore(
            config, population_override=override, parallelism="process"
        )
        assert seen == [(True, True)]
        assert sum(result.engine_stats["worker_q1"].values()) == len(universe)
