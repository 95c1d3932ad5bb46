"""End-to-end recursive resolution tests (Fig 1 of the paper)."""

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.message import make_query
from repro.dnslib.wire import decode_message, encode_message
from repro.dnslib.zone import parse_master_file
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network
from repro.netsim.packet import Datagram

ZONE_TEXT = """\
$ORIGIN ucfsealresearch.net.
$TTL 300
@ IN SOA ns1 hostmaster 1 2 3 4 5
@ IN NS ns1
ns1 IN A 45.76.1.10
or000.0000000 IN A 45.76.1.10
alias IN CNAME or000.0000000
"""

RESOLVER_IP = "93.184.10.1"
CLIENT_IP = "8.8.4.100"


def build_world(record_traces=False):
    network = Network()
    hierarchy = build_hierarchy(network)
    hierarchy.auth.load_zone(parse_master_file(ZONE_TEXT))
    resolver = RecursiveResolver(
        RESOLVER_IP, hierarchy.root_servers, record_traces=record_traces
    )
    resolver.attach(network)
    return network, hierarchy, resolver


def ask(network, qname, msg_id=1, qtype=QueryType.A):
    responses = []
    if not network.is_bound(CLIENT_IP, 5555):
        network.bind(CLIENT_IP, 5555, lambda dg, net: responses.append(dg))
    query = make_query(qname, qtype=qtype, msg_id=msg_id)
    network.send(Datagram(CLIENT_IP, 5555, RESOLVER_IP, 53, encode_message(query)))
    network.run()
    return [decode_message(dg.payload) for dg in responses]


class TestRecursiveResolution:
    def test_full_chain_resolves(self):
        network, hierarchy, resolver = build_world()
        (response,) = ask(network, "or000.0000000.ucfsealresearch.net", msg_id=77)
        assert response.header.msg_id == 77
        assert response.header.flags.ra
        assert not response.header.flags.aa
        assert response.rcode == Rcode.NOERROR
        assert response.first_a_record().data.address == "45.76.1.10"
        # Each tier of the hierarchy was consulted exactly once.
        assert hierarchy.root.queries_served == 1
        assert hierarchy.tld.queries_served == 1
        assert len(hierarchy.auth.query_log) == 1
        assert hierarchy.auth.query_log[0].src_ip == RESOLVER_IP

    def test_trace_matches_fig1(self):
        network, hierarchy, resolver = build_world(record_traces=True)
        ask(network, "or000.0000000.ucfsealresearch.net")
        (trace,) = resolver.traces
        assert trace.outcome == "answered"
        assert [step for step in trace.steps] == [
            (hierarchy.root.ip, "referral"),
            (hierarchy.tld.ip, "referral"),
            (hierarchy.auth.ip, "answer"),
        ]

    def test_nxdomain_propagates(self):
        network, _, _ = build_world()
        (response,) = ask(network, "missing.ucfsealresearch.net")
        assert response.rcode == Rcode.NXDOMAIN
        assert response.header.flags.ra

    def test_cache_short_circuits_second_query(self):
        network, hierarchy, resolver = build_world()
        ask(network, "or000.0000000.ucfsealresearch.net", msg_id=1)
        ask(network, "or000.0000000.ucfsealresearch.net", msg_id=2)
        assert hierarchy.root.queries_served == 1  # only the first walk
        assert resolver.stats.cache_answers == 1

    def test_unique_subdomains_defeat_cache(self):
        # The paper's core methodology: fresh qnames can never be cache hits.
        network, hierarchy, resolver = build_world()
        ask(network, "or000.0000000.ucfsealresearch.net", msg_id=1)
        ask(network, "alias.ucfsealresearch.net", msg_id=2)
        assert resolver.stats.cache_answers == 0

    def test_cname_chain_resolves(self):
        network, _, resolver = build_world()
        (response,) = ask(network, "alias.ucfsealresearch.net")
        assert response.rcode == Rcode.NOERROR
        assert response.first_a_record().data.address == "45.76.1.10"

    def test_unreachable_root_servfails(self):
        network = Network()
        resolver = RecursiveResolver(RESOLVER_IP, ["203.0.113.99"], timeout=0.5)
        resolver.attach(network)
        (response,) = ask(network, "x.ucfsealresearch.net")
        assert response.rcode == Rcode.SERVFAIL
        assert resolver.stats.servfail == 1

    def test_fallback_to_second_root(self):
        network = Network()
        hierarchy = build_hierarchy(network)
        hierarchy.auth.load_zone(parse_master_file(ZONE_TEXT))
        resolver = RecursiveResolver(
            RESOLVER_IP, ["203.0.113.99", hierarchy.root.ip], timeout=0.5
        )
        resolver.attach(network)
        (response,) = ask(network, "or000.0000000.ucfsealresearch.net")
        assert response.rcode == Rcode.NOERROR

    def test_stats_counters(self):
        network, _, resolver = build_world()
        ask(network, "or000.0000000.ucfsealresearch.net")
        assert resolver.stats.client_queries == 1
        assert resolver.stats.upstream_queries == 3  # root, tld, auth
        assert resolver.stats.answered == 1

    def test_requires_root_servers(self):
        import pytest

        with pytest.raises(ValueError):
            RecursiveResolver(RESOLVER_IP, [])

    def test_malformed_client_query_ignored(self):
        network, _, resolver = build_world()
        network.send(Datagram(CLIENT_IP, 5555, RESOLVER_IP, 53, b"junk"))
        network.run()
        assert resolver.stats.client_queries == 0


BLACKHOLE_ROOT = "203.0.113.77"


def build_blackholed(timeout=2.0):
    """A resolver whose only root never answers (TEST-NET, unbound)."""
    network = Network()
    resolver = RecursiveResolver(RESOLVER_IP, [BLACKHOLE_ROOT], timeout=timeout)
    resolver.attach(network)
    return network, resolver


def send_query(network, qname, msg_id=1):
    network.send(
        Datagram(
            CLIENT_IP, 5555, RESOLVER_IP, 53,
            encode_message(make_query(qname, msg_id=msg_id)),
        )
    )


def stuff(resolver, ids):
    """Occupy upstream message IDs with placeholder resolutions."""
    from repro.dnssrv.recursive import _Pending

    for msg_id in ids:
        resolver._pending[msg_id] = _Pending(
            client=None, query=None, qname="placeholder.example",
            qtype=int(QueryType.A), servers=[BLACKHOLE_ROOT],
        )


class TestTxidAllocation:
    """Regression: upstream message IDs wrapped at 0xFFFF and overwrote
    resolutions still in flight, and a timeout keyed by the bare ID
    could fail whichever resolution held that ID when it fired."""

    def upstream_ids(self, network):
        seen = []
        network.bind(
            BLACKHOLE_ROOT, 53,
            lambda dg, net: seen.append(decode_message(dg.payload).header.msg_id),
        )
        return seen

    def test_allocation_skips_ids_still_in_flight(self):
        network, resolver = build_blackholed()
        stuff(resolver, [1, 2, 3])
        resolver._next_id = 1
        send_query(network, "q.ucfsealresearch.net")
        network.run_until(0.5)
        assert 4 in resolver._pending
        assert resolver.stats.txid_collisions == 3
        assert len(resolver._pending) == 4

    def test_wraparound_probes_past_the_top_id(self):
        network, resolver = build_blackholed()
        stuff(resolver, [0xFFFF, 1])
        resolver._next_id = 0xFFFF
        send_query(network, "q.ucfsealresearch.net")
        network.run_until(0.5)
        assert 2 in resolver._pending
        assert resolver.stats.txid_collisions == 2

    def test_more_than_65535_in_flight_servfails_instead_of_overwriting(self):
        network, resolver = build_blackholed()
        stuff(resolver, range(1, 0x10000))  # every id busy
        before = dict(resolver._pending)
        responses = []
        network.bind(CLIENT_IP, 5555, lambda dg, net: responses.append(dg))
        send_query(network, "overflow.ucfsealresearch.net", msg_id=5)
        network.run_until(0.5)
        assert resolver.stats.txid_exhausted == 1
        assert resolver.stats.upstream_queries == 0
        assert resolver._pending == before  # nothing overwritten
        (response,) = [decode_message(dg.payload) for dg in responses]
        assert (response.header.msg_id, response.rcode) == (5, Rcode.SERVFAIL)
        assert resolver.stats.servfail == 1

    def test_orphaned_timer_cannot_fail_a_newer_resolution(self):
        network, resolver = build_blackholed(timeout=2.0)
        send_query(network, "first.ucfsealresearch.net")
        network.run_until(1.0)
        (msg_id,) = resolver._pending
        # The first resolution leaves the table without its timer being
        # cancelled, and a newer one takes its ID.
        del resolver._pending[msg_id]
        stuff(resolver, [msg_id])
        newer = resolver._pending[msg_id]
        network.run_until(5.0)
        assert resolver._pending[msg_id] is newer
        assert resolver.stats.servfail == 0
        assert resolver.stats.upstream_queries == 1

    def test_sequence_unchanged_without_collisions(self):
        network, resolver = build_blackholed(timeout=0.5)
        seen = self.upstream_ids(network)
        for index in range(3):
            send_query(network, f"q{index}.ucfsealresearch.net", index)
        network.run()
        assert seen == [1, 2, 3]
        assert resolver.stats.txid_collisions == 0
        assert resolver.stats.servfail == 3

    def test_slot_freed_by_an_answer_is_reusable(self):
        network, hierarchy, resolver = build_world()
        resolver._next_id = 0xFFFF
        ask(network, "or000.0000000.ucfsealresearch.net", msg_id=1)
        ask(network, "alias.ucfsealresearch.net", msg_id=2)
        assert resolver.pending_count == 0
        assert resolver.stats.answered == 2
        assert resolver.stats.txid_collisions == 0

    def test_counters_fold_into_serve_metrics(self):
        from repro.telemetry.hub import TelemetryHub
        from repro.transport.serve import ServeConfig, build_world as serve_world
        from repro.transport.sim import SimTransport

        world = serve_world(ServeConfig(port=5300), SimTransport(), infra_port=53)
        world.front.stats.txid_collisions = 3
        world.front.stats.txid_exhausted = 1
        hub = TelemetryHub()
        world.fold_metrics(hub)
        counters = hub.registry.snapshot().counters
        assert counters["serve.txid_collisions"] == 3
        assert counters["serve.txid_exhausted"] == 1


class TestFastPathEqualsSlowOracle:
    """The miss path on fastwire sends the full codec's bytes."""

    QUERIES = [
        ("or000.0000000.ucfsealresearch.net", QueryType.A),
        ("alias.ucfsealresearch.net", QueryType.A),  # CNAME restart
        ("missing.ucfsealresearch.net", QueryType.A),  # NXDOMAIN + SOA
        ("ucfsealresearch.net", QueryType.TXT),  # NODATA + SOA
        ("ns1.ucfsealresearch.net", QueryType.A),
        ("ucfsealresearch.net", QueryType.NS),
        ("or000.0000000.ucfsealresearch.net", QueryType.ANY),
        ("example.nosuchtld", QueryType.A),  # root NXDOMAIN
    ]

    def run(self, slow):
        network, hierarchy, resolver = build_world(record_traces=True)
        for component in (resolver, hierarchy.root, hierarchy.tld, hierarchy.auth):
            component._fast_ok = not slow
        replies = []
        network.bind(CLIENT_IP, 5555, lambda dg, net: replies.append(dg.payload))
        msg_id = 0
        for _ in range(3):  # the repeats are cache hits
            for qname, qtype in self.QUERIES:
                msg_id += 1
                network.send(Datagram(
                    CLIENT_IP, 5555, RESOLVER_IP, 53,
                    encode_message(make_query(qname, qtype=qtype, msg_id=msg_id)),
                ))
                network.run()
        return replies, resolver, hierarchy

    def test_answers_owned_by_other_names_keep_their_owner(self):
        # Four aliases of one length, CNAMEs to targets in another zone
        # that share one address: after the restart the client answers
        # share rdata. The first three (one target) verify a template;
        # the fourth's answer has another owner, so that template must
        # not serve it.
        aliases = ZONE_TEXT + "".join(
            f"al{index} IN CNAME tg{target}.sub.ucfsealresearch.net.\n"
            for index, target in enumerate((0, 0, 0, 3))
        )
        targets = "$ORIGIN sub.ucfsealresearch.net.\n" + "".join(
            f"tg{index} IN A 45.76.1.99\n" for index in (0, 3)
        )

        def run(slow):
            network = Network()
            hierarchy = build_hierarchy(network)
            hierarchy.auth.load_zone(parse_master_file(aliases))
            hierarchy.auth.load_zone(parse_master_file(targets))
            resolver = RecursiveResolver(RESOLVER_IP, hierarchy.root_servers)
            resolver.attach(network)
            for component in (resolver, hierarchy.root, hierarchy.tld,
                              hierarchy.auth):
                component._fast_ok = not slow
            replies = []
            network.bind(CLIENT_IP, 5555,
                         lambda dg, net: replies.append(dg.payload))
            for index in range(4):
                network.send(Datagram(
                    CLIENT_IP, 5555, RESOLVER_IP, 53,
                    encode_message(make_query(
                        f"al{index}.ucfsealresearch.net", msg_id=index
                    )),
                ))
                network.run()
            return replies

        assert run(slow=False) == run(slow=True)

    def test_replies_traces_and_counters_match(self):
        fast, fast_resolver, fast_hierarchy = self.run(slow=False)
        slow, slow_resolver, slow_hierarchy = self.run(slow=True)
        assert fast == slow
        assert fast_resolver.stats == slow_resolver.stats
        assert fast_resolver.traces == slow_resolver.traces
        assert fast_hierarchy.auth.query_log == slow_hierarchy.auth.query_log
        assert fast_resolver.stats.cache_answers > 0
