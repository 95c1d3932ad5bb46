"""The recursive serve path on the fastwire layer: equivalence and work.

A serving world built by :func:`repro.transport.serve.build_world` on
:class:`~repro.transport.sim.SimTransport` is run against an oracle
world whose components have ``_fast_ok`` off, so every query, referral,
reply and answer there goes through the full codec. The two must emit
the same bytes in the same order and end with the same counters, over
random qnames and the shapes that step off the fast path: mixed case,
maximum-length names, other qtypes, CHAOS ``version.bind``, an empty
question, and the RRL, negative-TTL, glueless-chasing and policy knobs.

:class:`TestServeWorkCounters` pins the work of a batch of unique cache
misses exactly, so a "doing more work" regression fails on any host.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.zones import NxnsAuthServer
from repro.dnslib.constants import DnsClass, QueryType
from repro.dnssrv.delegation import Delegation
from repro.netsim.packet import Datagram
from repro.transport.serve import DEFAULT_SLD, ServeConfig, build_world
from repro.transport.sim import SimTransport

CLIENT_IP = "8.8.4.100"
CLIENT_PORT = 5555
#: The glueless case: an NXNS-style server delegated from the TLD.
NXNS_ZONE = "nxns-attacker.net"
NXNS_IP = "127.77.0.9"

CONFIGS = {
    "plain": ServeConfig(port=5300),
    "rrl": ServeConfig(port=5300, rate_limit=20.0),
    "negative-ttl": ServeConfig(port=5300, negative_ttl=30.0),
    "glueless": ServeConfig(port=5300, max_glueless=2),
    "policy": ServeConfig(
        port=5300,
        block=(f"blocked.{DEFAULT_SLD}",),
        sinkhole=(f"sink.{DEFAULT_SLD}",),
    ),
    "forwarder": ServeConfig(profile="forwarder", port=5300),
}


def raw_query(labels, qtype=QueryType.A, qclass=DnsClass.IN, msg_id=1,
              rd=True):
    """A query wire with the labels' bytes exactly as given (any case).

    ``labels=None`` builds a query with an empty question section.
    """
    header = struct.pack(
        ">6H", msg_id, 0x0100 if rd else 0, 0 if labels is None else 1,
        0, 0, 0,
    )
    if labels is None:
        return header
    name = b"".join(bytes([len(label)]) + label for label in labels) + b"\0"
    return header + name + struct.pack(">HH", int(qtype), int(qclass))


def longest_name_labels():
    """Labels of a 253-character name under the SLD (254 wire octets)."""
    sld = [label.encode() for label in DEFAULT_SLD.split(".")]
    room = 253 - len(DEFAULT_SLD) - 1
    labels = []
    while room > 0:
        size = min(63, room)
        if room - size == 1:  # never leave room for an empty label
            size -= 1
        labels.append(b"m" * size)
        room -= size + 1
    return labels + sld


def serve(config_name, wires, slow=False, spacing=0.01):
    """Run ``wires`` through a world; returns (replies, world, transport)."""
    config = CONFIGS[config_name]
    transport = SimTransport()
    world = build_world(config, transport, infra_port=53)
    if config_name == "glueless":
        attacker = NxnsAuthServer(
            ip=NXNS_IP, zone=NXNS_ZONE, fanout=3, victim_sld=DEFAULT_SLD
        )
        world.tld.add_delegation(
            Delegation(NXNS_ZONE, ((f"ns1.{NXNS_ZONE}", NXNS_IP),))
        )
        attacker.attach(transport, 53)
    if slow:
        for component in (world.front, world.upstream, world.root,
                          world.tld, world.auth):
            if component is not None and hasattr(component, "_fast_ok"):
                component._fast_ok = False
    replies = []
    transport.bind(
        CLIENT_IP, CLIENT_PORT, lambda dg, net: replies.append(dg.payload)
    )
    endpoint = world.endpoint
    for index, payload in enumerate(wires):
        datagram = Datagram(
            CLIENT_IP, CLIENT_PORT, endpoint.ip, endpoint.port, payload
        )
        transport.schedule(
            index * spacing,
            lambda datagram=datagram: transport.send(datagram),
        )
    transport.run()
    return replies, world, transport


def observable(world, transport):
    """Everything the fast path must leave as the slow path leaves it."""
    resolver = world.front if world.upstream is None else world.upstream
    return (
        resolver.stats,
        world.root.queries_served,
        world.tld.queries_served,
        world.auth.queries_served,
        world.auth.query_log,
        dict(vars(transport.network.stats)),
    )


def assert_fast_equals_slow(config_name, wires):
    fast_replies, fast_world, fast_transport = serve(config_name, wires)
    slow_replies, slow_world, slow_transport = serve(
        config_name, wires, slow=True
    )
    assert fast_replies == slow_replies
    assert observable(fast_world, fast_transport) == observable(
        slow_world, slow_transport
    )
    return fast_replies


_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1,
    max_size=20,
)
_qtype = st.sampled_from(
    [QueryType.A, QueryType.AAAA, QueryType.ANY, QueryType.TXT, QueryType.NS]
)


@st.composite
def query_wire(draw):
    kind = draw(st.sampled_from([
        "random", "random", "fixture", "mixed-case", "longest", "chaos",
        "empty", "outside", "policy", "nxns",
    ]))
    msg_id = draw(st.integers(0, 0xFFFF))
    rd = draw(st.booleans())
    qtype = draw(_qtype)
    sld = [label.encode() for label in DEFAULT_SLD.split(".")]
    if kind == "random":
        labels = [label.encode() for label in draw(
            st.lists(_label, min_size=1, max_size=3)
        )] + sld
    elif kind == "fixture":
        labels = [draw(st.sampled_from([b"www", b"api", b"mail"]))] + sld
    elif kind == "mixed-case":
        labels = [draw(st.sampled_from([b"WWW", b"Api", b"wT-x"]))] + [
            label.upper() for label in sld
        ]
    elif kind == "longest":
        labels = longest_name_labels()
    elif kind == "chaos":
        return raw_query([b"version", b"bind"], QueryType.TXT, DnsClass.CH,
                         msg_id, rd)
    elif kind == "empty":
        return raw_query(None, msg_id=msg_id, rd=rd)
    elif kind == "outside":
        labels = [draw(_label).encode(), b"example", b"com"]
    elif kind == "policy":
        labels = [draw(st.sampled_from([b"blocked", b"sink"]))] + sld
    else:
        labels = [draw(_label).encode()] + NXNS_ZONE.encode().split(b".")
    return raw_query(labels, qtype, DnsClass.IN, msg_id, rd)


class TestFastServingEqualsSlowOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        config_name=st.sampled_from(sorted(CONFIGS)),
        wires=st.lists(query_wire(), min_size=1, max_size=12).flatmap(
            # Repeats reach the cache, the negative cache and the
            # templates' verified state.
            lambda wires: st.permutations(wires + wires[: len(wires) // 2])
        ),
    )
    def test_replies_and_counters_are_identical(self, config_name, wires):
        assert_fast_equals_slow(config_name, wires)

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_every_edge_case_in_one_run(self, config_name):
        sld = [label.encode() for label in DEFAULT_SLD.split(".")]
        wires = [
            raw_query([b"www"] + sld, msg_id=1),
            raw_query([b"www"] + sld, msg_id=2),  # cache hit
            raw_query([b"WWW"] + sld, msg_id=3),  # mixed case
            raw_query(longest_name_labels(), msg_id=4),
            raw_query(longest_name_labels(), QueryType.AAAA, msg_id=5),
            raw_query([b"api"] + sld, QueryType.ANY, msg_id=6),
            raw_query([b"mail"] + sld, QueryType.TXT, msg_id=7),
            raw_query([b"version", b"bind"], QueryType.TXT, DnsClass.CH,
                      msg_id=8),
            raw_query(None, msg_id=9),
            raw_query([b"nope"] + sld, msg_id=10),
            raw_query([b"nope"] + sld, msg_id=11),  # negative cache
            raw_query([b"blocked"] + sld, msg_id=12),
            raw_query([b"sink"] + sld, msg_id=13),
            raw_query([b"x"] + NXNS_ZONE.encode().split(b"."), msg_id=14),
            raw_query([b"x", b"example", b"com"], msg_id=15),
        ] + [
            raw_query([b"wt-%06d" % index] + sld, msg_id=100 + index)
            for index in range(8)
        ]
        replies = assert_fast_equals_slow(config_name, wires)
        assert replies  # the comparison covered real traffic

    def test_glueless_chase_runs_on_the_fast_path(self):
        sld = [label.encode() for label in DEFAULT_SLD.split(".")]
        wires = [
            raw_query([b"q%d" % index] + NXNS_ZONE.encode().split(b"."),
                      msg_id=index)
            for index in range(3)
        ] + [raw_query([b"www"] + sld, msg_id=9)]
        _, world, _ = serve("glueless", wires)
        assert world.front.stats.glueless_launched == 6
        assert_fast_equals_slow("glueless", wires)


def unique_misses(count):
    """Fixed-width unique names: each walks root → TLD → auth to NXDOMAIN."""
    return [
        raw_query([b"wt-%06d" % index]
                  + [label.encode() for label in DEFAULT_SLD.split(".")],
                  msg_id=index & 0xFFFF)
        for index in range(count)
    ]


class TestServeWorkCounters:
    """Exact work of N unique cache misses; a regression fails anywhere.

    Each miss is one client query, three upstream queries and their
    three replies, and one answer: 14 datagrams counted at the serving
    world's edge (7 received, 7 sent), as the daemon's ``udp.*``
    counters count them. The codec runs only for the templates'
    verification renders — four templates (root referral, TLD referral,
    auth NXDOMAIN, client NXDOMAIN), three slow renders each — however
    many misses there are. The full codec path costs 14 calls a miss.
    """

    @pytest.mark.parametrize("misses", [40, 400])
    def test_work_per_miss_is_pinned(self, codec_calls, misses):
        replies, world, transport = serve(
            "plain", unique_misses(misses), spacing=0.001
        )
        stats = world.front.stats
        assert len(replies) == misses
        assert (stats.client_queries, stats.nxdomain, stats.servfail) == (
            misses, misses, 0,
        )
        assert stats.upstream_queries == 3 * misses
        network = transport.network.stats
        # The client's own sends and receipts are outside the world.
        edge = (network.sent - misses) + (network.delivered - misses)
        assert edge == 14 * misses
        assert dict(codec_calls) == {"encode_message": 12}

    def test_slow_oracle_pays_fourteen_codec_calls_a_miss(self, codec_calls):
        serve("plain", unique_misses(40), slow=True, spacing=0.001)
        assert dict(codec_calls) == {
            "encode_message": 7 * 40, "decode_message": 7 * 40,
        }
