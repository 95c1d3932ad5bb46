"""Bogus-probe validation census: zone, signing server, classification.

A hand-built mini world with known ground truth — one validating
resolver, one non-validating resolver, one transparent forwarder, one
dead host — must classify exactly. The zone itself is checked for the
one property the whole census rests on: the control name verifies, the
bogus name can never verify, and nothing else differs.

The census fast path is pinned two ways: its memos are checked against
the plain decode/respond/encode path they replace, and a small census
counts its codec calls exactly, so "doing more work" fails on any host.
"""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Campaign, CampaignConfig
from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.message import make_query, make_response
from repro.dnslib.records import AData, ResourceRecord
from repro.dnslib.signing import verify_rrsig
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnslib.zone import Zone
from repro.dnssec.validation import (
    BOGUS_LABEL,
    CONTROL_LABEL,
    REPLY_BOGUS,
    REPLY_CONTROL,
    REPLY_IGNORED,
    REPLY_MEMO_LIMIT,
    SigningAuthoritativeServer,
    ValidationScanner,
    build_validation_zone,
    render_validation_census,
    run_validation_census,
)
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.ratelimit import ResponseRateLimiter
from repro.netsim.network import Network
from repro.netsim.packet import Datagram
from repro.resolvers.behavior import AnswerKind, BehaviorSpec, ResponseMode
from repro.resolvers.host import BehaviorHost

SLD = "ucfsealresearch.net"
ORIGIN = f"dnssec-validation.{SLD}"
CONTROL = f"{CONTROL_LABEL}.{ORIGIN}"
BOGUS = f"{BOGUS_LABEL}.{ORIGIN}"


class TestValidationZone:
    def test_control_signature_verifies(self):
        zone = build_validation_zone(SLD)
        a_records = zone.rrset(CONTROL, QueryType.A)
        [rrsig] = zone.rrset(CONTROL, QueryType.RRSIG)
        assert verify_rrsig(rrsig.data, a_records)

    def test_bogus_signature_never_verifies(self):
        zone = build_validation_zone(SLD)
        a_records = zone.rrset(BOGUS, QueryType.A)
        [rrsig] = zone.rrset(BOGUS, QueryType.RRSIG)
        assert not verify_rrsig(rrsig.data, a_records)

    def test_both_names_uncacheable(self):
        zone = build_validation_zone(SLD)
        for name in (CONTROL, BOGUS):
            [record] = zone.rrset(name, QueryType.A)
            assert record.ttl == 0


class TestSigningServer:
    def _respond(self, qname):
        server = SigningAuthoritativeServer("45.76.1.10")
        server.load_zone(build_validation_zone(SLD))
        return server.respond(make_query(qname, msg_id=3), now=0.0)

    def test_answers_carry_the_matching_rrsig(self):
        response = self._respond(CONTROL)
        rtypes = sorted(int(record.rtype) for record in response.answers)
        assert rtypes == [int(QueryType.A), int(QueryType.RRSIG)]
        [rrsig] = [
            record for record in response.answers
            if int(record.rtype) == int(QueryType.RRSIG)
        ]
        assert int(rrsig.data.type_covered) == int(QueryType.A)

    def test_bogus_rrsig_shipped_verbatim(self):
        response = self._respond(BOGUS)
        zone = build_validation_zone(SLD)
        [stored] = zone.rrset(BOGUS, QueryType.RRSIG)
        [shipped] = [
            record for record in response.answers
            if int(record.rtype) == int(QueryType.RRSIG)
        ]
        assert shipped.data.signature == stored.data.signature

    def test_unanswered_query_gains_no_rrsig(self):
        response = self._respond(f"missing.{ORIGIN}")
        assert response.answers == []

    def test_response_round_trips_through_the_codec(self):
        response = self._respond(BOGUS)
        wire = encode_message(response)
        assert encode_message(decode_message(wire)) == wire


def _resolve_spec(name="open"):
    return BehaviorSpec(
        name=name, mode=ResponseMode.RESOLVE, ra=True, aa=False,
        answer_kind=AnswerKind.CORRECT,
    )


@pytest.fixture()
def mini_world():
    network = Network(seed=4)
    hierarchy = build_hierarchy(network)
    auth = hierarchy.auth
    # Swap the hierarchy's auth for the signing variant at the same ip.
    signing = SigningAuthoritativeServer(auth.ip, zone_history=None)
    network.unbind(auth.ip, 53)
    signing.attach(network)

    validating = "198.18.0.1"
    plain = "198.18.0.2"
    forwarder = "198.18.0.3"
    dead = "198.18.0.4"
    upstream = "203.10.0.9"
    BehaviorHost(
        validating, _resolve_spec("validator"), signing.ip,
        dnssec_validating=True,
    ).attach(network)
    BehaviorHost(plain, _resolve_spec(), signing.ip).attach(network)
    BehaviorHost(upstream, _resolve_spec("upstream"), signing.ip).attach(
        network
    )
    BehaviorHost(
        forwarder,
        BehaviorSpec(
            name="transparent", mode=ResponseMode.TRANSPARENT, ra=True,
            aa=False, answer_kind=AnswerKind.CORRECT, forward_to=upstream,
        ),
        signing.ip,
    ).attach(network)
    targets = [validating, plain, forwarder, dead]
    return network, signing, targets


class TestScannerClassification:
    def test_planted_mix_recovered_exactly(self, mini_world):
        network, signing, targets = mini_world
        validating, plain, forwarder, dead = targets
        census = ValidationScanner(network, signing, sld=SLD).scan(targets)
        assert census.validating == {validating}
        assert census.non_validating == {plain}
        # The forwarder's answers return from its unprobed upstream and
        # are filtered out of the target join; on this probe it is
        # indistinguishable from a dead host.
        assert census.unresponsive == {forwarder, dead}
        assert census.targets == 4

    def test_table_mirrors_the_sets(self, mini_world):
        network, signing, targets = mini_world
        census = ValidationScanner(network, signing, sld=SLD).scan(targets)
        table = census.table()
        assert table.targets == 4
        assert (table.validating, table.non_validating) == (1, 1)
        assert table.unresponsive == 2
        assert table.responsive == 2
        assert table.validating_share == pytest.approx(50.0)

    def test_render_mentions_every_bucket(self, mini_world):
        network, signing, targets = mini_world
        census = ValidationScanner(network, signing, sld=SLD).scan(targets)
        text = render_validation_census(census, 2018)
        assert "DNSSEC validation behavior (2018)" in text
        assert "validating (bogus blocked): 1" in text
        assert "unresponsive:               2" in text

    def test_zone_unloaded_after_the_scan(self, mini_world):
        network, signing, targets = mini_world
        ValidationScanner(network, signing, sld=SLD).scan(targets)
        response = signing.respond(make_query(CONTROL, msg_id=1), now=0.0)
        assert response.rcode != Rcode.NOERROR or not response.answers


class TestValidatorEndToEnd:
    def test_validator_servfails_the_bogus_name_only(self, mini_world):
        network, signing, targets = mini_world
        validating = targets[0]
        signing.load_zone(build_validation_zone(SLD))
        replies = []
        network.bind(
            "132.170.9.9", 4000, lambda dgram, net: replies.append(dgram)
        )
        for msg_id, qname in enumerate((CONTROL, BOGUS)):
            network.send(
                Datagram(
                    "132.170.9.9", 4000, validating, 53,
                    encode_message(make_query(qname, msg_id=msg_id)),
                )
            )
        network.run()
        by_qname = {
            decoded.qname: decoded
            for decoded in map(
                lambda dgram: decode_message(dgram.payload), replies
            )
        }
        assert by_qname[CONTROL].first_a_record() is not None
        assert by_qname[BOGUS].rcode == Rcode.SERVFAIL
        assert by_qname[BOGUS].first_a_record() is None


class _Recorder:
    """The transport surface ``handle`` uses: a clock and a send log."""

    def __init__(self, now=0.0):
        self.now = now
        self.sent = []

    def send(self, datagram, origin=None):
        self.sent.append(datagram)


def _query(qname, msg_id, rd=False):
    return Datagram(
        "198.18.0.1", 10055, "45.76.1.10", 53,
        encode_message(make_query(qname, msg_id=msg_id, recursion_desired=rd)),
    )


def _memo_server():
    server = SigningAuthoritativeServer("45.76.1.10", zone_history=None)
    server.retain_query_log = False
    server.load_zone(build_validation_zone(SLD))
    return server


def _reference_reply(qname, msg_id):
    """The reply the unmemoised decode/respond/encode path produces."""
    server = SigningAuthoritativeServer("45.76.1.10", zone_history=None)
    server.load_zone(build_validation_zone(SLD))
    wire_out = _Recorder()
    server.handle(_query(qname, msg_id), wire_out)
    [reply] = wire_out.sent
    return reply.payload


class TestSigningReplyMemo:
    @pytest.mark.parametrize("qname", [CONTROL, BOGUS, f"missing.{ORIGIN}"])
    def test_hit_is_byte_identical_to_the_slow_path(self, qname):
        server = _memo_server()
        wire_out = _Recorder()
        server.handle(_query(qname, 1), wire_out)
        server.handle(_query(qname, 0xBEEF), wire_out)
        assert len(server._reply_tails) == 1
        first, hit = (reply.payload for reply in wire_out.sent)
        assert first == _reference_reply(qname, 1)
        assert hit == _reference_reply(qname, 0xBEEF)
        assert server.queries_served == 2

    def test_unload_zone_invalidates(self):
        server = _memo_server()
        wire_out = _Recorder()
        server.handle(_query(CONTROL, 1), wire_out)
        server.unload_zone(ORIGIN)
        server.handle(_query(CONTROL, 2), wire_out)
        assert decode_message(wire_out.sent[-1].payload).rcode == Rcode.REFUSED

    def test_load_zone_invalidates(self):
        server = _memo_server()
        wire_out = _Recorder()
        server.handle(_query(CONTROL, 1), wire_out)
        moved = Zone(ORIGIN)
        moved.add_a(CONTROL, "198.51.100.99", ttl=0)
        server.load_zone(moved)
        server.handle(_query(CONTROL, 2), wire_out)
        answer = decode_message(wire_out.sent[-1].payload).first_a_record()
        assert answer.data.address == "198.51.100.99"

    def test_install_cluster_invalidates(self):
        server = _memo_server()
        wire_out = _Recorder()
        server.handle(_query(f"fresh.{ORIGIN}", 1), wire_out)
        cluster = Zone(ORIGIN)
        cluster.add_a(f"fresh.{ORIGIN}", "198.51.100.7", ttl=0)
        server.install_cluster(cluster, now=0.0)
        server.handle(_query(f"fresh.{ORIGIN}", 2), wire_out)
        answer = decode_message(wire_out.sent[-1].payload).first_a_record()
        assert answer.data.address == "198.51.100.7"

    def test_rate_limiter_bypasses_the_memo(self):
        server = _memo_server()
        server.rate_limiter = ResponseRateLimiter(rate_per_second=1, burst=1)
        wire_out = _Recorder()
        for msg_id in range(3):
            server.handle(_query(CONTROL, msg_id), wire_out)
        assert len(wire_out.sent) == 1  # the budget, not the memo, decides
        assert server.queries_served == 3
        assert not server._reply_tails

    def test_query_log_retention_bypasses_the_memo(self):
        server = _memo_server()
        server.retain_query_log = True
        wire_out = _Recorder()
        for msg_id in range(3):
            server.handle(_query(CONTROL, msg_id), wire_out)
        assert [entry.qname for entry in server.query_log] == [CONTROL] * 3
        assert not server._reply_tails

    def test_reload_window_bypasses_the_memo(self):
        server = _memo_server()
        wire_out = _Recorder()
        server.handle(_query(CONTROL, 1), wire_out)
        cluster = build_validation_zone(SLD)
        ready = server.install_cluster(cluster, now=0.0, graceful=False)
        assert ready > 0.0
        server.handle(_query(CONTROL, 2), wire_out)
        assert decode_message(wire_out.sent[-1].payload).rcode == Rcode.SERVFAIL
        assert server.queries_during_reload == 1
        assert not server._reply_tails
        server.handle(_query(CONTROL, 3), _Recorder(now=ready))
        assert len(server._reply_tails) == 1

    def test_undecodable_queries_are_dropped_unmemoised(self):
        server = _memo_server()
        wire_out = _Recorder()
        junk = Datagram("198.18.0.1", 10055, "45.76.1.10", 53, b"\x00\x01\x02")
        server.handle(junk, wire_out)
        assert wire_out.sent == [] and not server._reply_tails

    def test_memo_size_is_bounded_under_random_qnames(self):
        server = _memo_server()
        wire_out = _Recorder()
        rng = random.Random(5)
        for msg_id in range(10_000):
            label = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=12))
            server.handle(_query(f"{label}.{ORIGIN}", msg_id & 0xFFFF), wire_out)
            assert len(server._reply_tails) <= REPLY_MEMO_LIMIT
        assert len(wire_out.sent) == 10_000
        assert server.queries_served == 10_000


def _signed_reply(qname, rcode=Rcode.NOERROR, with_answer=True):
    server = SigningAuthoritativeServer("45.76.1.10", zone_history=None)
    server.load_zone(build_validation_zone(SLD))
    query = make_query(qname, msg_id=0)
    if rcode != Rcode.NOERROR:
        return encode_message(make_response(query, rcode=rcode))
    if not with_answer:
        return encode_message(make_response(query))
    if qname in (CONTROL, BOGUS):
        return encode_message(server.respond(query, now=0.0))
    record = ResourceRecord(qname, QueryType.A, ttl=60, data=AData("192.0.2.8"))
    return encode_message(make_response(query, answers=[record]))


def _malformed_reply(qname):
    host = BehaviorHost(
        "198.18.0.9",
        BehaviorSpec(
            name="malformed", mode=ResponseMode.FABRICATE, ra=True, aa=False,
            answer_kind=AnswerKind.MALFORMED,
        ),
        "45.76.1.10",
    )
    return host.build_response_wire(make_query(qname, msg_id=0), None)


#: Every R2 shape the census meets, plus near misses.
_R2_SHAPES = [
    _signed_reply(CONTROL),
    _signed_reply(BOGUS),
    _signed_reply(f"other.{ORIGIN}"),
    _signed_reply(CONTROL, rcode=Rcode.SERVFAIL),
    _signed_reply(BOGUS, rcode=Rcode.SERVFAIL),
    _signed_reply(CONTROL, with_answer=False),
    _malformed_reply(CONTROL),
    _malformed_reply(BOGUS),
    b"",
    b"\x12",
]


def _reference_class(payload):
    """The census's classification, decoded every time."""
    try:
        response = decode_message(payload)
    except DnsWireError:
        return REPLY_IGNORED
    if response.first_a_record() is None:
        return REPLY_IGNORED
    if response.qname == CONTROL:
        return REPLY_CONTROL
    if response.qname == BOGUS:
        return REPLY_BOGUS
    return REPLY_IGNORED


@st.composite
def _r2_payload(draw):
    payload = bytearray(draw(st.sampled_from(_R2_SHAPES)))
    if len(payload) >= 2:
        payload[0:2] = draw(st.integers(0, 0xFFFF)).to_bytes(2, "big")
    edit = draw(st.sampled_from(["none", "truncate", "mutate"]))
    if edit == "truncate" and payload:
        del payload[draw(st.integers(0, len(payload) - 1)):]
    elif edit == "mutate" and payload:
        position = draw(st.integers(0, len(payload) - 1))
        payload[position] = draw(st.integers(0, 255))
    return bytes(payload)


class TestReplyClassMemo:
    @settings(max_examples=300, deadline=None)
    @given(payloads=st.lists(_r2_payload(), min_size=1, max_size=40))
    def test_memoised_class_equals_a_fresh_decode(self, payloads):
        scanner = ValidationScanner(
            Network(seed=0), SigningAuthoritativeServer("45.76.1.10"), sld=SLD
        )
        for payload in payloads:
            assert scanner.classify_reply(payload) == _reference_class(payload)

    def test_shapes_cover_every_class(self):
        classes = {_reference_class(payload) for payload in _R2_SHAPES}
        assert classes == {REPLY_IGNORED, REPLY_CONTROL, REPLY_BOGUS}

    def test_repeat_shapes_skip_the_decoder(self, codec_calls):
        scanner = ValidationScanner(
            Network(seed=0), SigningAuthoritativeServer("45.76.1.10"), sld=SLD
        )
        counts = codec_calls
        payload = bytearray(_signed_reply(CONTROL))
        for msg_id in range(50):
            payload[0:2] = msg_id.to_bytes(2, "big")
            assert scanner.classify_reply(bytes(payload)) == REPLY_CONTROL
        assert counts["decode_message"] == 1


#: The work-counter census: a 2018 population at 1/16384, seed 7.
COUNTER_CONFIG = CampaignConfig(
    year=2018, scale=16384, seed=7, time_compression=4.0, dnssec=False
)


@pytest.fixture(scope="module")
def counter_population():
    return Campaign(COUNTER_CONFIG).run().population


class TestCensusWorkCounters:
    """Exact codec work of one census; a regression fails on any host.

    Per target the census costs about 2.9 codec calls: the R2 encode of
    each answering host, plus one decode or encode per new reply or
    query shape. Decoding every packet cost 18.0 per target.
    """

    def test_codec_calls_are_pinned(
        self, monkeypatch, counter_population, codec_calls
    ):
        counts = codec_calls
        ghosts = collections.Counter()
        handle_upstream = BehaviorHost.handle_upstream

        def counting_ghosts(self, datagram, network):
            payload = datagram.payload
            ghost = int.from_bytes(payload[:2], "big") not in self._pending
            before = counts["decode_message"]
            handle_upstream(self, datagram, network)
            if ghost:
                ghosts["replies"] += 1
                ghosts["decodes"] += counts["decode_message"] - before

        monkeypatch.setattr(BehaviorHost, "handle_upstream", counting_ghosts)
        census = run_validation_census(COUNTER_CONFIG, counter_population)
        table = census.table()
        assert (table.targets, table.validating, table.non_validating) == (
            397, 15, 142,
        )
        assert dict(counts) == {"encode_message": 796, "decode_message": 369}
        assert ghosts == {"replies": 1256, "decodes": 0}
