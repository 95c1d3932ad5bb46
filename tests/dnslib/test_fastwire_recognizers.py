"""Differential tests for the upstream reply recognizers (Hypothesis).

``peek_referral``, ``peek_negative`` and ``peek_a_answer`` stand in for
``decode_message`` on the recursive resolver's miss path. Their
contract: on any payload they return either None or exactly the fields
the resolver would read off the decoded message — the rcode, the
answer records, the authority section's NS targets and the additional
section's A glue. The canonical shapes are built through the slow
codec, then mutated: truncation, upper-case label bytes, forward and
looping pointers, extra records, an EDNS OPT, wrong counts, trailing
bytes and random byte flips.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.fastwire import (
    build_query_wire,
    peek_a_answer,
    peek_negative,
    peek_referral,
    peek_upstream_reply,
)
from repro.dnslib.message import make_query, make_response
from repro.dnslib.records import (
    AData,
    NsData,
    OptData,
    ResourceRecord,
    SoaData,
    TxtData,
)
from repro.dnslib.wire import DnsWireError, decode_message, encode_message

_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12
)
_long_label = st.text(alphabet="abcdefghij", min_size=55, max_size=63)
_name = st.lists(st.one_of(_label, _long_label), min_size=1, max_size=4).map(
    ".".join
).filter(lambda name: len(name) <= 253)
_ipv4 = st.tuples(*(st.integers(0, 255) for _ in range(4))).map(
    lambda parts: ".".join(str(part) for part in parts)
)
_ttl = st.integers(0, 0xFFFFFFFF)
_qtype = st.sampled_from(
    [QueryType.A, QueryType.AAAA, QueryType.TXT, QueryType.NS, QueryType.ANY]
)

RECOGNIZERS = (peek_referral, peek_negative, peek_a_answer, peek_upstream_reply)


def reference_fields(payload):
    """What the resolver reads from ``decode_message``, or None."""
    try:
        message = decode_message(payload)
    except DnsWireError:
        return None
    return (
        message.rcode,
        message.answers,
        [
            record.data.nsdname
            for record in message.authorities
            if record.rtype == QueryType.NS
        ],
        [
            (record.name, record.data.address)
            for record in message.additionals
            if record.rtype == QueryType.A
        ],
    )


def assert_sound(payload, question):
    """Every recognizer returns None or exactly the decoded fields."""
    reference = reference_fields(payload)
    for recognizer in RECOGNIZERS:
        fields = recognizer(payload, question)
        if fields is None:
            continue
        assert reference is not None, recognizer.__name__
        assert fields == reference, recognizer.__name__
        assert repr(fields) == repr(reference), recognizer.__name__


def _suffix(qname, draw):
    labels = qname.split(".")
    return ".".join(labels[draw(st.integers(0, len(labels) - 1)):])


@st.composite
def referral(draw):
    qname = draw(_name)
    qtype = draw(_qtype)
    query = make_query(qname, qtype=qtype, msg_id=draw(st.integers(0, 0xFFFF)),
                       recursion_desired=False)
    zone = _suffix(qname, draw)
    hosts = draw(st.lists(
        st.one_of(_name, _label.map(lambda label: f"{label}.{zone}")),
        min_size=1, max_size=3,
    ).filter(lambda names: all(len(name) <= 253 for name in names)))
    authorities = [
        ResourceRecord(zone, QueryType.NS, ttl=draw(_ttl), data=NsData(host))
        for host in hosts
    ]
    glued = draw(st.lists(st.sampled_from(hosts), max_size=3))
    additionals = [
        ResourceRecord(host, QueryType.A, ttl=draw(_ttl),
                       data=AData(draw(_ipv4)))
        for host in glued
    ]
    response = make_response(query, authorities=authorities,
                             additionals=additionals,
                             aa=draw(st.booleans()), ra=False)
    return encode_message(response), qname, qtype


@st.composite
def negative(draw):
    qname = draw(_name)
    qtype = draw(_qtype)
    query = make_query(qname, qtype=qtype, msg_id=draw(st.integers(0, 0xFFFF)),
                       recursion_desired=False)
    authorities = []
    if draw(st.booleans()):
        mname = f"ns1.{_suffix(qname, draw)}"
        if len(mname) > 253 or draw(st.booleans()):
            mname = draw(_name)
        soa = SoaData(mname, draw(_name), *(draw(_ttl) for _ in range(5)))
        authorities.append(
            ResourceRecord(_suffix(qname, draw), QueryType.SOA,
                           ttl=draw(_ttl), data=soa)
        )
    rcode = draw(st.sampled_from(
        [Rcode.NOERROR, Rcode.NXDOMAIN, Rcode.SERVFAIL, Rcode.REFUSED]
    ))
    response = make_response(query, rcode=rcode, authorities=authorities,
                             aa=draw(st.booleans()), ra=False)
    return encode_message(response), qname, qtype


@st.composite
def a_answer(draw):
    qname = draw(_name)
    qtype = draw(_qtype)
    query = make_query(qname, qtype=qtype, msg_id=draw(st.integers(0, 0xFFFF)),
                       recursion_desired=False)
    owner = draw(st.one_of(st.just(qname), _name))
    record = ResourceRecord(owner, QueryType.A, ttl=draw(_ttl),
                            data=AData(draw(_ipv4)))
    response = make_response(query, answers=[record],
                             aa=draw(st.booleans()), ra=False)
    return encode_message(response), qname, qtype


_canonical = st.one_of(referral(), negative(), a_answer())


def _question(qname, qtype):
    return build_query_wire(qname, qtype=qtype, recursion_desired=False)[12:]


def _bump(payload, index, delta):
    """Add ``delta`` to header count ``index`` (0=qd .. 3=ar)."""
    offset = 4 + 2 * index
    count = struct.unpack_from(">H", payload, offset)[0]
    struct.pack_into(">H", payload, offset, (count + delta) & 0xFFFF)


def _extra_record(draw):
    kind = draw(st.sampled_from(["a", "txt", "ns", "soa"]))
    owner = draw(_name)
    if kind == "a":
        record = ResourceRecord(owner, QueryType.A, data=AData(draw(_ipv4)))
    elif kind == "txt":
        record = ResourceRecord(owner, QueryType.TXT, data=TxtData(("x",)))
    elif kind == "ns":
        record = ResourceRecord(owner, QueryType.NS, data=NsData(draw(_name)))
    else:
        record = ResourceRecord(owner, QueryType.SOA,
                                data=SoaData("a", "b", 1, 2, 3, 4, 5))
    return encode_message(make_response(make_query("x"), answers=[record]))[
        12 + len(_question("x", QueryType.A)):
    ]


@st.composite
def mutated(draw):
    wire, qname, qtype = draw(_canonical)
    payload = bytearray(wire)
    edit = draw(st.sampled_from([
        "truncate", "uppercase", "forward-pointer", "loop-pointer",
        "extra-record", "edns-opt", "wrong-count", "trailing", "flip",
    ]))
    if edit == "truncate":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    elif edit == "uppercase":
        letters = [i for i, byte in enumerate(payload) if 0x61 <= byte <= 0x7A]
        if letters:
            payload[draw(st.sampled_from(letters))] -= 0x20
    elif edit in ("forward-pointer", "loop-pointer"):
        pointers = [
            i for i in range(12, len(payload) - 1) if payload[i] & 0xC0 == 0xC0
        ]
        if pointers:
            at = draw(st.sampled_from(pointers))
            target = (
                draw(st.integers(at, 0x3FFF)) if edit == "forward-pointer"
                else at
            )
            payload[at] = 0xC0 | target >> 8
            payload[at + 1] = target & 0xFF
    elif edit == "extra-record":
        section = draw(st.integers(1, 3))
        payload += _extra_record(draw)
        _bump(payload, section, 1)
    elif edit == "edns-opt":
        opt = ResourceRecord("", QueryType.OPT, 4096, 0, OptData())
        payload += encode_message(
            make_response(make_query("x"), additionals=[opt])
        )[12 + len(_question("x", QueryType.A)):]
        _bump(payload, 3, 1)
    elif edit == "wrong-count":
        _bump(payload, draw(st.integers(0, 3)), draw(st.sampled_from([-1, 1])))
    elif edit == "trailing":
        payload += draw(st.binary(min_size=1, max_size=8))
    else:
        payload[draw(st.integers(0, len(payload) - 1))] = draw(
            st.integers(0, 255)
        )
    return bytes(payload), qname, qtype


class TestCanonicalShapesAreRecognized:
    @settings(max_examples=150, deadline=None)
    @given(case=referral())
    def test_referral(self, case):
        wire, qname, qtype = case
        question = _question(qname, qtype)
        assert peek_referral(wire, question) == reference_fields(wire)
        assert peek_upstream_reply(wire, question) == reference_fields(wire)
        assert_sound(wire, question)

    @settings(max_examples=150, deadline=None)
    @given(case=negative())
    def test_negative(self, case):
        wire, qname, qtype = case
        question = _question(qname, qtype)
        assert peek_negative(wire, question) == reference_fields(wire)
        assert peek_upstream_reply(wire, question) == reference_fields(wire)
        assert_sound(wire, question)

    @settings(max_examples=150, deadline=None)
    @given(case=a_answer())
    def test_single_a(self, case):
        wire, qname, qtype = case
        question = _question(qname, qtype)
        assert peek_a_answer(wire, question) == reference_fields(wire)
        assert peek_upstream_reply(wire, question) == reference_fields(wire)
        assert_sound(wire, question)


class TestMutatedRepliesNeverMislead:
    @settings(max_examples=600, deadline=None)
    @given(case=mutated())
    def test_none_or_exactly_the_decoded_fields(self, case):
        payload, qname, qtype = case
        assert_sound(payload, _question(qname, qtype))

    @settings(max_examples=200, deadline=None)
    @given(case=_canonical, other=_name)
    def test_reply_to_another_question_is_refused(self, case, other):
        wire, qname, qtype = case
        if other == qname:
            return
        for recognizer in RECOGNIZERS:
            assert recognizer(wire, _question(other, qtype)) is None

    @settings(max_examples=100, deadline=None)
    @given(case=_canonical)
    def test_query_bit_and_opcode_are_checked(self, case):
        wire, qname, qtype = case
        question = _question(qname, qtype)
        as_query = bytearray(wire)
        as_query[2] &= 0x7F
        other_opcode = bytearray(wire)
        other_opcode[2] |= 0x10
        for payload in (as_query, other_opcode):
            for recognizer in RECOGNIZERS:
                assert recognizer(bytes(payload), question) is None


class TestShapes:
    QNAME = "wt-1a2b3c4d-9.ucfsealresearch.net"

    def question(self):
        return _question(self.QNAME, QueryType.A)

    def reply(self, **sections):
        query = make_query(self.QNAME, recursion_desired=False)
        return encode_message(make_response(query, ra=False, **sections))

    def test_referral_fields_in_wire_order(self):
        wire = self.reply(
            authorities=[
                ResourceRecord("net", QueryType.NS, data=NsData(host))
                for host in ("b.gtld-servers.net", "a.gtld-servers.net")
            ],
            additionals=[
                ResourceRecord("a.gtld-servers.net", QueryType.A,
                               data=AData("192.0.2.1")),
                ResourceRecord("b.gtld-servers.net", QueryType.A,
                               data=AData("192.0.2.2")),
            ],
        )
        assert peek_upstream_reply(wire, self.question()) == (
            0, [], ["b.gtld-servers.net", "a.gtld-servers.net"],
            [("a.gtld-servers.net", "192.0.2.1"),
             ("b.gtld-servers.net", "192.0.2.2")],
        )

    def test_nodata_with_soa_is_negative(self):
        soa = ResourceRecord(
            "ucfsealresearch.net", QueryType.SOA,
            data=SoaData("ns1.ucfsealresearch.net",
                         "hostmaster.ucfsealresearch.net", 1, 2, 3, 4, 5),
        )
        wire = self.reply(authorities=[soa])
        assert peek_referral(wire, self.question()) is None
        assert peek_upstream_reply(wire, self.question()) == (0, [], [], [])

    def test_two_soas_go_to_the_decoder(self):
        soa = ResourceRecord(
            "ucfsealresearch.net", QueryType.SOA,
            data=SoaData("a", "b", 1, 2, 3, 4, 5),
        )
        wire = self.reply(rcode=Rcode.NXDOMAIN, authorities=[soa, soa])
        assert peek_upstream_reply(wire, self.question()) is None

    def test_answer_with_glue_goes_to_the_decoder(self):
        # The injection experiment's resolver reads additionals next to
        # answers; no recognized shape carries both.
        wire = self.reply(
            answers=[ResourceRecord(self.QNAME, QueryType.A,
                                    data=AData("192.0.2.7"))],
            additionals=[ResourceRecord("victim.example", QueryType.A,
                                        data=AData("192.0.2.66"))],
        )
        assert peek_upstream_reply(wire, self.question()) is None

    def test_name_too_long_through_a_question_pointer_is_refused(self):
        # An NS target of one label plus a pointer to a 253-character
        # qname decodes past the 255-octet limit: the decoder rejects
        # it, so the recognizer must too.
        qname = ".".join(["a" * 63] * 3 + ["b" * 61])
        question = _question(qname, QueryType.A)
        rdata = b"\x08abcdefgh\xc0\x0c"
        record = (
            b"\xc0\x0c" + struct.pack(">HHIH", 2, 1, 60, len(rdata)) + rdata
        )
        wire = struct.pack(">6H", 1, 0x8000, 1, 0, 1, 0) + question + record
        assert reference_fields(wire) is None
        assert peek_referral(wire, question) is None
        assert peek_upstream_reply(wire, question) is None

    def test_unknown_rcode_goes_to_the_decoder(self):
        wire = bytearray(self.reply(rcode=Rcode.NXDOMAIN))
        wire[3] = wire[3] & 0xF0 | 0x0C
        assert peek_upstream_reply(bytes(wire), self.question()) is None
