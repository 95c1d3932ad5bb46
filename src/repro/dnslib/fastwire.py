"""Wire-level fast paths: template codecs and zero-copy partial parsers.

A campaign simulates millions of datagrams whose DNS payloads are
almost entirely *shape-constant*: every Q1 query differs only in its
message id and the fixed-width digits of its subdomain, every
authoritative answer differs only in the id and the question bytes it
echoes, and a FABRICATE host's response depends on the query only
through (msg_id, question). Paying ``DnsMessage`` + ``WireWriter``
construction per packet is pure overhead — ZMap makes the same
observation for real probe traffic and reuses one pre-built packet
buffer per scan.

This module supplies that layer:

- :func:`build_query_wire` — a query encoder that emits exactly the
  bytes of ``encode_message(make_query(...))`` without building either
  object (:func:`build_question_wire` + :func:`query_with_question`
  when one question is re-sent under new ids);
- :class:`Q1Template` — a pre-encoded probe query; rendering patches
  the message id and the fixed-width cluster/index digits into a
  reusable buffer;
- :func:`peek_header` / :func:`peek_msg_id` / :func:`peek_qname` —
  zero-copy partial parsers for the receive paths that only need a
  field or two;
- :func:`parse_simple_query` — a strict single-question parser whose
  acceptance set is a *subset* of ``decode_message``'s, guaranteeing a
  :class:`FastQuery` is interchangeable with the decoded message;
- :func:`peek_single_a_response` — recognizer for the canonical
  single-A authoritative answer shape;
- :func:`peek_referral` / :func:`peek_negative` / :func:`peek_a_answer`
  (dispatched by :func:`peek_upstream_reply`) — strict recognizers for
  the three upstream reply shapes an iterative resolver walks through,
  returning exactly the fields it would read from ``decode_message``;
- :class:`TemplateCache` — verified response templates: responses are
  encoded once per shape through the slow path, then replayed by
  patching the id and question span, with the first renders
  byte-compared against the slow encoder before the template is
  trusted.

The contract everywhere is *byte identity*: a fast path either
produces exactly the bytes the object codec would have produced, or it
steps aside and the slow path runs. Tables II-X cannot tell the
difference; only the wall clock can.
"""

from __future__ import annotations

import functools
import struct

from repro.dnslib.constants import DnsClass, QueryType, Rcode
from repro.dnslib.message import DnsFlags, DnsHeader, DnsMessage, Question
from repro.dnslib.names import normalize_name
from repro.dnslib.records import AData, ResourceRecord
from repro.dnslib.wire import encode_message

__all__ = [
    "build_query_wire",
    "build_question_wire",
    "query_with_question",
    "Q1Template",
    "peek_header",
    "peek_msg_id",
    "peek_qname",
    "parse_simple_query",
    "peek_single_a_response",
    "peek_referral",
    "peek_negative",
    "peek_a_answer",
    "peek_upstream_reply",
    "FastQuery",
    "TemplateCache",
]

_HEADER = struct.Struct(">6H")
_QUERY_HEAD = struct.Struct(">6H")
_RD_FLAG = 0x0100


def build_query_wire(
    qname: str,
    qtype: "QueryType | int" = QueryType.A,
    msg_id: int = 0,
    recursion_desired: bool = True,
    qclass: "DnsClass | int" = DnsClass.IN,
) -> bytes:
    """Encode a single-question query directly to bytes.

    Byte-identical to ``encode_message(make_query(qname, qtype, msg_id,
    recursion_desired))`` — the first name written never compresses, so
    the wire is a pure function of the arguments.
    """
    return query_with_question(
        build_question_wire(qname, qtype, qclass), msg_id, recursion_desired
    )


def build_question_wire(
    qname: str,
    qtype: "QueryType | int" = QueryType.A,
    qclass: "DnsClass | int" = DnsClass.IN,
) -> bytes:
    """The question section :func:`build_query_wire` puts after the header."""
    name = normalize_name(qname)
    out = bytearray()
    for label in name.split("."):
        encoded = label.encode("ascii", errors="replace")
        out.append(len(encoded))
        out += encoded
    out.append(0)
    out += struct.pack(">HH", int(qtype), int(qclass))
    return bytes(out)


def query_with_question(
    question: bytes, msg_id: int, recursion_desired: bool = True
) -> bytes:
    """A one-question query: the header for ``msg_id``, then ``question``
    (as :func:`build_question_wire` makes it). A sender that re-asks one
    question under new ids builds the question once."""
    return _QUERY_HEAD.pack(
        msg_id & 0xFFFF, _RD_FLAG if recursion_desired else 0, 1, 0, 0, 0,
    ) + question


def peek_header(wire: bytes) -> tuple[int, int, int, int, int, int] | None:
    """The six header words (id, flags, qd, an, ns, ar), or None if short."""
    if len(wire) < 12:
        return None
    return _HEADER.unpack_from(wire)


def peek_msg_id(wire: bytes) -> int | None:
    """Just the message id, or None if the wire is shorter than a header."""
    if len(wire) < 2:
        return None
    return wire[0] << 8 | wire[1]


def peek_qname(payload: bytes) -> str | None:
    """Lenient first-qname extraction, tolerant of malformed packets.

    Mirrors the prober's historical inline parser byte for byte: it
    reads plain labels from offset 12 until a terminator, a pointer, or
    the end of the buffer, and never raises. Compression pointers and
    truncation simply end the walk — callers only use the result as a
    lookup key, so a partial name that fails the lookup is equivalent
    to a parse failure.
    """
    if len(payload) < 14 or payload[4] == 0 and payload[5] == 0:
        return None
    labels = []
    offset = 12
    length = len(payload)
    while offset < length:
        label_len = payload[offset]
        if label_len == 0 or label_len & 0xC0:
            break
        labels.append(
            payload[offset + 1:offset + 1 + label_len].decode(
                "ascii", errors="replace"
            )
        )
        offset += 1 + label_len
    return ".".join(labels).lower()


# Characters that survive ``read_name``'s decode + ``.lower()`` and the
# ``Question`` normalization untouched: printable ASCII, no dot, no
# uppercase. Queries using anything else take the slow path, where the
# full codec applies its canonicalization.
_SAFE_LABEL_BYTE = bytearray(256)
for _b in range(0x21, 0x7F):
    _SAFE_LABEL_BYTE[_b] = 1
_SAFE_LABEL_BYTE[0x2E] = 0  # "."
for _b in range(0x41, 0x5B):  # A-Z
    _SAFE_LABEL_BYTE[_b] = 0

#: The same set as a ``bytes.translate`` deletion table: a label is
#: safe when nothing is left after deleting these bytes.
_SAFE_BYTES = bytes(b for b in range(256) if _SAFE_LABEL_BYTE[b])

#: Classes the fast path will carry; anything exotic goes slow.
_KNOWN_CLASSES = frozenset(int(member) for member in DnsClass)


class FastQuery:
    """A strictly-parsed single-question query.

    Produced only by :func:`parse_simple_query`; carries the raw fields
    plus the verbatim question bytes (name + qtype + qclass) so
    responders can echo the question without re-encoding it.
    """

    __slots__ = ("msg_id", "flags_word", "qname", "qtype", "qclass",
                 "question_wire")

    def __init__(self, msg_id, flags_word, qname, qtype, qclass,
                 question_wire):
        self.msg_id = msg_id
        self.flags_word = flags_word
        self.qname = qname
        self.qtype = qtype
        self.qclass = qclass
        self.question_wire = question_wire

    def to_message(self) -> DnsMessage:
        """Exactly what ``decode_message`` would build for this query."""
        flags, opcode, rcode = DnsFlags.from_int(self.flags_word)
        return DnsMessage(
            header=DnsHeader(
                msg_id=self.msg_id, flags=flags, opcode=opcode, rcode=rcode
            ),
            questions=[
                Question(self.qname, QueryType.from_value(self.qtype),
                         self.qclass)
            ],
        )


def parse_simple_query(payload: bytes) -> FastQuery | None:
    """Parse the common probe-query shape, or refuse.

    Accepts only: QUERY opcode, qr=0, exactly one question, zero
    answer/authority/additional records (hence no EDNS), a non-root
    name of plain lower-case printable labels totalling at most 254
    encoded bytes, a known DNS class, and no trailing bytes. Every
    accepted payload decodes identically under ``decode_message`` —
    the strict gate is what makes :class:`FastQuery` interchangeable
    with the slow path. Anything else returns ``None``.
    """
    if len(payload) < 17:  # header + 1-byte label + terminator + qtype/qclass
        return None
    flags_word = payload[2] << 8 | payload[3]
    if flags_word & 0xF800:  # response bit or non-QUERY opcode
        return None
    if payload[4:12] != b"\x00\x01\x00\x00\x00\x00\x00\x00":
        return None
    labels = []
    offset = 12
    end = len(payload)
    while True:
        if offset >= end:
            return None
        label_len = payload[offset]
        if label_len == 0:
            offset += 1
            break
        if label_len & 0xC0:
            return None
        stop = offset + 1 + label_len
        if stop > end:
            return None
        label = payload[offset + 1:stop]
        if label.translate(None, _SAFE_BYTES):
            return None  # a byte outside _SAFE_LABEL_BYTE
        labels.append(label)
        offset = stop
    if not labels or offset - 12 > 254:
        return None
    if offset + 4 != end:
        return None
    qclass = payload[offset + 2] << 8 | payload[offset + 3]
    if qclass not in _KNOWN_CLASSES:
        return None
    return FastQuery(
        payload[0] << 8 | payload[1],
        flags_word,
        b".".join(labels).decode("ascii"),
        payload[offset] << 8 | payload[offset + 1],
        qclass,
        payload[12:],
    )


def peek_single_a_response(
    payload: bytes,
) -> tuple[int, bytes, int, bytes] | None:
    """Recognize the canonical single-A authoritative answer.

    Matches exactly the shape ``encode_message`` produces for an
    aa=1, rd=0, NOERROR response with one plain-label question and one
    A record owned by the qname (compressed to a pointer at offset 12):
    returns ``(msg_id, question_wire, ttl, addr_bytes)``. Anything else
    — other flags, other counts, other record layouts — returns None
    and the caller falls back to ``decode_message``.
    """
    end = len(payload)
    if end < 12 + 2 + 4 + 16:  # header + shortest name + qsuffix + answer
        return None
    if payload[2] != 0x84 or payload[3] != 0x00:
        return None
    if payload[4:12] != b"\x00\x01\x00\x01\x00\x00\x00\x00":
        return None
    offset = 12
    while True:
        if offset >= end:
            return None
        label_len = payload[offset]
        if label_len == 0:
            offset += 1
            break
        if label_len & 0xC0:
            return None
        offset += 1 + label_len
    qend = offset + 4
    if end - qend != 16:
        return None
    answer = payload[qend:]
    if (
        answer[0:6] != b"\xc0\x0c\x00\x01\x00\x01"
        or answer[10:12] != b"\x00\x04"
    ):
        return None
    return (
        payload[0] << 8 | payload[1],
        payload[12:qend],
        int.from_bytes(answer[6:10], "big"),
        answer[12:16],
    )


#: Longest name (sum of label lengths + length octets) the recognizers
#: accept: one more and ``normalize_name`` would refuse the dotted form.
_MAX_NAME_OCTETS = 254
_RR_HEAD = struct.Struct(">HHIH")
_TYPE_A = int(QueryType.A)
_TYPE_NS = int(QueryType.NS)
_TYPE_SOA = int(QueryType.SOA)
_CLASS_IN = int(DnsClass.IN)
_RCODES = frozenset(int(member) for member in Rcode)


def _read_name(payload: bytes, offset: int,
               known: dict) -> tuple[str, int] | None:
    """``(name, next_offset)`` exactly as ``WireReader.read_name`` reads
    it, or None.

    Walks the same way (backward pointers only, at most 128 jumps) but
    refuses every name the slow reader would reject or rewrite: labels
    must be plain lower-case printable bytes, and the name must be short
    enough for ``normalize_name`` to accept its dotted form. ``known``
    maps offsets of already-checked names (the echoed question's label
    starts) to ``(name, octets)``, so a pointer there ends the walk.
    """
    end = len(payload)
    labels = []
    resume = None
    jumps = 0
    octets = 0
    cursor = offset
    while True:
        if cursor >= end:
            return None
        length = payload[cursor]
        if length >= 0xC0:
            if cursor + 1 >= end:
                return None
            target = (length & 0x3F) << 8 | payload[cursor + 1]
            if target >= cursor:
                return None
            if resume is None:
                resume = cursor + 2
            jumps += 1
            if jumps > 128:
                return None
            suffix = known.get(target)
            if suffix is not None:
                tail, tail_octets = suffix
                if octets + tail_octets > _MAX_NAME_OCTETS:
                    return None
                if not labels:
                    return tail, resume
                head = b".".join(labels).decode("ascii")
                return (head + "." + tail if tail else head), resume
            cursor = target
            continue
        if length & 0xC0:
            return None
        if length == 0:
            cursor += 1
            break
        stop = cursor + 1 + length
        if stop > end:
            return None
        label = payload[cursor + 1:stop]
        if label.translate(None, _SAFE_BYTES):
            return None
        octets += length + 1
        if octets > _MAX_NAME_OCTETS:
            return None
        labels.append(label)
        cursor = stop
    name = b".".join(labels).decode("ascii")
    return name, resume if resume is not None else cursor


@functools.lru_cache(maxsize=256)
def _question_suffixes(question: bytes) -> dict | None:
    """The names a reply's echoed ``question`` holds, or None.

    ``question`` must be one name of plain labels (no pointer) the
    strict reader accepts, then qtype and qclass. The result maps the
    offset (in a reply) of each label start, and of the terminator, to
    ``(suffix name, octets)``: the targets a record name's compression
    pointer most often has. A resolver re-sends one question under
    several ids, so the result is cached.
    """
    end = len(question) - 4
    offset = 0
    starts = []
    labels = []
    while True:
        if offset >= end:
            return None
        length = question[offset]
        if length == 0:
            break
        if length & 0xC0:
            return None
        stop = offset + 1 + length
        if stop > end or question[offset + 1:stop].translate(None, _SAFE_BYTES):
            return None
        starts.append(offset)
        labels.append(question[offset + 1:stop].decode("ascii"))
        offset = stop
    if offset + 1 != end or offset > _MAX_NAME_OCTETS:
        return None
    known = {12 + offset: ("", 0)}
    for index, start in enumerate(starts):
        known[12 + start] = (".".join(labels[index:]), offset - start)
    return known


def _read_rr_head(payload: bytes, offset: int, known: dict):
    """``(owner, rtype, rclass, ttl, rdata_start, rdata_end)`` or None."""
    owner = _read_name(payload, offset, known)
    if owner is None:
        return None
    name, offset = owner
    if offset + 10 > len(payload):
        return None
    rtype, rclass, ttl, rdlength = _RR_HEAD.unpack_from(payload, offset)
    start = offset + 10
    stop = start + rdlength
    if stop > len(payload):
        return None
    return name, rtype, rclass, ttl, start, stop


def _reply_counts(payload: bytes, question: bytes):
    """``(rcode, an, ns, ar, known)`` of a reply echoing ``question``,
    or None.

    ``question`` is the question section the resolver sent (what
    :func:`build_question_wire` makes). The reply must be a QUERY
    response with that exact question, a name the strict reader
    accepts, and an rcode :class:`Rcode` knows. ``known`` is
    :func:`_question_suffixes` of the question.
    """
    qend = 12 + len(question)
    if len(payload) < qend or payload[2] & 0xF8 != 0x80:
        return None
    if payload[4] != 0 or payload[5] != 1:
        return None
    if payload[12:qend] != question:
        return None
    known = _question_suffixes(question)
    if known is None:
        return None
    rcode = payload[3] & 0x0F
    if rcode not in _RCODES:
        return None
    return (
        rcode,
        payload[6] << 8 | payload[7],
        payload[8] << 8 | payload[9],
        payload[10] << 8 | payload[11],
        known,
    )


def peek_referral(payload: bytes, question: bytes):
    """Recognize a referral: NOERROR, no answers, NS records in the
    authority section and A glue in the additional section, all class
    IN, nothing after the last record.

    Returns ``(rcode, answers, ns_names, glue)`` — ``(0, [], [NS
    target, ...], [(glue owner, address), ...])`` in wire order, exactly
    what the resolver reads off ``decode_message``'s result — or None,
    and the caller decodes the reply in full.
    """
    counts = _reply_counts(payload, question)
    if counts is None:
        return None
    rcode, ancount, nscount, arcount, known = counts
    if rcode != 0 or ancount != 0 or nscount == 0:
        return None
    offset = 12 + len(question)
    ns_names = []
    for _ in range(nscount):
        head = _read_rr_head(payload, offset, known)
        if head is None:
            return None
        _, rtype, rclass, _, start, stop = head
        if rtype != _TYPE_NS or rclass != _CLASS_IN:
            return None
        target = _read_name(payload, start, known)
        if target is None or target[1] != stop:
            return None
        ns_names.append(target[0])
        offset = stop
    glue = []
    for _ in range(arcount):
        head = _read_rr_head(payload, offset, known)
        if head is None:
            return None
        owner, rtype, rclass, _, start, stop = head
        if rtype != _TYPE_A or rclass != _CLASS_IN or stop - start != 4:
            return None
        glue.append((owner, "%d.%d.%d.%d" % tuple(payload[start:stop])))
        offset = stop
    if offset != len(payload):
        return None
    return 0, [], ns_names, glue


def peek_negative(payload: bytes, question: bytes):
    """Recognize a negative reply: no answers, no additionals, and at
    most one SOA record (class IN) in the authority section.

    Covers NXDOMAIN, REFUSED, SERVFAIL and the NOERROR/NODATA shape.
    Returns ``(rcode, [], [], [])`` — the SOA is checked for
    well-formedness but carries nothing the resolver reads — or None.
    """
    counts = _reply_counts(payload, question)
    if counts is None:
        return None
    rcode, ancount, nscount, arcount, known = counts
    if ancount != 0 or arcount != 0 or nscount > 1:
        return None
    offset = 12 + len(question)
    if nscount:
        head = _read_rr_head(payload, offset, known)
        if head is None:
            return None
        _, rtype, rclass, _, start, stop = head
        if rtype != _TYPE_SOA or rclass != _CLASS_IN:
            return None
        mname = _read_name(payload, start, known)
        if mname is None:
            return None
        rname = _read_name(payload, mname[1], known)
        if rname is None or rname[1] + 20 != stop:
            return None
        offset = stop
    if offset != len(payload):
        return None
    return rcode, [], [], []


def peek_a_answer(payload: bytes, question: bytes):
    """Recognize a single-A answer: NOERROR, one class-IN A record in
    the answer section, nothing else.

    Returns ``(0, [record], [], [])`` with the
    :class:`~repro.dnslib.records.ResourceRecord` ``decode_message``
    would build, or None.
    """
    counts = _reply_counts(payload, question)
    if counts is None or counts[:4] != (0, 1, 0, 0):
        return None
    head = _read_rr_head(payload, 12 + len(question), counts[4])
    if head is None:
        return None
    owner, rtype, rclass, ttl, start, stop = head
    if (
        rtype != _TYPE_A or rclass != _CLASS_IN or stop - start != 4
        or stop != len(payload)
    ):
        return None
    record = ResourceRecord(
        owner, QueryType.A, rclass, ttl,
        AData("%d.%d.%d.%d" % tuple(payload[start:stop])),
    )
    return 0, [record], [], []


def peek_upstream_reply(payload: bytes, question: bytes):
    """The fields of a referral, negative or single-A reply, or None.

    Dispatches on the answer count to :func:`peek_a_answer`, else
    :func:`peek_referral` then :func:`peek_negative`. Every reply one
    of them accepts decodes under ``decode_message`` to a message with
    the same rcode, answers, NS targets and A glue.
    """
    if len(payload) < 12:
        return None
    if payload[6] or payload[7]:
        return peek_a_answer(payload, question)
    if payload[3] & 0x0F == 0 and (payload[8] or payload[9]):
        fields = peek_referral(payload, question)
        if fields is not None:
            return fields
    return peek_negative(payload, question)


class Q1Template:
    """Pre-encoded probe query: patch msg_id + digits, never re-encode.

    The subdomain scheme mints fixed-width qnames
    (``or<CCC>x<IIIIIII>.<sld>``), so every probe query in a campaign
    has identical length and differs only at known offsets. The
    template is built once from the slow codec and self-checked against
    ``encode_message(make_query(...))`` at both corners of the digit
    space; construction raises ``ValueError`` if the scheme's qnames
    are not fixed-width patchable, and callers fall back to per-probe
    encoding.
    """

    __slots__ = ("_buf", "_c0", "_c1", "_i0", "_i1", "_cfmt", "_ifmt",
                 "wire_size")

    def __init__(self, scheme, qtype=QueryType.A,
                 recursion_desired: bool = True) -> None:
        base = build_query_wire(
            scheme.qname(0, 0), qtype=qtype, msg_id=0,
            recursion_desired=recursion_desired,
        )
        self._buf = bytearray(base)
        # Layout: header(12) | len | prefix cluster-digits | ... the
        # first label is "<prefix><CCC>x<IIIIIII>".
        prefix_len = len(scheme.prefix)
        self._c0 = 13 + prefix_len
        self._c1 = self._c0 + scheme.cluster_digits
        self._i0 = self._c1 + 1
        self._i1 = self._i0 + scheme.index_digits
        self._cfmt = b"%%0%dd" % scheme.cluster_digits
        self._ifmt = b"%%0%dd" % scheme.index_digits
        self.wire_size = len(base)
        for cluster, index, msg_id in (
            (0, 0, 1),
            (10 ** scheme.cluster_digits - 1,
             10 ** scheme.index_digits - 1, 0xFFFF),
        ):
            got = self.render(cluster, index, msg_id)
            want = encode_wire_reference(
                scheme.qname(cluster, index), qtype, msg_id,
                recursion_desired,
            )
            if got != want:
                raise ValueError("subdomain scheme is not template-patchable")

    def render(self, cluster: int, index: int, msg_id: int) -> bytes:
        """The wire for probe (cluster, index) with the given id."""
        buf = self._buf
        buf[0] = msg_id >> 8 & 0xFF
        buf[1] = msg_id & 0xFF
        buf[self._c0:self._c1] = self._cfmt % cluster
        buf[self._i0:self._i1] = self._ifmt % index
        return bytes(buf)


def encode_wire_reference(qname, qtype, msg_id, recursion_desired) -> bytes:
    """The slow-path bytes for a query — the oracle templates check against."""
    from repro.dnslib.message import make_query

    return encode_message(
        make_query(qname, qtype=qtype, msg_id=msg_id,
                   recursion_desired=recursion_desired)
    )


def _label_suffixes(name: str) -> list[str]:
    """Every whole-label suffix of a dotted name, longest first.

    The name is first put in the form ``WireWriter.write_name`` writes
    (lower case, no trailing dot), so a guard given in any case covers
    the suffixes the encoder actually compresses against.
    """
    name = name.lower()
    if name.endswith("."):
        name = name[:-1]
    labels = name.split(".")
    return [".".join(labels[start:]) for start in range(len(labels))]


def _is_name_suffix(qname: str, suffix: str) -> bool:
    """True when ``suffix`` is a whole-label suffix of ``qname``."""
    return qname == suffix or qname.endswith("." + suffix)


class _ResponseTemplate:
    """One verified head|span|tail response template.

    ``encode_message`` lays a response out as a 12-byte header, then
    the question section (or, with no question, the first answer's
    owner name) starting at offset 12, then bytes that do not depend on
    the query: later names referencing the qname compress to a pointer
    at the *constant* offset 12 no matter what the qname is, because
    the full name's suffix chain is recorded when the first name is
    written. So a response is re-rendered for a new query by patching
    the message id into the head and splicing the new question bytes
    into the span.

    The one content dependence is rdata *name compression against the
    qname* (CNAME answers): whether the target compresses depends on
    whether it is a whole-label suffix of the qname, and the pointer
    offsets depend on the qname length. ``guard_names`` captures the
    names at risk; :meth:`matches` only accepts queries whose
    suffix-match profile (and, when names are guarded, qname length)
    equals the sample's. On top of the structural argument, the first
    renders for *distinct* qnames are byte-compared against the slow
    encoder before the template is trusted (see
    :class:`TemplateCache`).
    """

    __slots__ = ("dead", "_head", "_tail", "_span_mode", "sample_qname",
                 "_sample_len", "_suffixes", "_suffix_hits",
                 "remaining_verifies")

    SPAN_QUESTION = 0  # span = name + qtype + qclass (question echoed)
    SPAN_NAME = 1      # span = name only (empty question, answers present)
    SPAN_NONE = 2      # header-only response

    def __init__(self, sample: FastQuery, slow_wire: bytes,
                 guard_names: tuple[str, ...], verifies: int) -> None:
        self.dead = True
        qspan = sample.question_wire
        if slow_wire[12:12 + len(qspan)] == qspan:
            self._span_mode = self.SPAN_QUESTION
            span_len = len(qspan)
        elif slow_wire[12:12 + len(qspan) - 4] == qspan[:-4]:
            self._span_mode = self.SPAN_NAME
            span_len = len(qspan) - 4
        elif len(slow_wire) == 12:
            self._span_mode = self.SPAN_NONE
            span_len = 0
        else:
            return
        self._head = slow_wire[:12]
        self._tail = slow_wire[12 + span_len:]
        self.sample_qname = sample.qname
        self._sample_len = len(sample.qname)
        suffixes: list[str] = []
        hits: list[bool] = []
        for name in guard_names:
            for suffix in _label_suffixes(name):
                suffixes.append(suffix)
                hits.append(_is_name_suffix(sample.qname, suffix))
        self._suffixes = tuple(suffixes)
        self._suffix_hits = tuple(hits)
        self.remaining_verifies = verifies
        self.dead = False

    def matches(self, query: FastQuery) -> bool:
        """True when the structural argument covers this query."""
        if not self._suffixes:
            return True
        qname = query.qname
        if len(qname) != self._sample_len:
            return False
        for suffix, hit in zip(self._suffixes, self._suffix_hits):
            if _is_name_suffix(qname, suffix) != hit:
                return False
        return True

    def render(self, query: FastQuery) -> bytes:
        if self._span_mode == self.SPAN_QUESTION:
            span = query.question_wire
        elif self._span_mode == self.SPAN_NAME:
            span = query.question_wire[:-4]
        else:
            span = b""
        head = bytearray(self._head)
        head[0] = query.msg_id >> 8 & 0xFF
        head[1] = query.msg_id & 0xFF
        return bytes(head) + span + self._tail


#: Most response shapes one :class:`TemplateCache` holds at a time.
TEMPLATE_LIMIT = 1024


class TemplateCache:
    """Per-shape cache of verified response templates.

    ``render(key, query, slow_render)`` always returns exactly the
    bytes ``slow_render()`` would: the first call per key runs the slow
    encoder and derives a template from its output; the next renders
    for *other* qnames are computed both ways and byte-compared
    (mismatch retires the template permanently and ships the slow
    bytes); only then does the patched fast render fly solo for every
    qname. The sample's own qname is rendered from the template from
    the start: its bytes differ from the sample's only in the id. Keys must
    capture everything the response depends on besides (msg_id, qname)
    — callers put qtype, qclass, the rd bit, and any answer content in
    the key. At most :data:`TEMPLATE_LIMIT` keys are held; a new key
    past the bound clears the cache, so shapes keyed on unbounded
    content (a resolver's cached answers) cannot grow it without limit.
    """

    __slots__ = ("_entries", "_verifies")

    def __init__(self, verify_renders: int = 2) -> None:
        self._entries: dict = {}
        self._verifies = verify_renders

    def render(self, key, query: FastQuery, slow_render,
               guard_names: tuple[str, ...] = ()) -> bytes:
        entry = self._entries.get(key)
        if entry is None:
            slow = slow_render()
            if len(self._entries) >= TEMPLATE_LIMIT:
                self._entries.clear()
            self._entries[key] = _ResponseTemplate(
                query, slow, guard_names, self._verifies
            )
            return slow
        if entry.dead or not entry.matches(query):
            return slow_render()
        if entry.remaining_verifies > 0 and query.qname != entry.sample_qname:
            slow = slow_render()
            if entry.render(query) != slow:
                entry.dead = True
                return slow
            entry.remaining_verifies -= 1
            return slow
        # Verified, or the sample's own qname: the template was cut from
        # that qname's slow render, so only the patched id can differ.
        return entry.render(query)
