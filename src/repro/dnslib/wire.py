"""Message-level wire codec (RFC 1035 section 4).

``encode_message``/``decode_message`` convert between
:class:`~repro.dnslib.message.DnsMessage` and the binary packet format,
with name compression on encode and pointer chasing on decode.
"""

from __future__ import annotations

from repro.dnslib.buffer import DnsWireError, WireReader, WireWriter
from repro.dnslib.constants import QueryType
from repro.dnslib.message import DnsFlags, DnsHeader, DnsMessage, Question
from repro.dnslib.names import DnsNameError
from repro.dnslib.records import ResourceRecord

__all__ = [
    "DnsWireError",
    "decode_message",
    "decode_name",
    "encode_message",
    "encode_name",
]


def encode_name(name: str, compress: bool = False) -> bytes:
    """Encode a lone domain name to wire form (mostly for tests/tools)."""
    writer = WireWriter(compress=compress)
    writer.write_name(name)
    return writer.getvalue()


def decode_name(data: bytes, offset: int = 0) -> tuple[str, int]:
    """Decode a domain name; returns (name, next_offset)."""
    reader = WireReader(data, offset)
    name = reader.read_name()
    return name, reader.offset


def encode_message(message: DnsMessage, compress: bool = True) -> bytes:
    """Serialize ``message`` to a DNS packet."""
    writer = WireWriter(compress=compress)
    header = message.header
    writer.write_u16(header.msg_id & 0xFFFF)
    writer.write_u16(header.flags.to_int(header.opcode, header.rcode))
    writer.write_u16(len(message.questions))
    writer.write_u16(len(message.answers))
    writer.write_u16(len(message.authorities))
    writer.write_u16(len(message.additionals))
    for question in message.questions:
        writer.write_name(question.qname)
        writer.write_u16(int(question.qtype))
        writer.write_u16(int(question.qclass))
    for section in (message.answers, message.authorities, message.additionals):
        for record in section:
            record.encode(writer)
    return writer.getvalue()


def decode_message(data: bytes) -> DnsMessage:
    """Parse a DNS packet into a :class:`DnsMessage`.

    Raises :class:`DnsWireError` on any structural corruption — the
    analysis pipeline catches this to count undecodable responses the
    way the paper's libpcap parser did (section IV-C "Caveats"). A name
    that decodes but is not a valid domain name (a "." byte inside a
    label, or too long once dotted) is corruption too.
    """
    try:
        return _decode_message(data)
    except DnsNameError as exc:
        raise DnsWireError(f"undecodable name: {exc}") from exc


def _decode_message(data: bytes) -> DnsMessage:
    if len(data) < 12:
        raise DnsWireError(f"packet shorter than DNS header: {len(data)} bytes")
    reader = WireReader(data)
    msg_id = reader.read_u16()
    flags_word = reader.read_u16()
    flags, opcode, rcode = DnsFlags.from_int(flags_word)
    qdcount = reader.read_u16()
    ancount = reader.read_u16()
    nscount = reader.read_u16()
    arcount = reader.read_u16()
    questions = []
    for _ in range(qdcount):
        qname = reader.read_name()
        qtype = reader.read_u16()
        qclass = reader.read_u16()
        questions.append(Question(qname, QueryType.from_value(qtype), qclass))
    sections: list[list[ResourceRecord]] = [[], [], []]
    for section, count in zip(sections, (ancount, nscount, arcount)):
        for _ in range(count):
            section.append(ResourceRecord.decode(reader))
    header = DnsHeader(msg_id=msg_id, flags=flags, opcode=opcode, rcode=rcode)
    return DnsMessage(
        header=header,
        questions=questions,
        answers=sections[0],
        authorities=sections[1],
        additionals=sections[2],
    )
