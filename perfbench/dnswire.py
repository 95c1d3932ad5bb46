"""A minimal DNS codec for the load generator.

The generator must not lean on the program's own codec: that would
make the checker share the code it checks, and its per-query cost would
load the generator process. Queries are pre-rendered templates whose
message ID is patched in place; replies are parsed only as far as the
checks need (ID, question, rcode).
"""

from __future__ import annotations

import struct

RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

_QTYPE_A = 1
_QCLASS_IN = 1


def question_bytes(qname: str) -> bytes:
    """The wire form of an A/IN question for ``qname`` (lower case)."""
    out = bytearray()
    for label in qname.lower().rstrip(".").split("."):
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    out.append(0)
    out += struct.pack("!HH", _QTYPE_A, _QCLASS_IN)
    return bytes(out)


def render_query(question: bytes) -> bytearray:
    """A recursion-desired query with message ID 0; patch bytes 0-1."""
    return bytearray(struct.pack("!HHHHHH", 0, 0x0100, 1, 0, 0, 0) + question)


def check_reply(data: bytes, question: bytes, want_rcode: int) -> str | None:
    """Why ``data`` is a wrong reply to ``question``, or None if right."""
    if len(data) < 12 + len(question):
        return "short"
    flags, qdcount = struct.unpack_from("!HH", data, 2)
    if not flags & 0x8000:
        return "not-a-response"
    rcode = flags & 0x000F
    if rcode != want_rcode:
        return "servfail" if rcode == RCODE_SERVFAIL else f"rcode-{rcode}"
    if qdcount != 1 or data[12:12 + len(question)].lower() != question:
        return "qname"
    return None
