"""Fixed-layout binary codec for shard accumulator state.

The multicore engine (:mod:`repro.core.multicore`) ships shard results
through shared-memory rings instead of pickled :class:`ShardOutcome`
transfers. Pickle is general but fat and slow for what a streaming
``drop_captures`` shard actually produces: one ~2KB
:class:`~repro.stream.aggregate.TableAggregate`, one
:class:`~repro.stream.assembler.StreamStats`, and a handful of capture
counters. This module packs exactly that state into a compact
struct-laid frame and reconstructs it bit-for-bit on the parent side.

Contracts:

- **Round-trip identity** — ``decode_outcome(encode_outcome(o))``
  compares equal to ``o`` field by field, so the transport can never
  perturb Tables II–X. Covered by unit and conformance tests.
- **Eligibility is explicit** — :func:`encode_outcome` returns ``None``
  for any outcome that carries O(probes) state (retained R2 records,
  flows, query logs, sent/target maps). Such outcomes take the pickle
  path; the compact layout never silently drops data.
- **Deterministic bytes** — collections are serialized in sorted key
  order, so the same state always encodes to the same bytes (handy for
  content-addressed checkpoints and the payload-budget regression
  test).

Telemetry snapshots are the one nested-variant field; they are small
(bounded heartbeats + spans) and ride as an embedded pickle section.
"""

from __future__ import annotations

import pickle
import struct
import sys

from repro.prober.probe import ProbeCapture
from repro.prober.subdomain import ClusterStats
from repro.stream.aggregate import TableAggregate, _DestinationEntry
from repro.stream.assembler import StreamStats

__all__ = [
    "OUTCOME_BUDGET_BYTES",
    "encode_aggregate",
    "decode_aggregate",
    "encode_stream_stats",
    "decode_stream_stats",
    "encode_outcome",
    "decode_outcome",
]

#: Hard ceiling on one shipped shard outcome (compact or pickled) in a
#: ``drop_captures`` streaming campaign. Accumulator state is
#: O(distinct keys), not O(probes); a payload near this limit means
#: someone reintroduced per-probe state into the shipping path. The
#: regression test in ``tests/core/test_outcome_budget.py`` pins it.
OUTCOME_BUDGET_BYTES = 64 * 1024

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

_AGG_MAGIC = b"RAG1"
_OUT_MAGIC = b"ROC1"

#: TableAggregate's plain integer counters, in wire order.
_AGG_SCALARS = (
    "without_answer", "correct", "incorrect",
    "unjoinable_total", "unjoinable_with_answer", "unjoinable_ra1",
    "unjoinable_aa1", "unjoinable_private", "unjoinable_garbage",
    "unjoinable_public", "joined_views", "q2_total", "r1_total",
    "on_path_r2", "off_path_r2",
)
_AGG_SCALARS_FMT = struct.Struct("<%dQ" % len(_AGG_SCALARS))
#: ra_cells/aa_cells flattened: [False cells, True cells] x 3 each.
_CELLS_FMT = struct.Struct("<12Q")

_STATS_FIELDS = (
    "q1_events", "q2_events", "r2_events", "forward_events",
    "flows_opened", "flows_evicted", "peak_live_flows",
)
_STATS_FMT = struct.Struct("<%dQ" % len(_STATS_FIELDS))

#: Capture summary: q1_sent, q1_bytes, retries_sent, retry_bytes,
#: retries_exhausted, 4 cluster-stat counters, then start/end times.
_CAPTURE_FMT = struct.Struct("<9Q2d")


# -- primitives ----------------------------------------------------------


def _w_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def _r_str(buf: memoryview, pos: int) -> tuple[str, int]:
    (length,) = _U32.unpack_from(buf, pos)
    pos += 4
    # Interned: an address repeated across the aggregate's maps is one
    # object again, so a checkpoint pickle of decoded state stays small.
    text = sys.intern(bytes(buf[pos:pos + length]).decode("utf-8"))
    return text, pos + length


def _w_int_counts(out: bytearray, mapping: dict[int, int]) -> None:
    out += _U32.pack(len(mapping))
    for key in sorted(mapping):
        out += _I64.pack(key)
        out += _U64.pack(mapping[key])


def _r_int_counts(buf: memoryview, pos: int) -> tuple[dict[int, int], int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    mapping: dict[int, int] = {}
    for _ in range(count):
        (key,) = _I64.unpack_from(buf, pos)
        (value,) = _U64.unpack_from(buf, pos + 8)
        mapping[key] = value
        pos += 16
    return mapping, pos


def _w_str_counts(out: bytearray, mapping: dict[str, int]) -> None:
    out += _U32.pack(len(mapping))
    for key in sorted(mapping):
        _w_str(out, key)
        out += _U64.pack(mapping[key])


def _r_str_counts(buf: memoryview, pos: int) -> tuple[dict[str, int], int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    mapping: dict[str, int] = {}
    for _ in range(count):
        key, pos = _r_str(buf, pos)
        (value,) = _U64.unpack_from(buf, pos)
        mapping[key] = value
        pos += 8
    return mapping, pos


def _w_str_sets(out: bytearray, mapping: dict[str, set[str]]) -> None:
    out += _U32.pack(len(mapping))
    for key in sorted(mapping):
        _w_str(out, key)
        values = mapping[key]
        out += _U32.pack(len(values))
        for value in sorted(values):
            _w_str(out, value)


def _r_str_sets(
    buf: memoryview, pos: int
) -> tuple[dict[str, set[str]], int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    mapping: dict[str, set[str]] = {}
    for _ in range(count):
        key, pos = _r_str(buf, pos)
        (size,) = _U32.unpack_from(buf, pos)
        pos += 4
        values: set[str] = set()
        for _ in range(size):
            value, pos = _r_str(buf, pos)
            values.add(value)
        mapping[key] = values
    return mapping, pos


# -- TableAggregate ------------------------------------------------------


def encode_aggregate(aggregate: TableAggregate) -> bytes:
    """Pack one aggregate into a deterministic binary record."""
    out = bytearray(_AGG_MAGIC)
    _w_str(out, aggregate.truth_ip)
    out += _AGG_SCALARS_FMT.pack(
        *(getattr(aggregate, name) for name in _AGG_SCALARS)
    )
    out += _CELLS_FMT.pack(
        *aggregate.ra_cells[False], *aggregate.ra_cells[True],
        *aggregate.aa_cells[False], *aggregate.aa_cells[True],
    )
    _w_int_counts(out, aggregate.rcode_with)
    _w_int_counts(out, aggregate.rcode_without)
    _w_int_counts(out, aggregate.unjoinable_rcodes)
    _w_str_counts(out, aggregate.form_packets)
    _w_str_counts(out, aggregate.unjoinable_private_by_block)
    _w_str_sets(out, aggregate.form_uniques)
    _w_str_sets(out, aggregate.off_path_fan_in)
    out += _U32.pack(len(aggregate.destinations))
    for ip in sorted(aggregate.destinations):
        entry = aggregate.destinations[ip]
        _w_str(out, ip)
        out += _U64.pack(entry.count)
        out += _U64.pack(entry.ra1)
        out += _U64.pack(entry.aa1)
    out += _U32.pack(len(aggregate.destination_sources))
    for destination, source in sorted(aggregate.destination_sources):
        _w_str(out, destination)
        _w_str(out, source)
        out += _U64.pack(aggregate.destination_sources[(destination, source)])
    return bytes(out)


def decode_aggregate(blob: bytes) -> TableAggregate:
    """Rebuild the exact aggregate :func:`encode_aggregate` packed."""
    buf = memoryview(blob)
    if bytes(buf[:4]) != _AGG_MAGIC:
        raise ValueError("not an aggregate record (bad magic)")
    truth_ip, pos = _r_str(buf, 4)
    scalars = _AGG_SCALARS_FMT.unpack_from(buf, pos)
    pos += _AGG_SCALARS_FMT.size
    cells = _CELLS_FMT.unpack_from(buf, pos)
    pos += _CELLS_FMT.size
    aggregate = TableAggregate(truth_ip=truth_ip)
    for name, value in zip(_AGG_SCALARS, scalars):
        setattr(aggregate, name, value)
    aggregate.ra_cells = {False: list(cells[0:3]), True: list(cells[3:6])}
    aggregate.aa_cells = {False: list(cells[6:9]), True: list(cells[9:12])}
    aggregate.rcode_with, pos = _r_int_counts(buf, pos)
    aggregate.rcode_without, pos = _r_int_counts(buf, pos)
    aggregate.unjoinable_rcodes, pos = _r_int_counts(buf, pos)
    aggregate.form_packets, pos = _r_str_counts(buf, pos)
    aggregate.unjoinable_private_by_block, pos = _r_str_counts(buf, pos)
    aggregate.form_uniques, pos = _r_str_sets(buf, pos)
    aggregate.off_path_fan_in, pos = _r_str_sets(buf, pos)
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    destinations: dict[str, _DestinationEntry] = {}
    for _ in range(count):
        ip, pos = _r_str(buf, pos)
        entry = _DestinationEntry(
            count=_U64.unpack_from(buf, pos)[0],
            ra1=_U64.unpack_from(buf, pos + 8)[0],
            aa1=_U64.unpack_from(buf, pos + 16)[0],
        )
        pos += 24
        destinations[ip] = entry
    aggregate.destinations = destinations
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    sources: dict[tuple[str, str], int] = {}
    for _ in range(count):
        destination, pos = _r_str(buf, pos)
        source, pos = _r_str(buf, pos)
        (value,) = _U64.unpack_from(buf, pos)
        pos += 8
        sources[(destination, source)] = value
    aggregate.destination_sources = sources
    return aggregate


# -- StreamStats ---------------------------------------------------------


def encode_stream_stats(stats: StreamStats) -> bytes:
    return _STATS_FMT.pack(
        *(getattr(stats, name) for name in _STATS_FIELDS)
    )


def decode_stream_stats(blob: bytes) -> StreamStats:
    values = _STATS_FMT.unpack(blob)
    stats = StreamStats()
    for name, value in zip(_STATS_FIELDS, values):
        setattr(stats, name, value)
    return stats


# -- ShardOutcome --------------------------------------------------------


def _capture_is_compact(capture: ProbeCapture) -> bool:
    """True when the capture carries only O(1) counter state."""
    return not (capture.r2_records or capture.sent_log or capture.targets)


_HAS_TELEMETRY = 0x01


def encode_outcome(outcome) -> bytes | None:
    """Pack one shard outcome, or refuse (``None``) if it is not compact.

    Compact means the ``drop_captures`` streaming shape: an aggregate
    plus counters, with every O(probes) collection empty. Anything else
    must ship as a pickle — the caller decides the fallback.
    """
    capture = outcome.capture
    if (
        outcome.aggregate is None
        or outcome.stream_stats is None
        or outcome.flow_set.flows
        or outcome.flow_set.unjoinable
        or outcome.query_log
        or not _capture_is_compact(capture)
    ):
        return None
    out = bytearray(_OUT_MAGIC)
    flags = _HAS_TELEMETRY if outcome.telemetry is not None else 0
    out += _U32.pack(outcome.index)
    out.append(flags)
    stats = capture.cluster_stats
    out += _CAPTURE_FMT.pack(
        capture.q1_sent, capture.q1_bytes,
        capture.retries_sent, capture.retry_bytes,
        capture.retries_exhausted,
        stats.clusters_created, stats.fresh_allocations,
        stats.reused_allocations, stats.burned,
        capture.start_time, capture.end_time,
    )
    aggregate_blob = encode_aggregate(outcome.aggregate)
    out += _U32.pack(len(aggregate_blob))
    out += aggregate_blob
    out += encode_stream_stats(outcome.stream_stats)
    if flags & _HAS_TELEMETRY:
        telemetry_blob = pickle.dumps(
            outcome.telemetry, protocol=pickle.HIGHEST_PROTOCOL
        )
        out += _U32.pack(len(telemetry_blob))
        out += telemetry_blob
    return bytes(out)


def decode_outcome(blob: bytes):
    """Rebuild the :class:`ShardOutcome` :func:`encode_outcome` packed."""
    from repro.core.shard import ShardOutcome  # circular at module level
    from repro.prober.capture import FlowSet

    buf = memoryview(blob)
    if bytes(buf[:4]) != _OUT_MAGIC:
        raise ValueError("not an outcome record (bad magic)")
    (index,) = _U32.unpack_from(buf, 4)
    flags = buf[8]
    pos = 9
    (
        q1_sent, q1_bytes, retries_sent, retry_bytes, retries_exhausted,
        clusters_created, fresh_allocations, reused_allocations, burned,
        start_time, end_time,
    ) = _CAPTURE_FMT.unpack_from(buf, pos)
    pos += _CAPTURE_FMT.size
    (aggregate_len,) = _U32.unpack_from(buf, pos)
    pos += 4
    aggregate = decode_aggregate(bytes(buf[pos:pos + aggregate_len]))
    pos += aggregate_len
    stream_stats = decode_stream_stats(
        bytes(buf[pos:pos + _STATS_FMT.size])
    )
    pos += _STATS_FMT.size
    telemetry = None
    if flags & _HAS_TELEMETRY:
        (telemetry_len,) = _U32.unpack_from(buf, pos)
        pos += 4
        telemetry = pickle.loads(bytes(buf[pos:pos + telemetry_len]))
        pos += telemetry_len
    capture = ProbeCapture(
        q1_sent=q1_sent,
        q1_bytes=q1_bytes,
        r2_records=[],
        start_time=start_time,
        end_time=end_time,
        cluster_stats=ClusterStats(
            clusters_created=clusters_created,
            fresh_allocations=fresh_allocations,
            reused_allocations=reused_allocations,
            burned=burned,
        ),
        sent_log={},
        targets={},
        retries_sent=retries_sent,
        retry_bytes=retry_bytes,
        retries_exhausted=retries_exhausted,
    )
    return ShardOutcome(
        index=index,
        capture=capture,
        flow_set=FlowSet(flows={}, unjoinable=[]),
        query_log=[],
        aggregate=aggregate,
        stream_stats=stream_stats,
        telemetry=telemetry,
    )
