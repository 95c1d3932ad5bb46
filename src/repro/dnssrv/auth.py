"""The authoritative name server (the paper's BIND 9 on Vultr).

Serves one or more zones, answers with AA=1/RA=0 as an authoritative
server must, and keeps a query log — the simulation's equivalent of the
tcpdump capture that produced the paper's Q2/R1 packet counts.

Zone *clusters* (section III-B) are swapped in with
:meth:`install_cluster`. A graceful swap models BIND's reload: the new
zone loads in the background (the returned ready-time paces the
prober) while the previous cluster keeps being served, and a bounded
history of retired clusters stays queryable so in-flight resolutions
spanning a swap still succeed. A non-graceful swap models a hard
restart: queries during the load window get SERVFAIL.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.fastwire import FastQuery, TemplateCache, parse_simple_query
from repro.dnslib.message import DnsMessage, make_response
from repro.dnslib.records import AData, SoaData
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnslib.zone import Zone
from repro.netsim.packet import Datagram
from repro.transport.base import Transport


@dataclasses.dataclass(frozen=True)
class QueryLogEntry:
    """One row of the auth-side capture: who asked what, when."""

    timestamp: float
    src_ip: str
    qname: str
    qtype: int
    rcode: int


class AuthoritativeServer:
    """An authoritative-only DNS server bound to one IP."""

    def __init__(
        self,
        ip: str,
        cluster_load_seconds: float = 60.0,
        zone_history: int | None = 2,
        rate_limiter=None,
    ) -> None:
        """``zone_history`` bounds how many same-origin zone versions stay
        queryable (BIND-style reload retention); ``None`` retains every
        version — the campaign setting, where each subdomain cluster is a
        distinct zone file that is never unloaded. ``rate_limiter`` is an
        optional :class:`~repro.dnssrv.ratelimit.ResponseRateLimiter`:
        queries are still served and logged, but the response to an
        over-budget client address is suppressed (BIND RRL semantics)."""
        if zone_history is not None and zone_history < 1:
            raise ValueError("zone_history must be at least 1")
        self.ip = ip
        self.cluster_load_seconds = cluster_load_seconds
        self.zone_history = zone_history
        self.rate_limiter = rate_limiter
        self._zones: dict[str, list[Zone]] = {}
        self._loading_until = float("-inf")
        self.query_log: list[QueryLogEntry] = []
        #: Append served queries to :attr:`query_log`. Streaming scans
        #: that drop captures turn this off — the network event sink
        #: observes each reply instead, so the log would be a second,
        #: unread O(queries) copy of the same information.
        self.retain_query_log = True
        self.clusters_installed = 0
        self.queries_served = 0
        self.queries_during_reload = 0
        # Verified response templates for the dominant Q2 shape (one A
        # answer). Only safe while `respond` is ours: a subclass that
        # overrides response logic (e.g. the poisoning experiment's
        # server) must see every query go through its own respond().
        self._templates = TemplateCache()
        self._fast_ok = type(self).respond is AuthoritativeServer.respond

    # -- zone management ---------------------------------------------------

    def load_zone(self, zone: Zone) -> None:
        """Serve ``zone``, retiring (but retaining) same-origin predecessors."""
        history = self._zones.setdefault(zone.origin, [])
        history.insert(0, zone)
        if self.zone_history is not None:
            del history[self.zone_history:]

    def unload_zone(self, origin: str) -> None:
        self._zones.pop(origin, None)

    def zones_for(self, qname: str) -> list[Zone]:
        """Zones covering ``qname``, most specific origin first, newest first."""
        matches = [
            (origin, zones)
            for origin, zones in self._zones.items()
            if qname == origin or qname.endswith("." + origin)
        ]
        matches.sort(key=lambda item: len(item[0]), reverse=True)
        return [zone for _, zones in matches for zone in zones]

    def zone_for(self, qname: str) -> Zone | None:
        """The freshest most-specific zone containing ``qname``."""
        zones = self.zones_for(qname)
        return zones[0] if zones else None

    def install_cluster(self, zone: Zone, now: float, graceful: bool = True) -> float:
        """Swap in a new subdomain cluster.

        Returns the time the new cluster is fully loaded. The paper
        reports ~1 minute per 5M-subdomain cluster; the charged time
        scales linearly with cluster size relative to that reference.
        Graceful swaps keep answering from the retiring cluster in the
        meantime; hard swaps SERVFAIL until the load completes.
        """
        reference = 5_000_000
        load_time = self.cluster_load_seconds * max(zone.record_count, 1) / reference
        self.load_zone(zone)
        self.clusters_installed += 1
        if not graceful:
            self._loading_until = now + load_time
        return now + load_time

    @property
    def zone_count(self) -> int:
        """Number of zone origins served (history not counted)."""
        return len(self._zones)

    # -- serving -----------------------------------------------------------

    def attach(self, network: Transport, port: int = 53):
        """Bind the server's handler on (ip, port)."""
        return network.bind(self.ip, port, self.handle)

    def handle(self, datagram: Datagram, network: Transport) -> None:
        """Decode, answer, log. Unparseable junk is dropped, as BIND does."""
        now = network.now
        if self._fast_ok and now >= self._loading_until:
            fast_query = parse_simple_query(datagram.payload)
            if fast_query is not None and self._serve_fast(
                fast_query, datagram, network, now
            ):
                return
        try:
            query = decode_message(datagram.payload)
        except DnsWireError:
            return
        response = self.respond(query, now)
        if self.retain_query_log:
            qname = query.qname or ""
            qtype = query.questions[0].qtype if query.questions else 0
            self.query_log.append(
                QueryLogEntry(
                    now, datagram.src_ip, qname, int(qtype), int(response.rcode)
                )
            )
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            datagram.src_ip, now
        ):
            return  # RRL: served and logged, response suppressed
        network.send(datagram.reply(encode_message(response)))

    def _serve_fast(self, fast_query: FastQuery, datagram: Datagram,
                    network: Transport, now: float) -> bool:
        """Answer the canonical shapes via verified templates.

        Handles the shapes Q2 and recursive-miss traffic actually have
        — a zone found, and either disposition "answer" with exactly
        one A record owned by the qname, or a negative disposition
        (NXDOMAIN, NODATA) answered with the zone's SOA, if any, in the
        authority section — and produces byte-for-byte what
        decode/respond/encode would (:class:`TemplateCache` enforces
        this). Everything else returns False and takes the slow path,
        which does all the counting, so this method bumps the same
        counters only when it fully serves.
        """
        qname = fast_query.qname
        zones = self.zones_for(qname)
        if not zones:
            return False
        disposition, records, zone = self._lookup(zones, qname, fast_query.qtype)
        rd = fast_query.flags_word & 0x0100
        if disposition == "answer":
            if len(records) != 1:
                return False
            record = records[0]
            if (
                record.rtype != QueryType.A
                or record.name != qname
                or type(record.data) is not AData
            ):
                return False
            rcode = Rcode.NOERROR
            key = (
                fast_query.qtype, fast_query.qclass, rd,
                int(record.rclass), record.ttl, record.data.address,
            )
            answers, authorities, guards = [record], [], ()
        elif disposition == "cname":
            return False
        else:
            # "nodata", or the NXDOMAIN respond() gives every other
            # disposition ("nxdomain", "out-of-zone").
            rcode = Rcode.NOERROR if disposition == "nodata" else Rcode.NXDOMAIN
            soa = zone.soa()
            answers, authorities = [], [soa] if soa else []
            guards = ()
            if soa is not None:
                if type(soa.data) is not SoaData:
                    return False
                guards = (soa.name, soa.data.mname, soa.data.rname)
            key = (
                rcode, fast_query.qtype, fast_query.qclass, rd,
                len(qname), soa,
            )
        wire = self._templates.render(
            key, fast_query,
            lambda: encode_message(
                make_response(
                    fast_query.to_message(), rcode=rcode, answers=answers,
                    authorities=authorities, aa=True, ra=False,
                )
            ),
            guards,
        )
        self.queries_served += 1
        if self.retain_query_log:
            self.query_log.append(
                QueryLogEntry(
                    now, datagram.src_ip, qname,
                    int(fast_query.qtype), int(rcode),
                )
            )
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            datagram.src_ip, now
        ):
            return True  # served (counted/logged); response suppressed
        network.send(datagram.reply(wire))
        return True

    def respond(self, query: DnsMessage, now: float) -> DnsMessage:
        """Pure response logic (no I/O), so tests can drive it directly."""
        self.queries_served += 1
        if now < self._loading_until:
            self.queries_during_reload += 1
            return make_response(query, rcode=Rcode.SERVFAIL, aa=False, ra=False)
        if not query.questions:
            return make_response(query, rcode=Rcode.FORMERR, aa=False, ra=False)
        question = query.questions[0]
        zones = self.zones_for(question.qname)
        if not zones:
            return make_response(query, rcode=Rcode.REFUSED, aa=False, ra=False)
        disposition, records, zone = self._lookup(
            zones, question.qname, question.qtype
        )
        if disposition == "answer":
            return make_response(query, answers=records, aa=True, ra=False)
        if disposition == "cname":
            chained = list(records)
            target = records[0].data.cname
            tail, tail_records = zone.lookup(target, question.qtype)
            if tail == "answer":
                chained.extend(tail_records)
            return make_response(query, answers=chained, aa=True, ra=False)
        if disposition == "nodata":
            soa = zone.soa()
            authorities = [soa] if soa else []
            return make_response(query, authorities=authorities, aa=True, ra=False)
        soa = zone.soa()
        authorities = [soa] if soa else []
        return make_response(
            query, rcode=Rcode.NXDOMAIN, authorities=authorities, aa=True, ra=False
        )

    @staticmethod
    def _lookup(zones: list[Zone], qname: str, qtype: int):
        """``(disposition, records, zone)`` from the freshest zone that
        knows ``qname``, falling back through retired clusters for names
        that predate the current one; else the last zone's answer."""
        disposition, records, zone = "nxdomain", [], zones[0]
        for candidate in zones:
            disposition, records = candidate.lookup(qname, qtype)
            zone = candidate
            if disposition not in ("nxdomain", "out-of-zone"):
                break
        return disposition, records, zone

    # -- introspection -------------------------------------------------------

    def queries_for(self, qname: str) -> list[QueryLogEntry]:
        """Log entries matching ``qname`` (the Q2 capture join key)."""
        return [entry for entry in self.query_log if entry.qname == qname]

    def has_subdomain_loaded(self, qname: str, qtype: int = QueryType.A) -> bool:
        return any(zone.rrset(qname, qtype) for zone in self.zones_for(qname))
