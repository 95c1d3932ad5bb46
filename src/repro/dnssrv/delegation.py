"""Root and TLD name servers.

A :class:`DelegationServer` knows which child zones it delegates and
answers every in-bailiwick query with a referral: NS records in the
authority section plus glue A records in the additional section. That
is all the paper's resolution path (Fig 1, steps 2-5) needs from the
root and ``.net`` servers.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.fastwire import FastQuery, TemplateCache, parse_simple_query
from repro.dnslib.message import DnsMessage, make_response
from repro.dnslib.names import is_subdomain, normalize_name
from repro.dnslib.records import AData, NsData, ResourceRecord
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.netsim.packet import Datagram
from repro.transport.base import Transport


@dataclasses.dataclass(frozen=True)
class Delegation:
    """A child zone cut: the zone name and its name servers with glue."""

    zone: str
    nameservers: tuple[tuple[str, str], ...]  # (ns hostname, ns IPv4)

    def __post_init__(self) -> None:
        object.__setattr__(self, "zone", normalize_name(self.zone))


class DelegationServer:
    """A referral-only server for one zone (the root or a TLD)."""

    def __init__(
        self,
        ip: str,
        zone: str,
        delegations: list[Delegation] | None = None,
        rate_limiter=None,
    ) -> None:
        self.ip = ip
        self.zone = normalize_name(zone)
        self._delegations: dict[str, Delegation] = {}
        for delegation in delegations or []:
            self.add_delegation(delegation)
        self.queries_served = 0
        #: Optional RRL: referrals to over-budget clients are suppressed.
        self.rate_limiter = rate_limiter
        # Verified response templates; only sound while respond() is
        # ours (see AuthoritativeServer).
        self._templates = TemplateCache()
        self._fast_ok = type(self).respond is DelegationServer.respond

    def add_delegation(self, delegation: Delegation) -> None:
        if not is_subdomain(delegation.zone, self.zone):
            raise ValueError(
                f"{delegation.zone!r} is not beneath {self.zone!r}"
            )
        self._delegations[delegation.zone] = delegation

    @property
    def delegation_count(self) -> int:
        return len(self._delegations)

    def delegation_for(self, qname: str) -> Delegation | None:
        """The most specific delegation covering ``qname``, if any."""
        return self._covering(normalize_name(qname))

    def _covering(self, canonical: str) -> Delegation | None:
        """:meth:`delegation_for` for a name already in canonical form."""
        best: Delegation | None = None
        for zone, delegation in self._delegations.items():
            if is_subdomain(canonical, zone):
                if best is None or len(zone) > len(best.zone):
                    best = delegation
        return best

    def attach(self, network: Transport, port: int = 53):
        return network.bind(self.ip, port, self.handle)

    def handle(self, datagram: Datagram, network: Transport) -> None:
        if self._fast_ok:
            fast_query = parse_simple_query(datagram.payload)
            if fast_query is not None:
                self._serve_fast(fast_query, datagram, network)
                return
        try:
            query = decode_message(datagram.payload)
        except DnsWireError:
            return
        response = self.respond(query)
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            datagram.src_ip, network.now
        ):
            return  # RRL: response suppressed
        network.send(datagram.reply(encode_message(response)))

    def _serve_fast(self, fast_query: FastQuery, datagram: Datagram,
                    network: Transport) -> None:
        """:meth:`handle` for a strictly parsed query, through templates.

        Counts and decides as :meth:`respond` does, then asks the rate
        limiter exactly as the slow path does. A referral's tail names the
        delegated zone and its name servers, which compress against the
        qname, so those names guard the template and the key carries
        the qname length (:class:`~repro.dnslib.fastwire.TemplateCache`
        checks the first renders against the slow encoder).
        """
        self.queries_served += 1
        qname = fast_query.qname
        delegation, rcode = self._decide(qname)
        guards: tuple[str, ...] = ()
        if delegation is not None:
            guards = (delegation.zone,) + tuple(
                host for host, _ in delegation.nameservers
            )
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            datagram.src_ip, network.now
        ):
            return  # RRL: response suppressed
        key = (
            delegation, rcode, fast_query.qtype, fast_query.qclass,
            fast_query.flags_word & 0x0100, len(qname) if guards else 0,
        )
        wire = self._templates.render(
            key, fast_query,
            lambda: encode_message(
                self._response(fast_query.to_message(), delegation, rcode)
            ),
            guards,
        )
        network.send(datagram.reply(wire))

    def respond(self, query: DnsMessage) -> DnsMessage:
        """Referral, or NXDOMAIN for in-bailiwick names with no child cut."""
        self.queries_served += 1
        if not query.questions:
            return make_response(query, rcode=Rcode.FORMERR, aa=False, ra=False)
        delegation, rcode = self._decide(query.questions[0].qname)
        return self._response(query, delegation, rcode)

    def _decide(self, qname: str) -> tuple[Delegation | None, int]:
        """``(delegation, rcode)`` for a canonical qname: REFUSED outside
        the zone, NXDOMAIN with no child cut, else the referral."""
        if not is_subdomain(qname, self.zone):
            return None, Rcode.REFUSED
        delegation = self._covering(qname)
        if delegation is None:
            return None, Rcode.NXDOMAIN
        return delegation, Rcode.NOERROR

    @staticmethod
    def _response(
        query: DnsMessage, delegation: Delegation | None, rcode: int
    ) -> DnsMessage:
        """REFUSED, NXDOMAIN (authoritative), or the referral."""
        if delegation is None:
            return make_response(
                query, rcode=rcode, aa=rcode == Rcode.NXDOMAIN, ra=False
            )
        authorities = [
            ResourceRecord(delegation.zone, QueryType.NS, ttl=86400, data=NsData(host))
            for host, _ in delegation.nameservers
        ]
        additionals = [
            ResourceRecord(host, QueryType.A, ttl=86400, data=AData(address))
            for host, address in delegation.nameservers
        ]
        return make_response(
            query, authorities=authorities, additionals=additionals, aa=False, ra=False
        )
