"""The validation-*behavior* census: does the resolver check signatures?

The DO-probe census (:mod:`repro.dnssec.census`) only observes the AD
bit a resolver claims. This module reproduces the stronger bogus-probe
technique (PAPERS.md: "Measuring DNSSEC validation"): serve a zone
containing one correctly signed name and one whose RRSIG is
deliberately corrupted, then classify each target by the differential

- *validating* — answers the control name with an A record but
  SERVFAILs (or stays silent on) the bogus name, because its upstream
  signature check failed (RFC 4035 section 5.5);
- *non-validating* — answers both names, signatures unchecked;
- *unresponsive* — answers neither (refusers, dead hosts, and
  transparent forwarders, whose relayed answers return from an
  unprobed upstream address and are excluded from the target join).

The census runs on its own :class:`~repro.netsim.network.Network`
seeded from the campaign seed through a dedicated splitmix64 lane, and
depends only on ``(year, seed, latency_median, loss_rate,
fault_profile)`` — never on ``mode``, ``workers`` or capture
retention — so serial, sharded, streaming and resumed campaigns all
render byte-identical validation tables.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.constants import QueryType
from repro.dnslib.fastwire import build_query_wire
from repro.dnslib.message import DnsMessage
from repro.dnslib.records import ResourceRecord
from repro.dnslib.signing import corrupt_rrsig, sign_rrset
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnslib.zone import Zone
from repro.dnssrv.auth import AuthoritativeServer
from repro.netsim.network import Network
from repro.netsim.packet import Datagram
from repro.netsim.seeds import derive_seed
from repro.stats import ValidationTable
from repro.transport.base import Transport

#: Splitmix64 lane tag for the census network/fault seeds (arbitrary,
#: fixed forever: changing it reshuffles every census's packet fates).
VALIDATION_LANE = 0xD55C

#: Sub-zone label the probe names live under (beneath the measurement
#: SLD, so resolving targets genuinely reach the authoritative server).
VALIDATION_ZONE_LABEL = "dnssec-validation"

#: The two probe owners inside the validation zone.
CONTROL_LABEL = "valid"
BOGUS_LABEL = "bogus"

#: Probe-name answer addresses, drawn from TEST-NET-2 (RFC 5737) so
#: they never collide with a sampled resolver.
CONTROL_ADDRESS = "198.51.100.41"
BOGUS_ADDRESS = "198.51.100.42"

#: Most query shapes :class:`SigningAuthoritativeServer` memoises
#: before it starts over. The census needs a handful; the bound keeps
#: a server fed random qnames from growing the memo without limit.
REPLY_MEMO_LIMIT = 1024

#: Reply classes of :meth:`ValidationScanner.classify_reply`.
REPLY_IGNORED = 0  # undecodable, no A record, or another qname
REPLY_CONTROL = 1  # an A answer for the control name
REPLY_BOGUS = 2  # an A answer for the bogus name


def build_validation_zone(sld: str) -> Zone:
    """The signed probe zone: one good RRSIG, one corrupted one.

    Both names carry TTL 0 (uncacheable, like the DO-probe zone) and a
    real A record; only the ``bogus`` name's signature is broken, so
    the *only* observable difference between the two lookups is
    whether the resolver verifies what it resolved.
    """
    origin = f"{VALIDATION_ZONE_LABEL}.{sld}"
    zone = Zone(origin)
    control_name = f"{CONTROL_LABEL}.{origin}"
    bogus_name = f"{BOGUS_LABEL}.{origin}"
    zone.add_a(control_name, CONTROL_ADDRESS, ttl=0)
    zone.add_a(bogus_name, BOGUS_ADDRESS, ttl=0)
    zone.add(sign_rrset(zone.rrset(control_name, QueryType.A), origin))
    zone.add(corrupt_rrsig(sign_rrset(zone.rrset(bogus_name, QueryType.A), origin)))
    return zone


class SigningAuthoritativeServer(AuthoritativeServer):
    """An authoritative server that returns RRSIGs alongside answers.

    For every answered RRset it appends the zone's stored RRSIG whose
    ``type_covered`` matches — unconditionally, without EDNS(0) DO
    gating, because the census classifies resolvers by what they *do*
    with a signature, not by what they ask for. Overriding
    :meth:`respond` automatically disables the base class's verified
    single-A fast path.

    In its place :meth:`handle` memoises whole replies: the response
    wire after the 2-byte message ID is a pure function of the query
    bytes after the ID and of the loaded zones, so a repeated query
    shape is answered by patching the ID into the stored reply. The
    memo is cleared whenever the zone set changes (:meth:`load_zone`,
    which :meth:`install_cluster` goes through, and
    :meth:`unload_zone`), holds at most
    :data:`REPLY_MEMO_LIMIT` shapes, and is bypassed whenever a query
    has a per-query side effect beyond ``queries_served``: a rate
    limiter, a retained query log, or a reload window.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._reply_tails: dict[bytes, bytes] = {}

    def load_zone(self, zone: Zone) -> None:
        super().load_zone(zone)
        self._reply_tails.clear()

    def unload_zone(self, origin: str) -> None:
        super().unload_zone(origin)
        self._reply_tails.clear()

    def handle(self, datagram: Datagram, network: Transport) -> None:
        now = network.now
        if (
            self.rate_limiter is not None
            or self.retain_query_log
            or now < self._loading_until
        ):
            super().handle(datagram, network)
            return
        payload = datagram.payload
        key = payload[2:]
        tail = self._reply_tails.get(key)
        if tail is not None:
            self.queries_served += 1
            network.send(datagram.reply(payload[:2] + tail))
            return
        try:
            query = decode_message(payload)
        except DnsWireError:
            return
        wire = encode_message(self.respond(query, now))
        if len(self._reply_tails) >= REPLY_MEMO_LIMIT:
            self._reply_tails.clear()
        self._reply_tails[key] = wire[2:]
        network.send(datagram.reply(wire))

    def respond(self, query: DnsMessage, now: float) -> DnsMessage:
        response = super().respond(query, now)
        if not response.answers:
            return response
        rrsigs: list[ResourceRecord] = []
        seen: set[tuple[str, int]] = set()
        for record in response.answers:
            if int(record.rtype) == int(QueryType.RRSIG):
                continue
            key = (record.name, int(record.rtype))
            if key in seen:
                continue
            seen.add(key)
            for zone in self.zones_for(record.name):
                matched = [
                    sig
                    for sig in zone.rrset(record.name, QueryType.RRSIG)
                    if int(sig.data.type_covered) == int(record.rtype)
                ]
                if matched:
                    rrsigs.extend(matched)
                    break
        response.answers.extend(rrsigs)
        return response


@dataclasses.dataclass
class ValidationCensus:
    """Outcome of one bogus-probe scan over a target list."""

    targets: int
    validating: set[str]
    non_validating: set[str]
    unresponsive: set[str]

    def table(self) -> ValidationTable:
        """The census as the campaign report's table structure."""
        return ValidationTable(
            targets=self.targets,
            validating=len(self.validating),
            non_validating=len(self.non_validating),
            unresponsive=len(self.unresponsive),
        )


class ValidationScanner:
    """Probes each target for the control and the bogus name.

    Attribution is by ``(source address, decoded qname)`` and
    intersected with the probed target set, so an off-path answer —
    a transparent forwarder's upstream replying on the target's
    behalf — never inflates a target's responsiveness.
    """

    def __init__(
        self,
        network: Network,
        auth: AuthoritativeServer,
        sld: str,
        scanner_ip: str = "132.170.3.19",
        source_port: int = 31341,
    ) -> None:
        self.network = network
        self.auth = auth
        self.sld = sld
        self.scanner_ip = scanner_ip
        self.source_port = source_port
        origin = f"{VALIDATION_ZONE_LABEL}.{sld}"
        self.zone_origin = origin
        self.control_qname = f"{CONTROL_LABEL}.{origin}"
        self.bogus_qname = f"{BOGUS_LABEL}.{origin}"
        self._answered_control: set[str] = set()
        self._answered_bogus: set[str] = set()
        # Reply class by the reply's bytes after the message ID.
        self._reply_classes: dict[bytes, int] = {}

    def scan(self, targets: list[str]) -> ValidationCensus:
        self.auth.load_zone(build_validation_zone(self.sld))
        self.network.bind(self.scanner_ip, self.source_port, self._on_response)
        # The two queries differ per target only in the message ID:
        # encode each once and patch the ID in.
        tails = [
            build_query_wire(qname)[2:]
            for qname in (self.control_qname, self.bogus_qname)
        ]
        try:
            for index, target in enumerate(targets):
                msg_id = (index & 0xFFFF).to_bytes(2, "big")
                for tail in tails:
                    self.network.send(
                        Datagram(
                            self.scanner_ip, self.source_port, target, 53,
                            msg_id + tail,
                        )
                    )
            self.network.run()
        finally:
            self.network.unbind(self.scanner_ip, self.source_port)
            self.auth.unload_zone(self.zone_origin)
            self._reply_classes.clear()
        probed = set(targets)
        responsive = self._answered_control & probed
        validating = responsive - self._answered_bogus
        return ValidationCensus(
            targets=len(probed),
            validating=validating,
            non_validating=responsive - validating,
            unresponsive=probed - responsive,
        )

    def classify_reply(self, payload: bytes) -> int:
        """The reply's class: :data:`REPLY_CONTROL`, :data:`REPLY_BOGUS`
        or :data:`REPLY_IGNORED`.

        The class never reads the message ID, so it is memoised on the
        bytes after it: each new reply shape is decoded once, and every
        repeat costs one dict lookup.
        """
        key = payload[2:]
        reply_class = self._reply_classes.get(key)
        if reply_class is None:
            reply_class = self._decode_reply_class(payload)
            self._reply_classes[key] = reply_class
        return reply_class

    def _decode_reply_class(self, payload: bytes) -> int:
        try:
            response = decode_message(payload)
        except DnsWireError:
            return REPLY_IGNORED
        if response.first_a_record() is None:
            # SERVFAILs and empty answers are the validating signal.
            return REPLY_IGNORED
        if response.qname == self.control_qname:
            return REPLY_CONTROL
        if response.qname == self.bogus_qname:
            return REPLY_BOGUS
        return REPLY_IGNORED

    def _on_response(self, datagram: Datagram, network: Network) -> None:
        reply_class = self.classify_reply(datagram.payload)
        if reply_class == REPLY_CONTROL:
            self._answered_control.add(datagram.src_ip)
        elif reply_class == REPLY_BOGUS:
            self._answered_bogus.add(datagram.src_ip)


def run_validation_census(config, population, validators=None) -> ValidationCensus:
    """Run the bogus-probe census against a campaign's population.

    Deploys the population (transparent-forwarder overlay included, if
    the caller applied it) on a fresh network whose seed, faults and
    loss model derive only from campaign knobs that are invariant
    across execution modes — the byte-identity contract for the
    validation table. The scan reuses the campaign's validator set
    when given one, or re-derives it from ``(seed, year)``.

    Hosts that fabricate answers without consulting an upstream are
    counted non-validating even when flagged as validators: they
    answer the bogus name because they never see its signature. That
    is the measurement's honest limit, not a bug — a real bogus-probe
    scan cannot observe validation a resolver never performs.
    """
    from repro.dnssrv.hierarchy import AUTH_IP, MEASUREMENT_SLD
    from repro.netsim.faults import build_injector
    from repro.netsim.latency import LogNormalLatency
    from repro.netsim.loss import BernoulliLoss
    from repro.resolvers.population import deploy_forwarder_upstreams

    if validators is None:
        from repro.dnssec.census import assign_validators

        validators = assign_validators(
            population, year=config.year, seed=config.seed
        )
    census_seed = derive_seed(config.seed, VALIDATION_LANE)
    loss = BernoulliLoss(config.loss_rate) if config.loss_rate else None
    network = Network(
        seed=census_seed,
        latency=LogNormalLatency(median=config.latency_median, sigma=0.5),
        loss=loss,
    )
    auth = SigningAuthoritativeServer(AUTH_IP, zone_history=None)
    auth.retain_query_log = False  # nothing reads it; the scan is O(2·targets)
    auth.attach(network)
    scanner = ValidationScanner(network, auth, sld=MEASUREMENT_SLD)
    profile = population.profile
    network.attach_faults(
        build_injector(
            config.fault_profile, census_seed, 0, 1,
            exempt={auth.ip, scanner.scanner_ip, *profile.forwarder_upstreams},
        )
    )
    population.deploy(network, auth_ip=auth.ip, dnssec_validators=validators)
    deploy_forwarder_upstreams(network, profile, auth.ip)
    return scanner.scan(sorted(population.address_set()))


def render_validation_census(census: ValidationCensus, year: int) -> str:
    """Text summary of one year's bogus-probe scan."""
    table = census.table()
    return "\n".join(
        [
            f"DNSSEC validation behavior ({year})",
            f"  targets probed (2 qnames):  {table.targets:,}",
            f"  responsive:                 {table.responsive:,}",
            f"  validating (bogus blocked): {table.validating:,} "
            f"({table.validating_share:.1f}% of responsive)",
            f"  non-validating:             {table.non_validating:,}",
            f"  unresponsive:               {table.unresponsive:,}",
        ]
    )
