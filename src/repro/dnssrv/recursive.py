"""The iterative-resolution engine behind a *standard* open resolver.

Implements Fig 1 of the paper: a client query arrives (step 1), the
engine walks root → TLD → authoritative following referrals (steps
2-7), caches the result and answers the client with RA=1 (step 8).

The engine is fully event-driven over the simulated network: upstream
queries are matched to pending resolutions by message ID, retries move
to the next server of the current referral level, and exhaustion or
depth overrun yields SERVFAIL — the standard-conformant behaviors the
paper's deviant resolvers fail to exhibit.

A cache miss costs a client query, three upstream queries and three
replies, and the client's answer. Each of those takes the
``repro.dnslib.fastwire`` layer when it can (DESIGN.md §8, "serve
path"): strictly parsed client queries, ``build_query_wire`` upstream
queries, recognized referral/negative/single-A replies, and verified
response templates. Each fast path yields exactly the slow path's
bytes or fields, or steps aside and the full codec runs.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.chaos import is_version_bind_query, version_bind_response
from repro.dnslib.constants import DnsClass, QueryType, Rcode
from repro.dnslib.fastwire import (
    FastQuery,
    TemplateCache,
    build_question_wire,
    parse_simple_query,
    peek_upstream_reply,
    query_with_question,
)
from repro.dnslib.message import DnsMessage, make_query, make_response
from repro.dnslib.records import (
    AaaaData,
    AData,
    CnameData,
    MxData,
    NsData,
    OptData,
    PtrData,
    RawData,
    RrsigData,
    SoaData,
    TxtData,
)
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnssrv.cache import DnsCache
from repro.netsim.packet import Datagram
from repro.policy.engine import PolicyAction
from repro.transport.base import CancelHandle, Transport

#: Port the engine uses for its upstream (iterative) queries.
UPSTREAM_PORT = 10053

#: Upstream message IDs run 1..0xFFFF; this many in flight exhausts them.
_TXID_SPACE = 0xFFFF

#: The names an RDATA type writes (and so may compress against the
#: qname), by type. A reply whose answers hold any other type is
#: rendered by the full codec only.
_RDATA_NAMES = {
    AData: (), AaaaData: (), TxtData: (), RawData: (), OptData: (),
    NsData: ("nsdname",), CnameData: ("cname",), PtrData: ("ptrdname",),
    MxData: ("exchange",), SoaData: ("mname", "rname"),
    RrsigData: ("signer_name",),
}


@dataclasses.dataclass
class ResolutionTrace:
    """The servers consulted while resolving one name, in order."""

    qname: str
    steps: list[tuple[str, str]] = dataclasses.field(default_factory=list)
    outcome: str = "pending"

    def visit(self, server_ip: str, disposition: str) -> None:
        self.steps.append((server_ip, disposition))


@dataclasses.dataclass
class _Pending:
    client: Datagram | None
    #: The client's query: decoded, or strictly parsed on the fast path.
    query: DnsMessage | FastQuery | None
    qname: str
    qtype: int
    servers: list[str]
    server_index: int = 0
    depth: int = 0
    restarts: int = 0
    timeout_event: CancelHandle | None = None
    trace: ResolutionTrace | None = None
    #: Set on internal sub-resolutions spawned to chase a glueless NS
    #: name (the NXNSAttack vector); completion feeds the parent
    #: instead of answering a client.
    parent: "_Pending | None" = None
    #: On a parent awaiting glueless NS children: how many are still in
    #: flight, and whether one already resumed the referral walk.
    ns_outstanding: int = 0
    ns_resumed: bool = False
    #: The question section of the upstream queries for ``qname``, as
    #: sent; a reply is read on the fast path only if it echoes these
    #: bytes. Cleared when a CNAME restart changes the name.
    question: bytes = b""


@dataclasses.dataclass
class ResolverStats:
    client_queries: int = 0
    cache_answers: int = 0
    upstream_queries: int = 0
    answered: int = 0
    servfail: int = 0
    nxdomain: int = 0
    #: Defense/degradation accounting (all zero with the knobs off).
    quota_refused: int = 0
    negative_hits: int = 0
    load_shed: int = 0
    glueless_launched: int = 0
    glueless_capped: int = 0
    #: Upstream ID allocation: IDs skipped because still in flight, and
    #: resolutions failed because every ID was.
    txid_collisions: int = 0
    txid_exhausted: int = 0


class RecursiveResolver:
    """A correct, recursion-available resolver bound to one IP."""

    def __init__(
        self,
        ip: str,
        root_servers: list[str],
        cache: DnsCache | None = None,
        timeout: float = 2.0,
        max_depth: int = 8,
        max_restarts: int = 4,
        record_traces: bool = False,
        version_banner: str | None = None,
        accept_unsolicited_additionals: bool = False,
        rate_limiter=None,
        query_quota=None,
        negative_ttl: float = 0.0,
        max_negative_entries: int = 10_000,
        max_glueless: int = 0,
        max_pending: int | None = None,
        upstream_port: int = UPSTREAM_PORT,
        server_port: int = 53,
        policy=None,
    ) -> None:
        """``accept_unsolicited_additionals=True`` models the record-
        injection vulnerability of Schomp et al. / Klein et al.: the
        resolver caches A records from a response's additional section
        without a bailiwick check, letting a malicious authoritative
        server plant answers for *other* domains.

        The remaining knobs are the defense matrix (DESIGN.md §11):

        - ``query_quota`` — a :class:`~repro.dnssrv.ratelimit
          .ClientQueryQuota`; clients over budget get REFUSED before
          any recursion starts;
        - ``negative_ttl`` — cache NXDOMAIN/SERVFAIL outcomes for that
          many seconds (RFC 2308 in miniature), so repeated junk names
          stop reaching the authoritative hierarchy;
        - ``max_glueless`` — how many glueless NS names one referral
          may fan out into sub-resolutions (0 disables the chase
          entirely, the historical behavior; NXNSAttack's fix caps
          this small);
        - ``max_pending`` — bound on the in-flight resolution table;
          at the bound new work is shed with SERVFAIL (counted in
          ``stats.load_shed``) instead of growing without limit.

        ``upstream_port`` is the source port for iterative queries
        (``0`` on the socket backend picks an ephemeral port — attach
        records the resolved one); ``server_port`` is where the
        root/TLD/authoritative servers listen. Both default to the
        historical simulator values.

        ``policy`` is an optional :class:`~repro.policy.engine
        .PolicyEngine` consulted before the defense knobs on every
        client query (REFUSED/NXDOMAIN/sinkhole verdicts answered
        locally, zone routes seeding resolution at the routed
        upstream) and on every outbound answer (rewrite hook).
        Restarted resolutions (CNAME chase, stale-cache retry) fall
        back to the root servers even for routed zones.
        """
        if not root_servers:
            raise ValueError("need at least one root server address")
        if negative_ttl < 0:
            raise ValueError("negative_ttl must be non-negative")
        if max_glueless < 0:
            raise ValueError("max_glueless must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None)")
        self.ip = ip
        self.version_banner = version_banner
        self.accept_unsolicited_additionals = accept_unsolicited_additionals
        self.rate_limiter = rate_limiter
        self.query_quota = query_quota
        self.negative_ttl = negative_ttl
        self.max_negative_entries = max_negative_entries
        self.max_glueless = max_glueless
        self.max_pending = max_pending
        self.policy = policy
        self.root_servers = list(root_servers)
        self.cache = cache if cache is not None else DnsCache()
        self.timeout = timeout
        self.max_depth = max_depth
        self.max_restarts = max_restarts
        self.record_traces = record_traces
        self.upstream_port = upstream_port
        self.server_port = server_port
        self.traces: list[ResolutionTrace] = []
        self.stats = ResolverStats()
        self._network: Transport | None = None
        self._pending: dict[int, _Pending] = {}
        self._negative: dict[tuple[str, int], tuple[float, int]] = {}
        self._next_id = 1
        # Verified templates for the client replies. Tests turn
        # _fast_ok off to run every codec call through the full codec.
        self._templates = TemplateCache()
        self._fast_ok = True

    # -- wiring ------------------------------------------------------------

    def attach(self, network: Transport, port: int = 53):
        """Bind the client-facing port and the upstream port.

        Returns the client-facing :class:`~repro.transport.base
        .Listener` on transports that produce one (the bare simulated
        network returns None). Binding an ephemeral upstream port
        (``upstream_port=0``) records the resolved port so outgoing
        iterative queries carry the address their socket really has.
        """
        self._network = network
        listener = network.bind(self.ip, port, self.handle_client)
        upstream = network.bind(self.ip, self.upstream_port, self.handle_upstream)
        if upstream is not None:
            self.upstream_port = upstream.endpoint.port
        return listener

    @property
    def pending_count(self) -> int:
        """In-flight resolutions (the daemon's drain gate)."""
        return len(self._pending)

    # -- client side ---------------------------------------------------------

    def handle_client(self, datagram: Datagram, network: Transport) -> None:
        if self._fast_ok and self.policy is None:
            fast_query = parse_simple_query(datagram.payload)
            if fast_query is not None and fast_query.qclass == DnsClass.IN:
                self.stats.client_queries += 1
                self._resolve(
                    datagram, network, fast_query,
                    fast_query.qname, fast_query.qtype, None,
                )
                return
        try:
            query = decode_message(datagram.payload)
        except DnsWireError:
            return
        self.stats.client_queries += 1
        if not query.questions:
            self._reply(datagram, query, Rcode.FORMERR)
            return
        if is_version_bind_query(query):
            network.send(
                datagram.reply(version_bind_response(query, self.version_banner))
            )
            return
        route_servers: list[str] | None = None
        if self.policy is not None:
            decision = self.policy.evaluate_query(datagram.src_ip, query.qname)
            if decision.action is PolicyAction.REFUSE:
                self._reply(datagram, query, Rcode.REFUSED)
                return
            if decision.action is PolicyAction.NXDOMAIN:
                self.stats.nxdomain += 1
                self._reply(datagram, query, Rcode.NXDOMAIN)
                return
            if decision.action is PolicyAction.SINKHOLE:
                self.stats.answered += 1
                self._reply(
                    datagram, query,
                    answers=[self.policy.sinkhole_answer(query.qname)],
                )
                return
            if decision.action is PolicyAction.ROUTE:
                route_servers = [decision.target]
        question = query.questions[0]
        self._resolve(
            datagram, network, query,
            question.qname, int(question.qtype), route_servers,
        )

    def _resolve(
        self,
        datagram: Datagram,
        network: Transport,
        query: DnsMessage | FastQuery,
        qname: str,
        qtype: int,
        route_servers: list[str] | None,
    ) -> None:
        """Quota, cache, negative cache, load shedding, then recursion."""
        if self.query_quota is not None and not self.query_quota.allow(
            datagram.src_ip, network.now
        ):
            self.stats.quota_refused += 1
            self._reply(datagram, query, Rcode.REFUSED)
            return
        cached = self.cache.get(qname, qtype, network.now)
        if cached is not None:
            self.stats.cache_answers += 1
            self.stats.answered += 1
            self._reply(datagram, query, answers=cached)
            return
        if self.negative_ttl > 0.0:
            entry = self._negative.get((qname, qtype))
            if entry is not None:
                expires, rcode = entry
                if network.now < expires:
                    self.stats.negative_hits += 1
                    if rcode == Rcode.NXDOMAIN:
                        self.stats.nxdomain += 1
                    else:
                        self.stats.servfail += 1
                    self._reply(datagram, query, rcode)
                    return
                del self._negative[(qname, qtype)]
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            self.stats.load_shed += 1
            self.stats.servfail += 1
            self._reply(datagram, query, Rcode.SERVFAIL)
            return
        pending = _Pending(
            client=datagram,
            query=query,
            qname=qname,
            qtype=qtype,
            servers=route_servers if route_servers is not None else list(self.root_servers),
        )
        if self.record_traces:
            pending.trace = ResolutionTrace(qname)
            self.traces.append(pending.trace)
        self._send_upstream(pending)

    # -- upstream side ---------------------------------------------------

    def _allocate_txid(self) -> int | None:
        """The next free upstream message ID, skipping IDs in flight.

        Overwriting a live entry on wraparound would orphan the older
        resolution and hand its reply to the newer one; instead the
        allocator probes forward (counting collisions) and reports
        exhaustion when every ID is busy. With no ID in flight hit,
        the sequence is the plain 1..0xFFFF counter.
        """
        if len(self._pending) >= _TXID_SPACE:
            self.stats.txid_exhausted += 1
            return None
        msg_id = self._next_id
        while msg_id in self._pending:
            self.stats.txid_collisions += 1
            msg_id = msg_id % _TXID_SPACE + 1
        self._next_id = msg_id % _TXID_SPACE + 1
        return msg_id

    def _send_upstream(self, pending: _Pending) -> None:
        network = self._require_network()
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        msg_id = self._allocate_txid()
        if msg_id is None:
            self._finish_error(pending, Rcode.SERVFAIL)
            return
        self._pending[msg_id] = pending
        pending.timeout_event = network.schedule(
            self.timeout, lambda: self._on_timeout(msg_id, pending)
        )
        server_ip = pending.servers[pending.server_index]
        if self._fast_ok:
            # Byte-identical to build_query_wire; the question is built
            # once per name, however many servers are asked.
            if not pending.question:
                pending.question = build_question_wire(
                    pending.qname, pending.qtype
                )
            wire = query_with_question(
                pending.question, msg_id, recursion_desired=False
            )
        else:
            wire = encode_message(
                make_query(
                    pending.qname, qtype=pending.qtype, msg_id=msg_id,
                    recursion_desired=False,
                )
            )
        self.stats.upstream_queries += 1
        network.send(
            Datagram(
                self.ip, self.upstream_port, server_ip, self.server_port, wire,
            )
        )

    def handle_upstream(self, datagram: Datagram, network: Transport) -> None:
        payload = datagram.payload
        if self._fast_ok and len(payload) >= 12:
            msg_id = payload[0] << 8 | payload[1]
            pending = self._pending.get(msg_id)
            if pending is not None:
                fields = peek_upstream_reply(payload, pending.question)
                if fields is not None:
                    del self._pending[msg_id]
                    if pending.timeout_event is not None:
                        pending.timeout_event.cancel()
                    self._advance(pending, datagram.src_ip, *fields)
                    return
        try:
            response = decode_message(payload)
        except DnsWireError:
            return
        pending = self._pending.pop(response.header.msg_id, None)
        if pending is None:
            return  # late or unsolicited
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        if self.accept_unsolicited_additionals and response.answers:
            # VULNERABLE PATH: cache additional-section A records with no
            # bailiwick check (the record-injection vector). No reply the
            # fast path reads has both answers and additionals.
            for record in response.additionals:
                if record.rtype == QueryType.A:
                    self.cache.put(record.name, QueryType.A, [record], network.now)
        self._advance(
            pending, datagram.src_ip, response.rcode, response.answers,
            [
                record.data.nsdname
                for record in response.authorities
                if record.rtype == QueryType.NS
            ],
            [
                (record.name, record.data.address)
                for record in response.additionals
                if record.rtype == QueryType.A
            ],
        )

    def _advance(
        self,
        pending: _Pending,
        server_ip: str,
        rcode: int,
        answers: list,
        ns_names: list[str],
        glue: list[tuple[str, str]],
    ) -> None:
        """Interpret one upstream response: answer, referral, or error.

        ``ns_names`` are the authority section's NS targets and ``glue``
        the additional section's A records as (owner, address), both in
        wire order.
        """
        if rcode != Rcode.NOERROR:
            if pending.trace is not None:
                self._trace(pending, server_ip, Rcode(rcode).name.lower())
            self._finish_error(pending, rcode)
            return
        if answers:
            addresses = [
                record for record in answers if record.rtype == pending.qtype
            ]
            if addresses or pending.qtype == QueryType.ANY:
                self._trace(pending, server_ip, "answer")
                self._finish_answer(pending, answers)
                return
            cnames = [
                record
                for record in answers
                if record.rtype == QueryType.CNAME
            ]
            if cnames:
                self._trace(pending, server_ip, "cname")
                self._restart(pending, cnames[0].data.cname)
                return
            self._trace(pending, server_ip, "answer")
            self._finish_answer(pending, answers)
            return
        addresses_by_name = dict(glue)
        referral_ips = [
            addresses_by_name[name]
            for name in ns_names
            if name in addresses_by_name
        ]
        if referral_ips:
            self._trace(pending, server_ip, "referral")
            pending.depth += 1
            if pending.depth > self.max_depth:
                self._finish_error(pending, Rcode.SERVFAIL)
                return
            pending.servers = referral_ips
            pending.server_index = 0
            self._send_upstream(pending)
            return
        if ns_names and self.max_glueless > 0:
            self._chase_glueless(pending, server_ip, ns_names)
            return
        # NOERROR, no answers, no usable referral: NODATA.
        self._trace(pending, server_ip, "nodata")
        self._finish_answer(pending, [])

    def _chase_glueless(
        self, pending: _Pending, server_ip: str, ns_names: list[str]
    ) -> None:
        """Resolve glueless NS names with internal sub-resolutions.

        This is the NXNSAttack surface: one referral listing N glueless
        NS names fans out into up to N full root-to-auth walks for
        names the zone owner controls. ``max_glueless`` is the fan-out
        cap (the post-NXNS fix in production resolvers); the parent's
        depth counter still bounds chained referrals.
        """
        self._trace(pending, server_ip, "glueless")
        pending.depth += 1
        if pending.depth > self.max_depth:
            self._finish_error(pending, Rcode.SERVFAIL)
            return
        names = ns_names[: self.max_glueless]
        self.stats.glueless_capped += len(ns_names) - len(names)
        pending.ns_outstanding = len(names)
        pending.ns_resumed = False
        for name in names:
            self.stats.glueless_launched += 1
            child = _Pending(
                client=None,
                query=None,
                qname=name,
                qtype=int(QueryType.A),
                servers=list(self.root_servers),
                parent=pending,
            )
            self._send_upstream(child)

    def _restart(self, pending: _Pending, new_qname: str) -> None:
        """Chase a CNAME by restarting resolution at the root."""
        pending.restarts += 1
        if pending.restarts > self.max_restarts:
            self._finish_error(pending, Rcode.SERVFAIL)
            return
        pending.qname = new_qname
        pending.question = b""
        pending.depth = 0
        pending.servers = list(self.root_servers)
        pending.server_index = 0
        self._send_upstream(pending)

    def _on_timeout(self, msg_id: int, pending: _Pending) -> None:
        # Bound to the resolution that sent the query: a timer that
        # outlived its query cannot fail whatever holds the ID now.
        if self._pending.get(msg_id) is not pending:
            return
        del self._pending[msg_id]
        pending.server_index += 1
        if pending.server_index < len(pending.servers):
            self._send_upstream(pending)
            return
        self._finish_error(pending, Rcode.SERVFAIL)

    # -- completion ------------------------------------------------------

    def _finish_answer(self, pending: _Pending, answers) -> None:
        network = self._require_network()
        if answers:
            self.cache.put(pending.qname, pending.qtype, answers, network.now)
        if pending.parent is not None:
            self._finish_glueless(pending, answers)
            return
        self.stats.answered += 1
        if pending.trace is not None:
            pending.trace.outcome = "answered"
        self._reply(pending.client, pending.query, answers=answers)

    def _finish_error(self, pending: _Pending, rcode: int) -> None:
        if self.negative_ttl > 0.0 and rcode in (Rcode.NXDOMAIN, Rcode.SERVFAIL):
            self._store_negative(pending.qname, pending.qtype, int(rcode))
        if pending.trace is not None:
            pending.trace.outcome = Rcode(rcode).name.lower()
        if pending.parent is not None:
            self._finish_glueless(pending, [])
            return
        if rcode == Rcode.NXDOMAIN:
            self.stats.nxdomain += 1
        else:
            self.stats.servfail += 1
        self._reply(pending.client, pending.query, rcode)

    def _finish_glueless(self, child: _Pending, answers) -> None:
        """Fold a glueless-NS sub-resolution back into its parent.

        The first child to produce an address resumes the parent's
        referral walk against that address; children completing after
        the resume are no-ops. If every child fails the parent
        SERVFAILs — there is no server left to ask.
        """
        parent = child.parent
        if parent is None:  # pragma: no cover - guarded by callers
            return
        parent.ns_outstanding -= 1
        if parent.ns_resumed:
            return
        addresses = [
            record.data.address
            for record in answers
            if record.rtype == QueryType.A
        ]
        if addresses:
            parent.ns_resumed = True
            parent.servers = addresses
            parent.server_index = 0
            self._send_upstream(parent)
            return
        if parent.ns_outstanding == 0:
            self._finish_error(parent, Rcode.SERVFAIL)

    def _store_negative(self, qname: str, qtype: int, rcode: int) -> None:
        """Bounded RFC 2308-style negative cache (NXDOMAIN/SERVFAIL)."""
        if len(self._negative) >= self.max_negative_entries:
            # Deterministic FIFO eviction: dicts preserve insert order.
            self._negative.pop(next(iter(self._negative)))
        network = self._require_network()
        self._negative[(qname, qtype)] = (
            network.now + self.negative_ttl, rcode,
        )

    def _reply(
        self,
        client: Datagram,
        query: DnsMessage | FastQuery,
        rcode: int = Rcode.NOERROR,
        answers: list | None = None,
    ) -> None:
        """Answer ``client`` with RA=1: ``rcode`` and ``answers``."""
        network = self._require_network()
        answers = answers or []
        if isinstance(query, FastQuery):
            # Only built with no policy engine, so there is no rewrite.
            if self.rate_limiter is not None and not self.rate_limiter.allow(
                client.src_ip, network.now
            ):
                return  # RRL: response suppressed
            network.send(client.reply(self._render(query, rcode, answers)))
            return
        response = make_response(query, rcode=rcode, answers=answers, ra=True)
        if self.policy is not None:
            response = self.policy.rewrite_response(response)
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            client.src_ip, network.now
        ):
            return  # RRL: response suppressed
        network.send(client.reply(encode_message(response)))

    def _render(self, query: FastQuery, rcode: int, answers: list) -> bytes:
        """The reply wire for a strictly parsed query, via a template.

        An answer owned by the qname compresses to the constant offset
        12, so the key drops that owner and one template serves every
        qname with the same answer content; every other name the
        answers write guards the template, and then the qname length
        joins the key.
        """

        def slow() -> bytes:
            return encode_message(
                make_response(
                    query.to_message(), rcode=rcode, answers=answers, ra=True
                )
            )

        shape = []
        guards = []
        for record in answers:
            fields = _RDATA_NAMES.get(type(record.data))
            if fields is None:
                return slow()
            owner = record.name
            if owner == query.qname:
                owner = None
            else:
                guards.append(owner)
            guards.extend(getattr(record.data, field) for field in fields)
            shape.append(
                (owner, record.rtype, record.rclass, record.ttl, record.data)
            )
        key = (
            rcode, query.qtype, query.qclass, query.flags_word & 0x0100,
            tuple(shape), len(query.qname) if guards else 0,
        )
        return self._templates.render(key, query, slow, tuple(guards))

    def _trace(self, pending: _Pending, server_ip: str, disposition: str) -> None:
        if pending.trace is not None:
            pending.trace.visit(server_ip, disposition)

    def _require_network(self) -> Transport:
        if self._network is None:
            raise RuntimeError("resolver not attached to a network")
        return self._network
