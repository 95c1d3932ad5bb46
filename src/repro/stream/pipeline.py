"""Wiring: one object that turns a live scan into folded tables.

A :class:`StreamPipeline` owns the sink → assembler → aggregate chain
for one simulation. Attach it to the network before the prober starts,
run the scan, then :meth:`finish` — the returned
:class:`~repro.stream.aggregate.TableAggregate` holds everything
Tables II–X need, without a single retained packet.
"""

from __future__ import annotations

from repro.dnssrv.auth import AuthoritativeServer
from repro.netsim.network import Network
from repro.prober.capture import FlowSet, IncrementalJoin
from repro.prober.probe import PROBER_IP
from repro.stream.aggregate import TableAggregate
from repro.stream.assembler import FlowAssembler, StreamStats
from repro.stream.events import CaptureSink


class StreamPipeline:
    """Event-driven aggregation for one scan (one network, one prober)."""

    def __init__(
        self,
        truth_ip: str,
        prober_ip: str = PROBER_IP,
        source_port: int = 31337,
        response_window: float = 5.0,
        upstream_ips: frozenset[str] = frozenset(),
        retain_flows: bool = False,
    ) -> None:
        """``truth_ip`` is the authoritative server's address — both the
        ground truth for correctness and the source filter for Q2/R1.
        ``upstream_ips`` (forwarder upstreams) lets the sink tell
        transparent-forwarder relays apart from fresh probes.
        ``retain_flows`` (a scan that keeps its captures, i.e. not
        ``drop_captures``) also joins every R2 view as it is decoded,
        for :meth:`flows`."""
        self.aggregate = TableAggregate(truth_ip)
        self.assembler = FlowAssembler(
            self.aggregate, response_window=response_window,
            join=IncrementalJoin() if retain_flows else None,
        )
        self.sink = CaptureSink(
            self.assembler,
            auth_ip=truth_ip,
            prober_ip=prober_ip,
            source_port=source_port,
            upstream_ips=upstream_ips,
        )
        self._network: Network | None = None

    @property
    def stats(self) -> StreamStats:
        return self.assembler.stats

    def attach(self, network: Network) -> None:
        network.attach_sink(self.sink)
        self._network = network

    def finish(self) -> TableAggregate:
        """Detach, fold every still-live flow, return the final state."""
        if self._network is not None:
            self._network.detach_sink(self.sink)
            self._network = None
        return self.assembler.close()

    def flows(self, auth: AuthoritativeServer) -> FlowSet:
        """The scan's batch flow set, from the views decoded on arrival.

        Equal to ``join_flows(capture.r2_records, auth)`` in content
        and dict order — the views joined in delivery order, which is
        capture order, and the auth query log is joined after them —
        but no R2 is decoded twice. Empty without ``retain_flows``.
        Call once, after :meth:`finish`.
        """
        join = self.assembler.join
        if join is None:
            return FlowSet(flows={}, unjoinable=[])
        for entry in auth.query_log:
            join.add_query(entry.timestamp, entry.qname)
        return join.result()
