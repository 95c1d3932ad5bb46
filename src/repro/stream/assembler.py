"""Online Q1/Q2/R1/R2 flow assembly with bounded-memory eviction.

The batch pipeline materializes every capture record and joins them at
scan end (:func:`repro.prober.capture.join_flows`). The
:class:`FlowAssembler` performs the same qname-keyed join *online*: it
consumes flow events in simulated-time order, keeps one compact
:class:`StreamFlow` per live qname (never a raw payload), and folds a
flow into the :class:`~repro.stream.aggregate.TableAggregate` as soon
as the flow can no longer change.

Eviction policy (see DESIGN.md §7):

- A flow's *activity clock* restarts on every event that touches its
  qname — Q1 transmissions (retransmissions included), Q2/R1 service
  at the auth server, and R2 arrivals.
- A flow is evicted once the stream watermark passes
  ``last_activity + horizon`` where ``horizon = response_window +
  lateness``. Because ``horizon >= response_window``, a flow that will
  still receive an R2 inside the prober's response window is — by
  construction — never evicted early; the ``lateness`` slack
  additionally covers delivery latency, fault-injected spikes,
  reordering jitter and duplicate-copy delays of in-flight responses.
- An evicted *unanswered* flow contributes only its Q2/R1 counts, which
  are additive across qname reuses, so late resurrection of the qname
  (a reused subdomain, or the response-window race the property tests
  replay) simply opens a fresh flow and the totals still match the
  batch join. An evicted *answered* flow has folded its final view; its
  qname was burned by the prober, so no new probe can reuse it.

Equivalence to ``join_flows`` — same per-qname last-record-wins view,
same Q2/R1 totals, same unjoinable set — is pinned by the golden
streaming-vs-batch table tests across fault profiles and worker counts.
"""

from __future__ import annotations

import dataclasses

from repro.prober.capture import IncrementalJoin, R2Record, R2View, parse_r2
from repro.stream.aggregate import TableAggregate


@dataclasses.dataclass
class StreamFlow:
    """The live, compact join state of one probe qname.

    ``target`` is the address the probe was sent *to*; comparing it
    with the R2's source address at fold time is what detects
    transparent forwarders, whose answer arrives from an address that
    never received a probe.
    """

    qname: str
    r2: R2View | None = None
    q2_count: int = 0
    r1_count: int = 0
    last_activity: float = 0.0
    #: Probed destination of the *latest* Q1 (reuse rebinds it), so the
    #: pairing matches the batch capture's send-time target log.
    target: str | None = None


@dataclasses.dataclass
class StreamStats:
    """Observability counters for one assembler's lifetime."""

    q1_events: int = 0
    q2_events: int = 0
    r2_events: int = 0
    forward_events: int = 0
    flows_opened: int = 0
    flows_evicted: int = 0
    peak_live_flows: int = 0

    def merge(self, other: "StreamStats") -> None:
        self.q1_events += other.q1_events
        self.q2_events += other.q2_events
        self.r2_events += other.r2_events
        self.forward_events += other.forward_events
        self.flows_opened += other.flows_opened
        self.flows_evicted += other.flows_evicted
        # Shards run concurrently in simulated time, so the campaign's
        # peak is the sum of the shard peaks (worst case), not the max.
        self.peak_live_flows += other.peak_live_flows

    def summary(self) -> str:
        return (
            f"stream: {self.q1_events:,} Q1 / {self.q2_events:,} Q2-R1 / "
            f"{self.r2_events:,} R2 events; {self.flows_opened:,} flows "
            f"({self.flows_evicted:,} evicted early, peak live "
            f"{self.peak_live_flows:,})"
        )


class FlowAssembler:
    """Joins the four flows per qname online and evicts settled flows."""

    def __init__(
        self,
        aggregate: TableAggregate,
        response_window: float = 5.0,
        lateness: float | None = None,
        sweep_interval: float | None = None,
        join: IncrementalJoin | None = None,
    ) -> None:
        """``lateness`` is the extra slack past the response window a
        flow stays live after its last activity (default: one more
        response window — generous against fault-injected latency).
        ``sweep_interval`` paces the eviction scans (default: half the
        horizon, so a settled flow lives at most ~1.5 horizons).
        ``join``, when given, also receives every R2 view in delivery
        order, so a run that retains its captures gets the batch flow
        set without decoding any R2 a second time."""
        if response_window <= 0:
            raise ValueError("response_window must be positive")
        if lateness is None:
            lateness = response_window
        if lateness < 0:
            raise ValueError("lateness must be non-negative")
        self.aggregate = aggregate
        self.horizon = response_window + lateness
        self._sweep_interval = (
            sweep_interval if sweep_interval is not None else self.horizon / 2
        )
        if self._sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive")
        self.stats = StreamStats()
        self.join = join
        self._flows: dict[str, StreamFlow] = {}
        self._next_sweep = self._sweep_interval

    @property
    def live_flows(self) -> int:
        return len(self._flows)

    # -- event intake ----------------------------------------------------

    def on_q1(
        self, now: float, qname: str | None, dst_ip: str | None = None
    ) -> None:
        """A probe (or retransmission) left the prober for ``qname``.

        ``dst_ip`` records the probed target. The *latest* Q1 wins:
        a subdomain reused after its response window rebinds the live
        flow to the new target, exactly as the batch capture's
        send-time target log overwrites the qname's entry — so batch
        and stream pair the final view with the same target. (A
        retransmission rebinds the same value, harmlessly.) Folding
        compares it against the R2 source to spot off-path answers.
        """
        self.stats.q1_events += 1
        if qname is not None:
            flow = self._touch(qname, now)
            if dst_ip is not None:
                flow.target = dst_ip
        self._maybe_sweep(now)

    def on_forward(self, now: float, qname: str | None) -> None:
        """A transparent forwarder relayed the probe toward its upstream.

        The relay datagram carries the prober's source address, so on
        the wire it looks exactly like a Q1 — only the destination (a
        known upstream, never a probe target) tells it apart. It
        refreshes the flow's activity clock without opening a new flow
        binding or re-counting a probe transmission.
        """
        self.stats.forward_events += 1
        if qname is not None and qname in self._flows:
            self._flows[qname].last_activity = now
        self._maybe_sweep(now)

    def on_query_served(self, now: float, qname: str | None) -> None:
        """The auth server answered one query: one Q2 plus one R1."""
        self.stats.q2_events += 1
        flow = self._touch(qname if qname is not None else "", now)
        flow.q2_count += 1
        flow.r1_count += 1
        self._maybe_sweep(now)

    def on_r2(self, now: float, src_ip: str, payload: bytes) -> R2View:
        """A response reached the prober; parse and join it."""
        self.stats.r2_events += 1
        view = parse_r2(R2Record(now, src_ip, payload))
        if self.join is not None:
            self.join.add_view(view)
        if view.qname is None:
            self.aggregate.add_unjoinable(view)
        else:
            flow = self._touch(view.qname, now)
            flow.r2 = view  # last record wins, as in join_flows
        self._maybe_sweep(now)
        return view

    # -- eviction --------------------------------------------------------

    def _touch(self, qname: str, now: float) -> StreamFlow:
        flow = self._flows.get(qname)
        if flow is None:
            flow = self._flows[qname] = StreamFlow(qname)
            self.stats.flows_opened += 1
            if len(self._flows) > self.stats.peak_live_flows:
                self.stats.peak_live_flows = len(self._flows)
        flow.last_activity = now
        return flow

    def _maybe_sweep(self, now: float) -> None:
        if now >= self._next_sweep:
            self.sweep(now)

    def sweep(self, watermark: float) -> int:
        """Evict every flow settled before ``watermark - horizon``.

        A flow that has a probed target bound, saw the auth serve its
        query, but has no R2 yet is *still pending*: a transparent
        forwarder's answer travels an extra relay hop from an address
        the horizon heuristic knows nothing about, so evicting the flow
        would discard the target binding the off-path join needs.
        Those flows ride out the sweep and fold at :meth:`close` (or
        when their R2 finally lands and a later sweep retires them).
        """
        deadline = watermark - self.horizon
        expired = [
            qname
            for qname, flow in self._flows.items()
            if flow.last_activity <= deadline
            and not (
                flow.r2 is None
                and flow.target is not None
                and flow.q2_count > 0
            )
        ]
        for qname in expired:
            self._fold(self._flows.pop(qname))
        self.stats.flows_evicted += len(expired)
        self._next_sweep = watermark + self._sweep_interval
        return len(expired)

    def _fold(self, flow: StreamFlow) -> None:
        if flow.q2_count or flow.r1_count:
            self.aggregate.add_counts(flow.q2_count, flow.r1_count)
        if flow.r2 is not None:
            self.aggregate.add_view(flow.r2, target=flow.target)

    def close(self) -> TableAggregate:
        """Fold every remaining live flow; the aggregate is now final."""
        for flow in self._flows.values():
            self._fold(flow)
        self._flows.clear()
        return self.aggregate
