"""Single-threaded open-loop UDP load generator.

Query ``i`` of a step is due at ``start + i / rate`` whatever the
daemon does, so a stall delays every later query and shows in their
latency: each latency is measured from the due time, not from the
moment the generator got round to sending. How late the generator
itself ran is reported next to it (``lag``), so a slow generator is
told apart from a slow daemon.
"""

from __future__ import annotations

import dataclasses
import select
import socket
import time

from dnswire import check_reply

#: Receive buffer asked for on the generator socket; the kernel caps it
#: at ``net.core.rmem_max``. Drops past it are read from /proc/net/udp.
GENERATOR_RCVBUF = 4 << 20


@dataclasses.dataclass(frozen=True)
class Query:
    """One rendered query and what its reply must say."""

    packet: bytearray  # message ID 0; patched per send
    question: bytes
    rcode: int


@dataclasses.dataclass
class StepResult:
    """Outcome of one fixed-rate step."""

    rate: float
    attempted: int
    latencies_ms: list[float]  # answered correctly, in due order
    failures: dict[str, int]
    lag_ms: list[float]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_step(address: tuple[str, int], queries: list[Query], rate: float,
             deadline_s: float, on_socket=None) -> StepResult:
    """Offer ``queries`` to ``address`` at ``rate`` per second.

    A query fails when no correct reply arrives within ``deadline_s``
    of its due time. The step ends when every query is answered or its
    deadline has passed. ``on_socket(sock)`` runs after the step, before
    the socket closes (the caller reads the socket's kernel drops).
    """
    count = len(queries)
    if count > 0x10000:
        raise ValueError("a step holds at most 65536 queries (16-bit IDs)")
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, GENERATOR_RCVBUF)
        sock.bind(("127.0.0.1", 0))
        sock.setblocking(False)
        interval = 1.0 / rate
        due = [0.0] * count
        done = [False] * count
        latencies = [0.0] * count
        lag = []
        failures: dict[str, int] = {}
        answered = 0
        start = time.monotonic() + 0.01
        next_index = 0
        last_deadline = start + (count - 1) * interval + deadline_s
        recv = sock.recv
        send = sock.sendto
        while answered < count:
            now = time.monotonic()
            while next_index < count and start + next_index * interval <= now:
                query = queries[next_index]
                packet = query.packet
                packet[0] = next_index >> 8 & 0xFF
                packet[1] = next_index & 0xFF
                due_at = start + next_index * interval
                due[next_index] = due_at
                try:
                    send(packet, address)
                except (BlockingIOError, OSError):
                    failures["send-error"] = failures.get("send-error", 0) + 1
                    done[next_index] = True
                    answered += 1
                lag.append((now - due_at) * 1000.0)
                next_index += 1
            while True:
                try:
                    data = recv(4096)
                except BlockingIOError:
                    break
                arrived = time.monotonic()
                if len(data) < 2:
                    continue
                index = data[0] << 8 | data[1]
                if index >= next_index or done[index]:
                    continue  # the query it claims is settled already
                query = queries[index]
                reason = check_reply(data, query.question, query.rcode)
                done[index] = True
                answered += 1
                if reason is None:
                    latency = arrived - due[index]
                    if latency <= deadline_s:
                        latencies[index] = latency * 1000.0
                        continue
                    reason = "timeout"
                failures[reason] = failures.get(reason, 0) + 1
            now = time.monotonic()
            if next_index >= count:
                if now >= last_deadline:
                    break
                wait = last_deadline - now
            else:
                wait = start + next_index * interval - now
            if wait > 0:
                select.select([sock], [], [], min(wait, 0.05))
        unanswered = count - answered
        if unanswered:
            failures["timeout"] = failures.get("timeout", 0) + unanswered
        ok = [latencies[i] for i in range(count)
              if done[i] and latencies[i] > 0.0]
        if on_socket is not None:
            on_socket(sock)
        return StepResult(rate=rate, attempted=count, latencies_ms=ok,
                          failures=failures, lag_ms=lag)
    finally:
        sock.close()


