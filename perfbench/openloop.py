"""Open-loop JSONL client for the serving gateway.

One process, one thread, one TCP connection.  The send schedule is fixed
before the first byte goes out: event ``k`` is due at
``start + k / rate``, whether or not earlier events have been answered,
so a stalled gateway faces the queue an independent user population
would build.

* **Latency** of an event runs from its *due* time to the receipt of its
  ack.  The gateway answers a connection's data lines in send order, so
  the ``k``-th reply line is the ``k``-th event's ack; it is stamped
  with the arrival time of the socket read that completed it.
* **Lateness** of an event is how far past its due time the sender loop
  released it.  It measures the generator, not the system: a line
  released on time but held in the socket buffer by TCP backpressure is
  on time here and late in its latency.
* **Backlog** (released minus answered) is sampled every 10 ms while the
  schedule runs.
* Events still unanswered at the deadline (the last due time plus
  ``grace_s``) are *unanswered*; the caller counts them as failed.

The run ends with ``{"kind": "drain"}``; the gateway answers it with its
final snapshot after every owed ack, which :attr:`RungTrace.drained`
holds.
"""

from __future__ import annotations

import json
import select
import socket
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

__all__ = ["RungTrace", "run_open_loop"]

_BACKLOG_PERIOD = 0.010
_DRAIN_LINE = b'{"kind": "drain"}\n'


@dataclass
class RungTrace:
    """What one open-loop run observed, raw.

    Attributes:
        rate: the schedule's events per second.
        due: per-event due time (``perf_counter`` seconds).
        lateness: per-event release time minus due time (seconds).
        deadline: when unanswered events stopped being waited for.
        acks: reply lines received by the deadline, in send order.
        ack_times: receipt time of each line in ``acks``.
        backlog: ``(time, released - answered)`` samples.
        late_acks: reply lines that arrived after the deadline (their
            events count as unanswered; they are still checked).
        drained: the drain reply (final gateway snapshot), or None.
    """

    rate: float
    due: array
    lateness: array
    deadline: float
    acks: List[bytes] = field(default_factory=list)
    ack_times: List[float] = field(default_factory=list)
    backlog: List[tuple] = field(default_factory=list)
    late_acks: List[bytes] = field(default_factory=list)
    drained: Optional[dict] = None


def run_open_loop(
    host: str,
    port: int,
    lines: Sequence[bytes],
    rate: float,
    grace_s: float,
    drain_timeout_s: float,
    before_drain: Optional[Callable[[], None]] = None,
) -> RungTrace:
    """Send ``lines`` at ``rate`` per second, then drain.

    ``before_drain`` runs once the acks are in (or the deadline passed)
    and before the drain record goes out — the moment to read the
    server's live state.

    Raises:
        OSError: when the gateway refuses or drops the connection.
    """
    sock = socket.create_connection((host, port), timeout=5.0)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        trace, out, pending = _drive(sock, lines, rate, grace_s)
        if before_drain is not None:
            before_drain()
        _drain(sock, trace, out, pending, drain_timeout_s)
        return trace
    finally:
        sock.close()


def _drive(sock, lines: Sequence[bytes], rate: float, grace_s: float):
    """The schedule: ``(trace, unsent bytes, trailing partial line)``."""
    clock = time.perf_counter
    n = len(lines)
    start = clock() + 0.002
    period = 1.0 / rate
    due = array("d", (start + k * period for k in range(n)))
    lateness = array("d", bytes(8 * n))
    trace = RungTrace(rate=rate, due=due, lateness=lateness, deadline=due[-1] + grace_s)
    out = bytearray()
    chunks: List[tuple] = []
    released = answered = 0
    next_sample = start
    rlist = [sock]
    while answered < n:
        now = clock()
        if now >= trace.deadline:
            break
        while released < n and due[released] <= now:
            out += lines[released]
            lateness[released] = now - due[released]
            released += 1
        if out:
            try:
                sent = sock.send(out)
            except BlockingIOError:
                sent = 0
            del out[:sent]
        if now >= next_sample and released < n:
            trace.backlog.append((now, released - answered))
            next_sample = now + _BACKLOG_PERIOD
        if released < n:
            timeout = max(0.0, min(due[released], next_sample) - clock())
        else:
            timeout = min(0.05, max(0.0, trace.deadline - clock()))
        readable, _w, _x = select.select(rlist, [sock] if out else [], [], timeout)
        if readable:
            data = sock.recv(1 << 20)
            if not data:
                raise ConnectionError("gateway closed the ingest connection")
            chunks.append((clock(), data))
            answered += data.count(b"\n")
    pending = b""
    for stamp, data in chunks:
        pieces = (pending + data).split(b"\n")
        pending = pieces.pop()
        trace.acks.extend(pieces)
        trace.ack_times.extend([stamp] * len(pieces))
    return trace, out, pending


def _drain(
    sock, trace: RungTrace, out: bytearray, buffer: bytes, timeout_s: float
) -> None:
    """Flush unsent bytes, send the drain record, read to its reply.

    Lines that arrive now answer events after their deadline
    (``late_acks``) until the snapshot line closes the run.
    """
    sock.setblocking(True)
    sock.settimeout(timeout_s)
    if out:
        sock.sendall(bytes(out))
    sock.sendall(_DRAIN_LINE)
    end = time.perf_counter() + timeout_s
    while time.perf_counter() < end:
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            if line.startswith(b'{"kind": "snapshot"'):
                trace.drained = json.loads(line)
                return
            trace.late_acks.append(line)
        try:
            data = sock.recv(1 << 20)
        except socket.timeout:
            return
        if not data:
            return
        buffer += data
