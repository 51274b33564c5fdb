"""Loopback HTTP load: an open-loop Poisson schedule and a closed loop.

Both use at most two keep-alive connections, driven from one thread.
In the open loop every request has a scheduled send time; a request is timed
from that time, not from when it was actually sent, so a stall delays
and is charged to every request queued behind it.  How late the
generator sent each request is recorded as its lateness.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

#: Requests in flight at once: one per connection.
CONNECTIONS = 2
#: The open loop polls rather than sleeps this long before a send.
SPIN_S = 0.002
#: How long a one-at-a-time request may wait for its answer.
REPLY_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class HttpRequest:
    method: str
    path: str
    body: Optional[bytes] = None


@dataclass
class Sample:
    """One request's fate.  Times are ``time.perf_counter`` values."""

    query: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """From the scheduled (or, closed loop, actual) send time."""
        return self.done - self.due

    @property
    def round_trip(self) -> float:
        return self.done - self.sent

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def http_request(method: str, path: str, query: Dict[str, str],
                 body) -> HttpRequest:
    if query:
        path += "?" + urlencode(sorted(query.items()))
    data = None if body is None else json.dumps(body).encode("utf-8")
    return HttpRequest(method, path, data)


def poisson_schedule(rng: random.Random, rate: float, seconds: float,
                     weights: Sequence[float], scrape_every: float,
                     scrape_query: int,
                     elapsed: float = 0.0) -> List[Tuple[float, int]]:
    """(offset seconds, query index) pairs, sorted by offset.

    Arrivals are Poisson at ``rate``; each draws a query index by
    ``weights``.  ``scrape_query`` arrives every ``scrape_every``
    seconds on top, as a monitoring system's scrape; ``elapsed`` is
    the scheduled time before this schedule, so consecutive schedules
    keep one scrape period.
    """
    indexes = range(len(weights))
    schedule = []
    offset = rng.expovariate(rate)
    while offset < seconds:
        schedule.append((offset, rng.choices(indexes, weights)[0]))
        offset += rng.expovariate(rate)
    tick = (scrape_every / 2 - elapsed) % scrape_every
    while tick < seconds:
        schedule.append((tick, scrape_query))
        tick += scrape_every
    schedule.sort()
    return schedule


class Bodies:
    """Keeps one copy of each distinct response body."""

    def __init__(self) -> None:
        self._seen: Dict[bytes, bytes] = {}

    def keep(self, body: bytes) -> bytes:
        return self._seen.setdefault(body, body)


class _Connection:
    """One keep-alive connection, read when the selector says so."""

    def __init__(self, port: int, selector) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        selector.register(self.sock, selectors.EVENT_READ, self)
        self.buffer = bytearray()
        #: (query, due, sent) of the request in flight, if any.
        self.pending: Optional[Tuple[int, float, float]] = None

    def send(self, wire: bytes, query: int, due: float) -> None:
        self.pending = (query, due, time.perf_counter())
        self.sock.sendall(wire)

    def receive(self, bodies: Bodies) -> Optional[Sample]:
        """Take what arrived; a sample once the response is whole."""
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("the server closed a connection")
        self.buffer += chunk
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        lines = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        if len(self.buffer) < total:
            return None
        body = bytes(self.buffer[end + 4:total])
        del self.buffer[:total]
        query, due, sent = self.pending
        self.pending = None
        return Sample(query, due, sent, time.perf_counter(),
                      int(lines[0].split()[1]), bodies.keep(body))


def _wire(request: HttpRequest) -> bytes:
    head = f"{request.method} {request.path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    body = request.body or b""
    if request.body is not None:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n")
    return head.encode("latin-1") + b"\r\n" + body


class _Client:
    """Keep-alive connections driven from one thread.

    One thread means the generator never waits for its own interpreter
    lock, so its overhead and lateness stay small and steady.  The
    selector is ``select``-based for its microsecond timeouts.
    """

    def __init__(self, port: int, requests: Sequence[HttpRequest],
                 connections: int = CONNECTIONS) -> None:
        self.wires = [_wire(request) for request in requests]
        self.selector = selectors.SelectSelector()
        self.connections: List[_Connection] = []
        try:
            for _ in range(connections):
                self.connections.append(_Connection(port, self.selector))
        except BaseException:
            self.close()
            raise

    def idle(self) -> List[_Connection]:
        return [conn for conn in self.connections if conn.pending is None]

    def busy(self) -> bool:
        return any(conn.pending is not None for conn in self.connections)

    def wait(self, timeout: Optional[float],
             bodies: Bodies) -> List[Tuple[_Connection, Sample]]:
        done = []
        for key, _ in self.selector.select(timeout):
            sample = key.data.receive(bodies)
            if sample is not None:
                done.append((key.data, sample))
        return done

    def close(self) -> None:
        for conn in self.connections:
            conn.sock.close()
        self.selector.close()


def open_loop(port: int, requests: Sequence[HttpRequest],
              schedule: Sequence[Tuple[float, int]],
              bodies: Bodies) -> List[Sample]:
    """Send ``schedule`` over two connections; one sample per entry.

    A request that falls due while both connections are busy waits for
    the first to free up, and its latency still counts from its due
    time.  The generator polls instead of sleeping while a response is
    outstanding and for the last ``SPIN_S`` before a send, so neither
    the send nor the receipt waits for its own wake-up from sleep.
    Over fifteen slices at 250 req/s, polling cut the spread of the
    per-slice median latency from 0.17 to 0.05 of its median.
    """
    client = _Client(port, requests)
    samples: List[Sample] = []
    start = time.perf_counter() + 0.05
    index = 0
    try:
        while index < len(schedule) or client.busy():
            idle = client.idle()
            while idle and index < len(schedule) and \
                    start + schedule[index][0] <= time.perf_counter():
                offset, query = schedule[index]
                idle.pop().send(client.wires[query], query, start + offset)
                index += 1
            timeout = 0.0
            if idle and index < len(schedule) and not client.busy():
                timeout = max(0.0, start + schedule[index][0]
                              - time.perf_counter() - SPIN_S)
            samples.extend(sample for _, sample
                           in client.wait(timeout, bodies))
    finally:
        client.close()
    return samples


def closed_loop(port: int, requests: Sequence[HttpRequest],
                order: Sequence[int], seconds: float, bodies: Bodies,
                connections: int = CONNECTIONS,
                ) -> Tuple[List[Sample], float]:
    """Back-to-back requests on ``connections`` for ``seconds``.

    Returns the samples and the elapsed time; throughput is their
    ratio.  ``order`` is cycled through, shared by the connections.
    """
    client = _Client(port, requests, connections)
    samples: List[Sample] = []
    start = time.perf_counter()
    stop_at = start + seconds
    position = 0
    try:
        for conn in client.idle():
            query = order[position % len(order)]
            position += 1
            conn.send(client.wires[query], query, time.perf_counter())
        while client.busy():
            for conn, sample in client.wait(None, bodies):
                samples.append(sample)
                if sample.done < stop_at:
                    query = order[position % len(order)]
                    position += 1
                    conn.send(client.wires[query], query,
                              time.perf_counter())
    finally:
        client.close()
    return samples, max(sample.done for sample in samples) - start


def sequential(port: int, requests: Sequence[HttpRequest],
               bodies: Bodies) -> List[Sample]:
    """Each request once, in order, on one connection."""
    client = _Client(port, requests, 1)
    samples: List[Sample] = []
    try:
        for query, wire in enumerate(client.wires):
            client.connections[0].send(wire, query, time.perf_counter())
            deadline = time.perf_counter() + REPLY_TIMEOUT_S
            while client.busy():
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise TimeoutError("the server did not answer")
                samples.extend(sample for _, sample
                               in client.wait(left, bodies))
    finally:
        client.close()
    return samples


def get(port: int, path: str) -> Tuple[int, bytes]:
    """One request on a fresh connection: (status, body)."""
    sample, = sequential(port, [HttpRequest("GET", path)], Bodies())
    return sample.status, sample.body
