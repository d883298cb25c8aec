"""Byte transports with deadlines and bounded retry.

The session layer (:mod:`repro.spfe.session`) is a pair of byte-stream
state machines; this module supplies the bytes.  A :class:`Transport` is
the minimal contract the protocol needs — ``send``, ``recv``, ``close``,
byte counters — with every failure mapped onto the typed hierarchy in
:mod:`repro.exceptions`:

* :class:`~repro.exceptions.TransportError` — the connection is gone
  (refused, reset, injected disconnect);
* :class:`~repro.exceptions.TransportTimeout` — the peer is silent past
  a configured deadline (no operation ever blocks forever);
* :class:`~repro.exceptions.RetryExhausted` — a bounded retry policy
  gave up, with the last failure chained as ``__cause__``.

Two implementations are provided: :class:`SocketTransport` over a real
socket (the deployment shape) and :class:`MemoryTransport` pairs for
deterministic single-process tests.  :class:`RetryPolicy` captures the
reconnect discipline — bounded attempts, exponential backoff, seeded
jitter — and :func:`repro.spfe.session.run_resilient` applies it to a
whole query.

Why retries matter here: the dominant cost of the protocol is client-side
Paillier encryption of the index vector (paper §3), so a dropped
connection that forces a full re-run is catastrophically expensive.  The
resumable sessions in :mod:`repro.spfe.session` use these transports to
reconnect and continue from the last acknowledged chunk instead.
"""

from __future__ import annotations

import select
import socket
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional, Tuple

from repro.crypto.rng import RandomSource
from repro.exceptions import TransportError, TransportTimeout

__all__ = [
    "Transport",
    "SocketTransport",
    "MemoryTransport",
    "memory_pair",
    "RetryPolicy",
    "DEFAULT_RECV_BYTES",
]

DEFAULT_RECV_BYTES = 65536


class Transport:
    """Abstract byte stream with accounting.

    Contract: :meth:`send` delivers all of ``data`` or raises a
    :class:`~repro.exceptions.TransportError`; :meth:`recv` returns at
    least one byte, ``b""`` on clean end-of-stream, or raises
    :class:`~repro.exceptions.TransportTimeout` when the configured
    deadline passes with no data.  Counters accumulate so callers can
    audit real wire traffic against the performance model.
    """

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, data: bytes) -> None:
        """Deliver all of ``data`` to the peer or raise ``TransportError``."""
        raise NotImplementedError

    def recv(self, max_bytes: int = DEFAULT_RECV_BYTES) -> bytes:
        """Return 1..max_bytes bytes, or ``b""`` on end-of-stream."""
        raise NotImplementedError

    def recv_ready(self) -> bool:
        """True when :meth:`recv` would return without blocking.

        Lets a streaming sender notice an early reply (an ERROR or BUSY
        frame from a server that rejected the session) before pushing
        more data into a dead connection.  Transports that cannot tell
        may return ``False``; callers treat this as best-effort.
        """
        return False

    def close(self) -> None:
        """Release the underlying resources (idempotent)."""
        raise NotImplementedError

    def __enter__(self) -> "Transport":
        """Context-manager entry: the transport itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the transport."""
        self.close()


class SocketTransport(Transport):
    """A :class:`Transport` over a connected socket.

    ``read_timeout`` bounds every :meth:`recv` (and blocking ``send``):
    a silent peer raises :class:`~repro.exceptions.TransportTimeout`
    instead of hanging the caller forever — the failure mode the
    original TCP example had.

    A TCP socket gets ``TCP_NODELAY``: every :meth:`send` is a whole
    frame, and the server answers only at ``RESULT``, so under Nagle's
    algorithm each small chunk frame would wait for a delayed ACK of
    the one before it.
    """

    def __init__(
        self, sock: socket.socket, read_timeout: Optional[float] = None
    ) -> None:
        super().__init__()
        self._sock = sock
        self._closed = False
        self.read_timeout = read_timeout
        sock.settimeout(read_timeout)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
    ) -> "SocketTransport":
        """Open a TCP connection; failures raise typed transport errors."""
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
        except socket.timeout as exc:
            raise TransportTimeout(
                "connect to %s:%d timed out after %ss" % (host, port, connect_timeout)
            ) from exc
        except OSError as exc:
            raise TransportError("connect to %s:%d failed: %s" % (host, port, exc)) from exc
        return cls(sock, read_timeout=read_timeout)

    def set_read_timeout(self, read_timeout: Optional[float]) -> None:
        """Re-arm the per-read deadline (used by per-connection budgets).

        A server that grants each connection a total wall-clock budget
        shrinks the read timeout as the budget drains, so the *sum* of
        reads is bounded, not just each one.
        """
        if self._closed:
            raise TransportError("set_read_timeout on closed transport")
        self.read_timeout = read_timeout
        self._sock.settimeout(read_timeout)

    def send(self, data: bytes) -> None:
        """``sendall`` with typed failures."""
        if self._closed:
            raise TransportError("send on closed transport")
        try:
            self._sock.sendall(data)
        except socket.timeout as exc:
            raise TransportTimeout("send timed out") from exc
        except OSError as exc:
            raise TransportError("send failed: %s" % exc) from exc
        self.bytes_sent += len(data)

    def recv_ready(self) -> bool:
        """``select`` poll: data (or EOF/reset) already waiting?"""
        if self._closed:
            return False
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
        except (OSError, ValueError):
            return False
        return bool(readable)

    def recv(self, max_bytes: int = DEFAULT_RECV_BYTES) -> bytes:
        """``recv`` with typed failures; ``b""`` means the peer closed."""
        if self._closed:
            raise TransportError("recv on closed transport")
        try:
            data = self._sock.recv(max_bytes)
        except socket.timeout as exc:
            raise TransportTimeout(
                "no data within %ss" % self.read_timeout
            ) from exc
        except OSError as exc:
            raise TransportError("recv failed: %s" % exc) from exc
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        """Shut down and close the socket (idempotent; errors are ignored).

        The ``shutdown`` is what wakes a thread blocked in :meth:`recv`
        on this socket: on Linux a bare ``close`` from another thread
        leaves that reader asleep until its read deadline, so a server
        force-closing stragglers at its drain deadline would wait out
        every one of them.
        """
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never connected, or the peer already reset
            try:
                self._sock.close()
            except OSError:
                pass


class MemoryTransport(Transport):
    """One endpoint of an in-memory duplex pair (see :func:`memory_pair`).

    Deterministic single-thread semantics: :meth:`recv` on an empty
    queue raises :class:`~repro.exceptions.TransportTimeout` when the
    peer is open (there is nobody else to produce data) and returns
    ``b""`` once the peer has closed.
    """

    def __init__(self) -> None:
        super().__init__()
        self._inbox: Deque[bytes] = deque()
        self._peer: Optional["MemoryTransport"] = None
        self._closed = False

    def send(self, data: bytes) -> None:
        """Append to the peer's inbox."""
        if self._closed:
            raise TransportError("send on closed transport")
        assert self._peer is not None
        if self._peer._closed:
            raise TransportError("peer transport is closed")
        self._peer._inbox.append(bytes(data))
        self.bytes_sent += len(data)

    def recv_ready(self) -> bool:
        """Queued bytes (or a closed peer, i.e. instant EOF) waiting?"""
        if self._closed:
            return False
        return bool(self._inbox) or (
            self._peer is not None and self._peer._closed
        )

    def recv(self, max_bytes: int = DEFAULT_RECV_BYTES) -> bytes:
        """Pop up to ``max_bytes`` from the inbox."""
        if self._closed:
            raise TransportError("recv on closed transport")
        if not self._inbox:
            assert self._peer is not None
            if self._peer._closed:
                return b""
            raise TransportTimeout("no data queued on in-memory transport")
        head = self._inbox[0]
        if len(head) <= max_bytes:
            self._inbox.popleft()
            chunk = head
        else:
            chunk = head[:max_bytes]
            self._inbox[0] = head[max_bytes:]
        self.bytes_received += len(chunk)
        return chunk

    def pending(self) -> int:
        """Bytes queued for this endpoint but not yet received."""
        return sum(len(part) for part in self._inbox)

    def close(self) -> None:
        """Mark this endpoint closed (the peer then reads EOF)."""
        self._closed = True


def memory_pair() -> Tuple[MemoryTransport, MemoryTransport]:
    """Create a connected pair of in-memory transports."""
    a, b = MemoryTransport(), MemoryTransport()
    a._peer, b._peer = b, a
    return a, b


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``max_attempts`` counts every try including the first; the delay
    before retry ``k`` (1-based) is ``base_delay_s * multiplier**(k-1)``
    capped at ``max_delay_s``, then stretched by a uniformly random
    factor in ``[1 - jitter, 1 + jitter]`` so a fleet of reconnecting
    clients does not stampede in lockstep.  Jitter randomness comes from
    a :class:`~repro.crypto.rng.RandomSource`, so seeded runs replay the
    exact same schedule.

    A second, slower schedule handles **load shedding**: when the server
    answers BUSY (:class:`~repro.exceptions.ServerBusy`) the connection
    is healthy — the server is saturated — so re-entering on the crash
    schedule just re-joins the stampede.  :meth:`busy_delay_s` backs off
    from ``busy_base_delay_s`` (deliberately larger) and never sleeps
    less than the server's own ``retry_after_ms`` hint.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    busy_base_delay_s: float = 0.25
    busy_max_delay_s: float = 10.0
    busy_multiplier: float = 2.0

    def __post_init__(self) -> None:
        """Validate the policy parameters."""
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.busy_base_delay_s < 0 or self.busy_max_delay_s < 0:
            raise ValueError("busy delays must be non-negative")
        if self.busy_multiplier < 1.0:
            raise ValueError("busy_multiplier must be >= 1")

    def _jittered(self, capped: float, rng: RandomSource) -> float:
        if self.jitter == 0.0 or capped == 0.0:
            return capped
        # Uniform factor in [1 - jitter, 1 + jitter], 2^-20 resolution.
        unit = rng.randbits(20) / float(1 << 20)
        return capped * (1.0 - self.jitter + 2.0 * self.jitter * unit)

    def delay_s(self, retry_index: int, rng: RandomSource) -> float:
        """Backoff before the ``retry_index``-th retry (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        raw = self.base_delay_s * self.multiplier ** (retry_index - 1)
        return self._jittered(min(raw, self.max_delay_s), rng)

    def busy_delay_s(
        self, retry_index: int, rng: RandomSource, hint_ms: int = 0
    ) -> float:
        """Backoff before retrying a BUSY-shed attempt (1-based).

        ``hint_ms`` is the server's retry hint from the BUSY frame; the
        returned delay is floored at it (jitter can stretch above but
        never dip below what the server asked for).
        """
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        raw = self.busy_base_delay_s * self.busy_multiplier ** (retry_index - 1)
        delay = self._jittered(min(raw, self.busy_max_delay_s), rng)
        return max(delay, hint_ms / 1000.0)

    def delays(self, rng: RandomSource) -> Iterator[float]:
        """The full backoff schedule: one delay per allowed retry."""
        for retry_index in range(1, self.max_attempts):
            yield self.delay_s(retry_index, rng)


#: help text for the retry metrics that
#: :func:`repro.spfe.session.run_resilient` emits
RETRY_METRIC_HELP = {
    "repro_retry_attempts_total": "Operation attempts made under a retry policy.",
    "repro_retry_giveups_total": "Retry policies exhausted (RetryExhausted raised).",
    "repro_retry_backoff_seconds": "Backoff delay slept before each retry.",
    "repro_retry_busy_total": "Attempts shed by the server with BUSY and retried.",
}
