"""In-memory channels with byte accounting and virtual transfer timing.

A :class:`Pipe` is one direction of a connection: it moves
:class:`~repro.net.wire.Message` objects between two parties, counts every
byte, and — for modelled runs — computes when each message *arrives*
given a :class:`~repro.net.link.LinkModel` and the sender's virtual clock.

Arrival computation models a serializing link: a message starts
transmitting when both the sender has produced it and the link is free;
it occupies the link for its serialization time; it arrives one
propagation latency after transmission ends.  This is what makes the
paper's §3.2 pipeline parallelism meaningful: while batch *i* is on the
wire, the client can encrypt batch *i+1* and the server can multiply
batch *i-1*.

A :class:`Channel` bundles the two directions of a client/server
connection plus per-party transcripts for privacy audits.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.exceptions import ChannelError
from repro.net.link import LinkModel
from repro.net.wire import Message, MessageLog

__all__ = ["Pipe", "Channel"]


class Pipe:
    """One direction of a connection, with accounting.

    In modelled runs, :meth:`send` takes the sender's virtual time and
    returns the arrival time at the receiver.  In live runs callers pass
    ``sender_time=0.0`` and ignore the return value — byte counters still
    accumulate so communication can be costed after the fact.
    """

    def __init__(self, link: LinkModel, name: str = "pipe") -> None:
        self.link = link
        self.name = name
        self._queue: Deque[Tuple[Message, float]] = deque()
        self._link_free_at = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0

    def send(self, message: Message, sender_time: float = 0.0) -> float:
        """Queue a message; return its arrival time at the receiver."""
        self.bytes_sent += message.wire_bytes
        self.messages_sent += 1
        serial = message.wire_bytes * 8.0 / self.link.bandwidth_bps
        # The per-message overhead (marshalling + syscall) serializes with
        # the stream, so it occupies the link like transmission time does.
        start = max(sender_time, self._link_free_at)
        self._link_free_at = start + self.link.per_message_overhead_s + serial
        arrival = self._link_free_at + self.link.latency_s
        self._queue.append((message, arrival))
        return arrival

    def recv(self) -> Tuple[Message, float]:
        """Dequeue the next message and its arrival time (FIFO)."""
        if not self._queue:
            raise ChannelError("recv on empty pipe %r" % self.name)
        return self._queue.popleft()

    def pending(self) -> int:
        """Messages queued but not yet received."""
        return len(self._queue)

    def reset_clock(self) -> None:
        """Forget link occupancy (new protocol run on the same pipe)."""
        self._link_free_at = 0.0


class Channel:
    """A bidirectional client/server connection with transcripts.

    Attributes:
        uplink: client -> server pipe.
        downlink: server -> client pipe.
        server_view: transcript of everything the server received — the
            object privacy audits inspect for client-privacy violations.
        client_view: transcript of everything the client received.
    """

    def __init__(self, link: LinkModel, name: str = "channel") -> None:
        self.link = link
        self.name = name
        self.uplink = Pipe(link, name + ":up")
        self.downlink = Pipe(link, name + ":down")
        self.server_view = MessageLog()
        self.client_view = MessageLog()

    # -- client side -------------------------------------------------------

    def client_send(self, message: Message, sender_time: float = 0.0) -> float:
        """Send client -> server; returns the virtual arrival time."""
        return self.uplink.send(message, sender_time)

    def client_recv(self) -> Tuple[Message, float]:
        """Receive at the client (recorded in the client's transcript)."""
        message, arrival = self.downlink.recv()
        self.client_view.record(message)
        return message, arrival

    # -- server side -------------------------------------------------------

    def server_send(self, message: Message, sender_time: float = 0.0) -> float:
        """Send server -> client; returns the virtual arrival time."""
        return self.downlink.send(message, sender_time)

    def server_recv(self) -> Tuple[Message, float]:
        """Receive at the server (recorded in the server's transcript)."""
        message, arrival = self.uplink.recv()
        self.server_view.record(message)
        return message, arrival

    # -- accounting ----------------------------------------------------------

    @property
    def bytes_up(self) -> int:
        return self.uplink.bytes_sent

    @property
    def bytes_down(self) -> int:
        return self.downlink.bytes_sent

    def total_bytes(self) -> int:
        """All bytes moved in both directions."""
        return self.bytes_up + self.bytes_down

    def drain_check(self) -> None:
        """Assert the protocol consumed everything it was sent."""
        if self.uplink.pending() or self.downlink.pending():
            raise ChannelError(
                "protocol finished with undelivered messages on %r" % self.name
            )
