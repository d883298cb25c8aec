"""Deterministic fault injection for chaos-testing the wire protocol.

Networks corrupt, truncate, stall, fragment, and drop.  This module
reproduces those behaviours *exactly*: a :class:`FaultPlan` is a fixed
list of :class:`FaultEvent`\\ s pinned to absolute byte offsets of one
direction of a stream, generated from the repository's HMAC-DRBG
(:class:`~repro.crypto.rng.DeterministicRandom`), so a chaos run that
fails under seed 17 fails identically every time it is replayed.

:class:`FaultyTransport` wraps any :class:`~repro.net.transport.Transport`
and applies the plan to the *send* side: as the cumulative byte offset
sweeps past each event's position, the event fires.

Event kinds:

* ``CORRUPT`` — XOR one byte with a non-zero mask (the frame CRC must
  catch this before any ciphertext is touched);
* ``TRUNCATE`` — silently drop the remainder of the current write (the
  stream desynchronises; the decoder must fail loudly, never mis-parse);
* ``DELAY`` — stall the send briefly (drives receiver read timeouts);
* ``PARTIAL_WRITE`` — split the write into two inner sends (exercises
  frame reassembly across arbitrary read boundaries);
* ``DISCONNECT`` — deliver a prefix, then raise
  :class:`~repro.exceptions.TransportError` and kill the transport
  (drives reconnect + resume).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.crypto.rng import DeterministicRandom
from repro.exceptions import ParameterError, TransportError
from repro.net.transport import DEFAULT_RECV_BYTES, Transport

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultyTransport"]


class FaultKind:
    """Names for the injectable fault types."""

    CORRUPT = "corrupt"
    TRUNCATE = "truncate"
    DELAY = "delay"
    PARTIAL_WRITE = "partial-write"
    DISCONNECT = "disconnect"

    ALL = (CORRUPT, TRUNCATE, DELAY, PARTIAL_WRITE, DISCONNECT)


@dataclass(frozen=True)
class FaultEvent:
    """One fault, pinned to an absolute byte offset of the send stream.

    ``param`` is kind-specific: the XOR mask for ``CORRUPT`` (1..255),
    the stall in seconds for ``DELAY``, unused otherwise.
    """

    kind: str
    position: int
    param: float = 0.0

    def __post_init__(self) -> None:
        """Validate the event."""
        if self.kind not in FaultKind.ALL:
            raise ParameterError("unknown fault kind %r" % self.kind)
        if self.position < 0:
            raise ParameterError("fault position must be non-negative")
        if self.kind == FaultKind.CORRUPT and not 1 <= int(self.param) <= 255:
            raise ParameterError("corrupt mask must be in 1..255")


class FaultPlan:
    """An immutable, replayable schedule of fault events.

    Build one explicitly from events, or derive one from a seed with
    :meth:`generate` — the DRBG guarantees the same seed always yields
    the same plan, which is what makes every chaos run reproducible.
    """

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda event: event.position)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def generate(
        cls,
        seed: Union[bytes, str, int],
        stream_bytes: int,
        events: int = 3,
        kinds: Sequence[str] = FaultKind.ALL,
        max_delay_s: float = 0.01,
    ) -> "FaultPlan":
        """Derive a plan of ``events`` faults over a ``stream_bytes`` window.

        Positions, kinds, and parameters are all drawn from one
        :class:`~repro.crypto.rng.DeterministicRandom` stream, so the
        plan is a pure function of the arguments.
        """
        if stream_bytes < 1:
            raise ParameterError("stream_bytes must be positive")
        if not kinds:
            raise ParameterError("kinds must be non-empty")
        for kind in kinds:
            if kind not in FaultKind.ALL:
                raise ParameterError("unknown fault kind %r" % kind)
        rng = DeterministicRandom(b"fault-plan:" + _seed_bytes(seed))
        plan: List[FaultEvent] = []
        for _ in range(events):
            kind = kinds[rng.randbelow(len(kinds))]
            position = rng.randbelow(stream_bytes)
            if kind == FaultKind.CORRUPT:
                param: float = 1 + rng.randbelow(255)
            elif kind == FaultKind.DELAY:
                param = max_delay_s * (1 + rng.randbelow(1000)) / 1000.0
            else:
                param = 0.0
            plan.append(FaultEvent(kind, position, param))
        return cls(plan)

    def describe(self) -> str:
        """Human-readable one-line-per-event summary (for failure logs)."""
        return "\n".join(
            "%s@%d param=%g" % (event.kind, event.position, event.param)
            for event in self.events
        )


def _seed_bytes(seed: Union[bytes, str, int]) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    return str(int(seed)).encode("ascii")


class FaultyTransport(Transport):
    """A transport wrapper that executes a :class:`FaultPlan`.

    Faults apply to this endpoint's **send** stream, keyed by the
    cumulative number of bytes the caller has asked to send; wrap both
    endpoints (with independent plans) to fault both directions.
    ``sleep`` is injectable so tests can observe ``DELAY`` events
    without wall-clock stalls.
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        self._offset = 0
        self._next_event = 0
        self._dead = False
        #: events that have actually fired, for test assertions
        self.fired: List[FaultEvent] = []

    # -- helpers -----------------------------------------------------------

    def _pending_event(self, window_end: int) -> Optional[FaultEvent]:
        if self._next_event >= len(self.plan.events):
            return None
        event = self.plan.events[self._next_event]
        if event.position < window_end:
            return event
        return None

    def _consume(self, event: FaultEvent) -> None:
        self._next_event += 1
        self.fired.append(event)

    # -- Transport API -----------------------------------------------------

    def send(self, data: bytes) -> None:
        """Send ``data``, applying every plan event it sweeps over."""
        if self._dead:
            raise TransportError("transport killed by injected disconnect")
        remaining = memoryview(bytes(data))
        while True:
            window_end = self._offset + len(remaining)
            event = self._pending_event(window_end)
            if event is None:
                break
            split = event.position - self._offset
            if event.kind == FaultKind.CORRUPT:
                self._consume(event)
                mutable = bytearray(remaining)
                mutable[split] ^= int(event.param)
                remaining = memoryview(bytes(mutable))
            elif event.kind == FaultKind.TRUNCATE:
                self._consume(event)
                remaining = remaining[:split]
                # The dropped tail still advances the logical offset so
                # later events keep their absolute positions; events that
                # landed inside the dropped tail can never fire.
                while self._next_event < len(self.plan.events) and (
                    self.plan.events[self._next_event].position < window_end
                ):
                    self._next_event += 1
                self._flush(remaining)
                self._offset = window_end
                self.bytes_sent += len(data)
                return
            elif event.kind == FaultKind.DELAY:
                self._consume(event)
                self._sleep(event.param)
            elif event.kind == FaultKind.PARTIAL_WRITE:
                self._consume(event)
                if split > 0:
                    self._flush(remaining[:split])
                    self._offset += split
                    remaining = remaining[split:]
            else:  # DISCONNECT
                self._consume(event)
                self._flush(remaining[:split])
                self._offset += split
                self._dead = True
                self.inner.close()
                raise TransportError(
                    "injected disconnect at stream offset %d" % event.position
                )
        self._flush(remaining)
        self._offset += len(remaining)
        self.bytes_sent += len(data)

    def _flush(self, view: memoryview) -> None:
        if len(view):
            self.inner.send(bytes(view))

    def recv(self, max_bytes: int = DEFAULT_RECV_BYTES) -> bytes:
        """Receive from the wrapped transport (faults are send-side)."""
        if self._dead:
            raise TransportError("transport killed by injected disconnect")
        data = self.inner.recv(max_bytes)
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        """Close the wrapped transport."""
        self.inner.close()
