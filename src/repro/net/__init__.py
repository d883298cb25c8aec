"""Network substrate: link models, channels, framing, transports, faults.

Replaces the paper's physical testbeds (cluster switch, 56 Kbps modem)
with deterministic models — see DESIGN.md §3, substitution 1 and 4 —
and, for the deployment shape, supplies real byte transports with
deadlines and bounded retry (:mod:`repro.net.transport`) plus a
seed-replayable fault injector for chaos testing
(:mod:`repro.net.faults`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.channel import Channel, Pipe
    from repro.net.faults import FaultEvent, FaultKind, FaultPlan, FaultyTransport
    from repro.net.link import LinkModel, links
    from repro.net.transport import (
        MemoryTransport,
        RetryPolicy,
        SocketTransport,
        Transport,
        memory_pair,
    )
    from repro.net.wire import Message, MessageLog, vector_wire_bytes
    from repro.net.server import ServerAccounting, ServerStats, SpfeServer

__all__ = [
    "Channel",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultyTransport",
    "LinkModel",
    "MemoryTransport",
    "Message",
    "MessageLog",
    "Pipe",
    "RetryPolicy",
    "ServerAccounting",
    "ServerStats",
    "SocketTransport",
    "SpfeServer",
    "Transport",
    "links",
    "memory_pair",
    "vector_wire_bytes",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.channel": ("Channel", "Pipe"),
    "repro.net.faults": ("FaultEvent", "FaultKind", "FaultPlan", "FaultyTransport"),
    "repro.net.link": ("LinkModel", "links"),
    "repro.net.transport": (
        "MemoryTransport",
        "RetryPolicy",
        "SocketTransport",
        "Transport",
        "memory_pair",
    ),
    "repro.net.wire": ("Message", "MessageLog", "vector_wire_bytes"),
    "repro.net.server": ("ServerAccounting", "ServerStats", "SpfeServer"),
})
