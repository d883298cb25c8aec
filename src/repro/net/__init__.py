"""Network substrate: link models, channels, framing, transports, faults.

Replaces the paper's physical testbeds (cluster switch, 56 Kbps modem)
with deterministic models — see DESIGN.md §3, substitution 1 and 4 —
and, for the deployment shape, supplies real byte transports with
deadlines and bounded retry (:mod:`repro.net.transport`) plus a
seed-replayable fault injector for chaos testing
(:mod:`repro.net.faults`).
"""

from repro.net.channel import Channel, Pipe
from repro.net.faults import FaultEvent, FaultKind, FaultPlan, FaultyTransport
from repro.net.link import LinkModel, links
from repro.net.transport import (
    MemoryTransport,
    RetryPolicy,
    SocketTransport,
    Transport,
    call_with_retry,
    connect_with_retry,
    memory_pair,
)
from repro.net.wire import Message, MessageLog, vector_wire_bytes

# Imported last: the server runtime sits above the session layer, which
# itself imports the submodules above.
from repro.net.server import ServerAccounting, ServerStats, SpfeServer  # noqa: E402

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
    "call_with_retry",
    "connect_with_retry",
    "links",
    "memory_pair",
    "vector_wire_bytes",
]
