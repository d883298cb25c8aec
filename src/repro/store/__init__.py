"""Crash-safe persistence tier: the state that survives process death.

Two things ``repro serve`` must not lose to a ``kill -9``: the
half-streamed session aggregates (a client that already sent most of
its chunks should RESUME, not re-encrypt from scratch) and the server
database itself.  Both belong to the database owner; the client's §3.3
offline material (its obfuscators and pre-encrypted index bits) stays
in the client's process and is never written here.

Four modules:

* :mod:`repro.store.record` — :class:`~repro.store.record.SessionRecord`,
  one session's resume state as plain data, kept apart from SQLite so
  that a server without ``--state-dir`` never imports ``sqlite3``.
* :mod:`repro.store.db` — the SQLite layer: WAL-mode connections and a
  versioned schema with ordered migration machinery (in the style of
  ``swh.core.db``: a ``dbversion`` table records every applied step, and
  opening an old store upgrades it in place).
* :mod:`repro.store.state` — :class:`~repro.store.state.StateStore`,
  the single facade every subsystem persists through: session journal
  entries (ACK/RESUME across a server *restart*, not just a reconnect)
  and named server databases.
* :mod:`repro.store.supervisor` — a process supervisor that runs the
  server as a child and restarts it on crash under bounded exponential
  backoff, turning SIGKILL into a recoverable event.

No third-party dependencies: ``sqlite3`` is in the standard library.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.store.db import SCHEMA_VERSION, open_store_db, schema_version
    from repro.store.state import StateStore
    from repro.store.supervisor import ServerSupervisor, SupervisorPolicy

__all__ = [
    "SCHEMA_VERSION",
    "open_store_db",
    "schema_version",
    "StateStore",
    "ServerSupervisor",
    "SupervisorPolicy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.store.db": ("SCHEMA_VERSION", "open_store_db", "schema_version"),
    "repro.store.state": ("StateStore",),
    "repro.store.supervisor": ("ServerSupervisor", "SupervisorPolicy"),
})
