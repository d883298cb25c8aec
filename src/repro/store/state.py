"""`StateStore`: the one facade every subsystem persists through.

Two kinds of state, one SQLite file (see :mod:`repro.store.db` for the
schema and durability model):

* **Session journal** — one immutable :class:`SessionRecord` per
  resumable session, written by
  :class:`~repro.spfe.session.SessionRegistry` when a socket read folds
  a fold block (the read that completes the query always does).  A
  client whose server was SIGKILLed reconnects, sends RESUME, and the
  restarted process answers from the journal: the ACK names the chunk
  after the last journalled one, and the client re-sends the rest from
  its cache, with zero re-encryption.
* **Named databases** — server databases loadable by name, so ``repro
  serve --state-dir DIR --db-name NAME`` serves the same data across
  restarts without re-parsing input files.

Trust note: both belong to the database owner.  A journalled record
holds the public key, counters, the server's fold of the client's
ciphertexts and the raw ciphertexts of the fold block still incomplete.
The server saw all of these on the wire: the raw ciphertexts are bytes
the client sent, kept until their block folds.  The databases are the
server's own data.  No client secret (private key, obfuscator,
plaintext selection) is ever written, so the state directory may live
with ``repro serve``.  ``docs/protocol.md`` § Durability spells out the
guarantees and non-guarantees.

The store is thread-safe: one connection, every operation under one
internal lock (SQLite serialises writers anyway; the lock keeps our
read-modify-write sequences atomic and the connection usage
single-threaded).  All methods may be called from server worker
threads; none ever block on the network.
"""

from __future__ import annotations

import sqlite3
import struct
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.crypto.multiexp import multi_exponent
from repro.crypto.ntheory import bytes_for_bits
from repro.crypto.serialization import (
    decode_int,
    decode_int_seq,
    encode_int,
    encode_int_seq,
)
from repro.datastore.database import ServerDatabase
from repro.exceptions import StoreError
from repro.obs.registry import Counter, MetricsRegistry
from repro.store.db import open_store_db
from repro.store.record import SessionRecord, _ciphertext_width, resume_state_bytes

__all__ = [
    "StateStore",
    "SessionRecord",
    "STORE_METRIC_HELP",
    "DEFAULT_STORE_FILENAME",
    "resume_state_bytes",
]

#: the store file a ``--state-dir`` directory contains
DEFAULT_STORE_FILENAME = "repro-state.sqlite"

#: help text for every ``repro_store_*`` metric, shared by all emitters
#: so the registry sees one consistent definition per name
STORE_METRIC_HELP: Dict[str, str] = {
    "repro_store_journal_writes_total":
        "Session snapshots journalled to the state store.",
    "repro_store_journal_deletes_total":
        "Session journal entries deleted (evictions, discards, completions).",
    "repro_store_journal_hits_total":
        "Session journal lookups that found a snapshot (warm-restart resumes).",
    "repro_store_journal_misses_total":
        "Session journal lookups that found nothing (fresh or evicted ids).",
    "repro_store_db_loads_total":
        "Named server databases loaded from the store.",
    "repro_store_supervisor_restarts_total":
        "Server child processes restarted by the supervisor after a crash.",
    "repro_store_supervisor_giveups_total":
        "Supervisor runs that exhausted their restart budget.",
}

#: the ``repro_store_*`` counters a :class:`StateStore` emits; the
#: supervisor emits the rest
_EMITTED = (
    "repro_store_journal_writes_total",
    "repro_store_journal_deletes_total",
    "repro_store_journal_hits_total",
    "repro_store_journal_misses_total",
    "repro_store_db_loads_total",
)


def _int_blob(value: int) -> bytes:
    """A minimal-width big-endian blob for one non-negative int."""
    return encode_int(value, bytes_for_bits(max(1, value.bit_length())))


def _close_buckets(
    buckets: Tuple[int, ...], window: int, aggregate: int, nsquare: int
) -> int:
    """Fold the digit-plane buckets of a v4-v7 row into its aggregate.

    Slot ``p * (2^w - 1) + d - 1`` of a row written at digit width
    ``w`` holds the product of every ciphertext whose weight has digit
    ``d`` in plane ``p``, so the buckets stand for
    ``prod bucket^(d * 2^(w p))``, one multi-exponentiation of the
    non-unit buckets.
    """
    digits = (1 << window) - 1
    bases: List[int] = []
    exponents: List[int] = []
    for slot, bucket in enumerate(buckets):
        if bucket != 1:
            plane, digit = divmod(slot, digits)
            bases.append(bucket)
            exponents.append((digit + 1) << (plane * window))
    return multi_exponent(bases, exponents, nsquare, initial=aggregate)


class StateStore:
    """Durable home for the session journal and named databases.

    Args:
        path: SQLite file path (``":memory:"`` for tests), or a
            directory — :meth:`open` resolves the conventional
            ``repro-state.sqlite`` inside a directory.
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`;
            when given, every journal write/delete/hit/miss and
            database load is counted under its ``repro_store_*`` name
            in :data:`STORE_METRIC_HELP`.
    """

    def __init__(
        self, path: str, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = open_store_db(path)
        self.metrics = metrics
        self._counters: Dict[str, Counter] = {}
        if metrics is not None:
            for name in _EMITTED:
                self._counters[name] = metrics.counter(
                    name, STORE_METRIC_HELP[name]
                )

    @classmethod
    def open(
        cls, state_dir: str, metrics: Optional[MetricsRegistry] = None
    ) -> "StateStore":
        """Open the store inside ``state_dir`` (created if missing)."""
        import os

        os.makedirs(state_dir, exist_ok=True)
        return cls(os.path.join(state_dir, DEFAULT_STORE_FILENAME), metrics=metrics)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_conn(self) -> sqlite3.Connection:
        """The live connection; caller holds ``self._lock``."""
        if self._conn is None:
            raise StoreError("state store is closed")
        return self._conn

    def _count(self, name: str, amount: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is not None:
            counter.inc(amount)

    # -- session journal --------------------------------------------------

    def save_session(self, record: SessionRecord) -> None:
        """Journal one session record (upsert by session id).

        The server calls this when a socket read folded a fold block
        (``ServerSession.receive_bytes`` publishes at the end of each
        read): two commits for a 1000-row query, the last of them
        holding the RESULT before it leaves the process.  A process
        crash loses at most the rows received since the last block
        boundary, which the client re-sends from its cache.  The record
        goes into the session row whole, its pending ciphertexts (at
        most the rows of one read) in the row's ``pending`` blob: one
        statement, with nothing read first.
        """
        touched = record.touched_at if record.touched_at else time.time()
        pending = (
            encode_int_seq(record.pending, _ciphertext_width(record.key_bits))
            if record.pending
            else None
        )
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    conn.execute(
                        "INSERT INTO sessions (session_id, key_bits, chunk_size,"
                        " public_n, aggregate, received, chunks_received, done,"
                        " touched_at, pending)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                        " ON CONFLICT(session_id) DO UPDATE SET"
                        " aggregate=excluded.aggregate,"
                        " received=excluded.received,"
                        " chunks_received=excluded.chunks_received,"
                        " done=excluded.done,"
                        " touched_at=excluded.touched_at,"
                        " buckets=NULL,"
                        " pending=excluded.pending",
                        (
                            record.session_id,
                            record.key_bits,
                            record.chunk_size,
                            _int_blob(record.public_n),
                            _int_blob(record.aggregate),
                            record.received,
                            record.chunks_received,
                            1 if record.done else 0,
                            touched,
                            pending,
                        ),
                    )
        except sqlite3.Error as exc:
            raise StoreError("session journal write failed: %s" % exc) from exc
        self._count("repro_store_journal_writes_total")

    def load_session(self, session_id: bytes) -> Optional[SessionRecord]:
        """Fetch one journalled record; None when unknown/deleted.

        The pending ciphertexts are those of the rows
        ``received - len(pending)`` up to ``received``.  A row an older
        release journalled with digit-plane buckets (schema v4-v7) is
        returned with its buckets closed into its aggregate and nothing
        pending: the fold is linear, so the session resumes with the
        same product.
        """
        try:
            with self._lock:
                conn = self._require_conn()
                row = conn.execute(
                    "SELECT key_bits, chunk_size, public_n, aggregate,"
                    " received, chunks_received, done, touched_at, buckets,"
                    " plane_window, pending FROM sessions WHERE session_id = ?",
                    (session_id,),
                ).fetchone()
        except sqlite3.Error as exc:
            raise StoreError("session journal read failed: %s" % exc) from exc
        if row is None:
            self._count("repro_store_journal_misses_total")
            return None
        key_bits = int(row[0])
        public_n = decode_int(row[2])
        aggregate = decode_int(row[3])
        received = int(row[4])
        width = _ciphertext_width(key_bits)
        if row[8] is not None:
            aggregate = _close_buckets(
                self._legacy_buckets(session_id, row[8], int(row[9]), width),
                int(row[9]),
                aggregate,
                public_n * public_n,
            )
        pending: Tuple[int, ...] = ()
        if row[10] is not None:
            try:
                pending = decode_int_seq(row[10], width)
            except (ValueError, struct.error) as exc:
                raise StoreError(
                    "corrupt pending blob for session %s: %s"
                    % (session_id.hex(), exc)
                ) from exc
        if len(pending) > received:
            raise StoreError(
                "corrupt pending blob for session %s: %d ciphertexts"
                " pending but %d received"
                % (session_id.hex(), len(pending), received)
            )
        self._count("repro_store_journal_hits_total")
        return SessionRecord(
            session_id=session_id,
            key_bits=key_bits,
            chunk_size=int(row[1]),
            public_n=public_n,
            aggregate=aggregate,
            received=received,
            chunks_received=int(row[5]),
            done=bool(row[6]),
            touched_at=float(row[7]),
            pending=pending,
        )

    @staticmethod
    def _legacy_buckets(
        session_id: bytes, blob: bytes, window: int, width: int
    ) -> Tuple[int, ...]:
        """Decode and check the bucket blob of a v4-v7 row."""
        if window < 1:
            raise StoreError(
                "corrupt plane window for session %s: %d"
                % (session_id.hex(), window)
            )
        try:
            buckets = decode_int_seq(blob, width)
        except (ValueError, struct.error) as exc:
            raise StoreError(
                "corrupt bucket blob for session %s: %s"
                % (session_id.hex(), exc)
            ) from exc
        digits = (1 << window) - 1
        if len(buckets) % digits:
            raise StoreError(
                "corrupt bucket blob for session %s: %d buckets is not"
                " a whole number of %d-digit planes"
                % (session_id.hex(), len(buckets), digits)
            )
        return buckets

    def delete_session(self, session_id: bytes) -> None:
        """Drop a journal entry (eviction, discard, or completion)."""
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    cursor = conn.execute(
                        "DELETE FROM sessions WHERE session_id = ?", (session_id,)
                    )
        except sqlite3.Error as exc:
            raise StoreError("session journal delete failed: %s" % exc) from exc
        if cursor.rowcount:
            self._count("repro_store_journal_deletes_total")

    def trim_sessions(self, keep: int) -> None:
        """Delete all but the ``keep`` most recently touched journal rows.

        A registry deletes only the rows of sessions it holds, so the
        rows a previous process left are trimmed here, when a registry
        opens over the store.
        """
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    cursor = conn.execute(
                        "DELETE FROM sessions WHERE session_id NOT IN"
                        " (SELECT session_id FROM sessions"
                        " ORDER BY touched_at DESC LIMIT ?)",
                        (keep,),
                    )
        except sqlite3.Error as exc:
            raise StoreError("session journal trim failed: %s" % exc) from exc
        if cursor.rowcount:
            self._count("repro_store_journal_deletes_total", cursor.rowcount)

    def session_count(self) -> int:
        """Number of journalled sessions."""
        with self._lock:
            conn = self._require_conn()
            row = conn.execute("SELECT COUNT(*) FROM sessions").fetchone()
        return int(row[0])

    # -- named databases --------------------------------------------------

    def save_database(self, name: str, database: ServerDatabase) -> None:
        """Persist a server database under ``name`` (upsert)."""
        if not name:
            raise StoreError("database name must be non-empty")
        entry_width = bytes_for_bits(database.value_bits)
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO databases"
                        " (name, value_bits, length, entry_width, values_blob)"
                        " VALUES (?, ?, ?, ?, ?)",
                        (
                            name,
                            database.value_bits,
                            len(database),
                            entry_width,
                            encode_int_seq(database.values, entry_width),
                        ),
                    )
        except sqlite3.Error as exc:
            raise StoreError("database write failed: %s" % exc) from exc

    def load_database(self, name: str) -> ServerDatabase:
        """Load a named database; :class:`StoreError` when unknown."""
        try:
            with self._lock:
                conn = self._require_conn()
                row = conn.execute(
                    "SELECT value_bits, length, entry_width, values_blob"
                    " FROM databases WHERE name = ?",
                    (name,),
                ).fetchone()
        except sqlite3.Error as exc:
            raise StoreError("database read failed: %s" % exc) from exc
        if row is None:
            raise StoreError(
                "no database named %r in the store (try 'repro store ls')" % name
            )
        values = decode_int_seq(row[3], int(row[2]))
        if len(values) != int(row[1]):
            raise StoreError(
                "corrupt database %r: %d values, header says %d"
                % (name, len(values), int(row[1]))
            )
        self._count("repro_store_db_loads_total")
        return ServerDatabase(values, value_bits=int(row[0]))

    def list_databases(self) -> List[Tuple[str, int, int]]:
        """All stored databases as ``(name, length, value_bits)`` rows."""
        with self._lock:
            conn = self._require_conn()
            rows = conn.execute(
                "SELECT name, length, value_bits FROM databases ORDER BY name"
            ).fetchall()
        return [(str(r[0]), int(r[1]), int(r[2])) for r in rows]

    def __repr__(self) -> str:
        return "StateStore(path=%r)" % self.path
