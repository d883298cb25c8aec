"""`StateStore`: the one facade every subsystem persists through.

Four kinds of state, one SQLite file (see :mod:`repro.store.db` for the
schema and durability model):

* **Session journal** — frozen resumable-session snapshots, written by
  :class:`~repro.spfe.session.SessionRegistry` on every save (once per
  socket read that made progress).  A client
  whose server was SIGKILLed reconnects, sends RESUME, and the restarted
  process answers from the journal: same ACK semantics, zero
  re-encryption of already-acknowledged chunks.
* **Fixed-base tables** — the windowed precomputation of
  :class:`~repro.crypto.multiexp.FixedBaseTable`, keyed by key
  fingerprint, so a warm start skips the table build entirely.
* **Obfuscator pools** — leftover precomputed encryptions of zero
  (``r^n mod n^2`` values) from a
  :class:`~repro.crypto.paillier.RandomnessPool`; the paper's §3.3
  offline phase, made durable.
* **Named databases** — server databases loadable by name, so ``repro
  serve --state-dir DIR --db-name NAME`` serves the same data across
  restarts without re-parsing input files.

Trust note: the store holds material that is *secret relative to the
protocol's privacy argument* (an obfuscator together with its ciphertext
reveals the plaintext).  The state directory therefore belongs to the
key owner alone — the same trust domain as the process memory it
replaces, now on disk.  ``docs/protocol.md`` § Durability spells out the
guarantees and non-guarantees.

The store is thread-safe: one connection, every operation under one
internal lock (SQLite serialises writers anyway; the lock keeps our
read-modify-write sequences atomic and the connection usage
single-threaded).  All methods may be called from server worker
threads; none ever block on the network.
"""

from __future__ import annotations

import hashlib
import sqlite3
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.multiexp import PLANE_DIGITS, FixedBaseTable
from repro.crypto.ntheory import bytes_for_bits
from repro.crypto.paillier import PaillierPublicKey, RandomnessPool
from repro.crypto.rng import RandomSource
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

__all__ = [
    "StateStore",
    "SessionRecord",
    "key_fingerprint",
    "STORE_METRIC_HELP",
    "DEFAULT_STORE_FILENAME",
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
    "repro_store_table_hits_total":
        "Fixed-base table loads served from the store (precomputation skipped).",
    "repro_store_table_misses_total":
        "Fixed-base table loads that found nothing (cold build required).",
    "repro_store_pool_hits_total":
        "Obfuscator-pool loads that restored at least one pooled encryption.",
    "repro_store_pool_misses_total":
        "Obfuscator-pool loads that found nothing for the key fingerprint.",
    "repro_store_pool_obfuscators_restored_total":
        "Individual precomputed obfuscators restored from the store.",
    "repro_store_db_loads_total":
        "Named server databases loaded from the store.",
    "repro_store_calibration_writes_total":
        "Calibration profiles persisted by `repro calibrate`.",
    "repro_store_calibration_hits_total":
        "Calibration profile loads that found a persisted profile.",
    "repro_store_calibration_misses_total":
        "Calibration profile loads that found nothing (heuristic routing).",
    "repro_store_supervisor_restarts_total":
        "Server child processes restarted by the supervisor after a crash.",
    "repro_store_supervisor_giveups_total":
        "Supervisor runs that exhausted their restart budget.",
}


def key_fingerprint(public_n: int) -> str:
    """A stable fingerprint for a public key (hex SHA-256 of ``n``).

    Keys the precomputation caches: two processes holding the same
    modulus agree on the fingerprint, and nothing about ``n`` beyond
    its identity is recoverable from it.
    """
    width = bytes_for_bits(max(1, public_n.bit_length()))
    return hashlib.sha256(encode_int(public_n, width)).hexdigest()


def _int_blob(value: int) -> bytes:
    """A minimal-width big-endian blob for one non-negative int."""
    return encode_int(value, bytes_for_bits(max(1, value.bit_length())))


def _bucket_width(key_bits: int) -> int:
    """Bytes per journalled bucket: one ciphertext (mod ``n^2``)."""
    return bytes_for_bits(2 * key_bits)


@dataclass(frozen=True)
class SessionRecord:
    """One journalled session snapshot, as plain data.

    The session layer converts to/from its private resume-state type;
    the store neither imports nor understands protocol objects.
    """

    session_id: bytes
    key_bits: int
    chunk_size: int
    public_n: int
    aggregate: int
    received: int
    chunks_received: int
    done: bool
    touched_at: float = 0.0
    #: digit-plane buckets of an in-progress session (see
    #: :func:`~repro.crypto.multiexp.plane_insert`); None once done,
    #: and for rows journalled before schema v4
    buckets: Optional[Tuple[int, ...]] = None


class StateStore:
    """Durable home for sessions, precomputation, and databases.

    Args:
        path: SQLite file path (``":memory:"`` for tests), or a
            directory — :meth:`open` resolves the conventional
            ``repro-state.sqlite`` inside a directory.
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`;
            when given, every journal write/hit/miss and cache
            hit/miss is counted under the ``repro_store_*`` names in
            :data:`STORE_METRIC_HELP`.
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
            for name, help_text in STORE_METRIC_HELP.items():
                if name.startswith("repro_store_supervisor"):
                    continue  # the supervisor registers its own
                self._counters[name] = metrics.counter(name, help_text)

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
        """Journal one frozen session snapshot (upsert by session id).

        Called once per socket read that registered a session or
        folded at least one chunk (``ServerSession.receive_bytes``
        publishes at the end of each read); the WAL commit makes the
        snapshot process-crash durable before the server's reply leaves
        the process (RESULT in particular is journalled before it is
        sent), and a crash loses at most one read of chunks.
        """
        touched = record.touched_at if record.touched_at else time.time()
        buckets = (
            None
            if record.buckets is None
            else encode_int_seq(record.buckets, _bucket_width(record.key_bits))
        )
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    conn.execute(
                        "INSERT INTO sessions (session_id, key_bits, chunk_size,"
                        " public_n, aggregate, received, chunks_received, done,"
                        " touched_at, buckets)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                        " ON CONFLICT(session_id) DO UPDATE SET"
                        " aggregate=excluded.aggregate,"
                        " received=excluded.received,"
                        " chunks_received=excluded.chunks_received,"
                        " done=excluded.done,"
                        " touched_at=excluded.touched_at,"
                        " buckets=excluded.buckets",
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
                            buckets,
                        ),
                    )
        except sqlite3.Error as exc:
            raise StoreError("session journal write failed: %s" % exc) from exc
        self._count("repro_store_journal_writes_total")

    def load_session(self, session_id: bytes) -> Optional[SessionRecord]:
        """Fetch one journalled snapshot; None when unknown/deleted."""
        try:
            with self._lock:
                conn = self._require_conn()
                row = conn.execute(
                    "SELECT key_bits, chunk_size, public_n, aggregate,"
                    " received, chunks_received, done, touched_at, buckets"
                    " FROM sessions WHERE session_id = ?",
                    (session_id,),
                ).fetchone()
        except sqlite3.Error as exc:
            raise StoreError("session journal read failed: %s" % exc) from exc
        if row is None:
            self._count("repro_store_journal_misses_total")
            return None
        key_bits = int(row[0])
        buckets: Optional[Tuple[int, ...]] = None
        if row[8] is not None:
            try:
                buckets = decode_int_seq(row[8], _bucket_width(key_bits))
            except (ValueError, struct.error) as exc:
                raise StoreError(
                    "corrupt bucket blob for session %s: %s"
                    % (session_id.hex(), exc)
                ) from exc
            if len(buckets) % PLANE_DIGITS:
                raise StoreError(
                    "corrupt bucket blob for session %s: %d buckets is not"
                    " a whole number of %d-digit planes"
                    % (session_id.hex(), len(buckets), PLANE_DIGITS)
                )
        self._count("repro_store_journal_hits_total")
        return SessionRecord(
            session_id=session_id,
            key_bits=key_bits,
            chunk_size=int(row[1]),
            public_n=decode_int(row[2]),
            aggregate=decode_int(row[3]),
            received=int(row[4]),
            chunks_received=int(row[5]),
            done=bool(row[6]),
            touched_at=float(row[7]),
            buckets=buckets,
        )

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

    def session_count(self) -> int:
        """Number of journalled sessions."""
        with self._lock:
            conn = self._require_conn()
            row = conn.execute("SELECT COUNT(*) FROM sessions").fetchone()
        return int(row[0])

    # -- fixed-base tables ------------------------------------------------

    def save_fixed_base_table(
        self, fingerprint: str, table: FixedBaseTable, label: str = ""
    ) -> None:
        """Persist one table's full precomputation under a key fingerprint.

        ``label`` distinguishes multiple tables for one key (e.g. an
        obfuscator table over ``n^2`` next to a plaintext-space table).
        """
        rows = table.export_rows()
        entry_width = bytes_for_bits(max(1, table.modulus.bit_length()))
        flat = tuple(entry for row in rows for entry in row)
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO fixed_base_tables"
                        " (fingerprint, label, base, modulus, exponent_bits,"
                        " window, entry_width, rows_blob)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            fingerprint,
                            label,
                            _int_blob(table.base),
                            _int_blob(table.modulus),
                            table.exponent_bits,
                            table.window,
                            entry_width,
                            encode_int_seq(flat, entry_width),
                        ),
                    )
        except sqlite3.Error as exc:
            raise StoreError("fixed-base table write failed: %s" % exc) from exc

    def load_fixed_base_table(
        self, fingerprint: str, label: str = ""
    ) -> Optional[FixedBaseTable]:
        """Rebuild a persisted table without recomputing any entry."""
        try:
            with self._lock:
                conn = self._require_conn()
                row = conn.execute(
                    "SELECT base, modulus, exponent_bits, window, entry_width,"
                    " rows_blob FROM fixed_base_tables"
                    " WHERE fingerprint = ? AND label = ?",
                    (fingerprint, label),
                ).fetchone()
        except sqlite3.Error as exc:
            raise StoreError("fixed-base table read failed: %s" % exc) from exc
        if row is None:
            self._count("repro_store_table_misses_total")
            return None
        base = decode_int(row[0])
        modulus = decode_int(row[1])
        exponent_bits, window, entry_width = int(row[2]), int(row[3]), int(row[4])
        flat = decode_int_seq(row[5], entry_width)
        slots = 1 << window
        if len(flat) % slots:
            raise StoreError(
                "corrupt fixed-base table for %s: %d entries not divisible"
                " by %d slots" % (fingerprint, len(flat), slots)
            )
        rows = [
            list(flat[start : start + slots])
            for start in range(0, len(flat), slots)
        ]
        table = FixedBaseTable.from_rows(base, modulus, exponent_bits, window, rows)
        self._count("repro_store_table_hits_total")
        return table

    # -- obfuscator pools (encryptions of zero) ---------------------------

    def save_pool(
        self, public: PaillierPublicKey, obfuscators: Sequence[int]
    ) -> None:
        """Persist leftover precomputed obfuscators for a key.

        Replaces any previous pool row for the fingerprint: pooled
        encryptions are single-use, so the store must only ever hold
        obfuscators that have *not* been handed out.
        """
        entry_width = bytes_for_bits(max(1, public.nsquare.bit_length()))
        fingerprint = key_fingerprint(public.n)
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO zero_pools"
                        " (fingerprint, public_n, entry_width, count, pool_blob)"
                        " VALUES (?, ?, ?, ?, ?)",
                        (
                            fingerprint,
                            _int_blob(public.n),
                            entry_width,
                            len(obfuscators),
                            encode_int_seq(tuple(obfuscators), entry_width),
                        ),
                    )
        except sqlite3.Error as exc:
            raise StoreError("pool write failed: %s" % exc) from exc

    def load_pool_obfuscators(self, public: PaillierPublicKey) -> List[int]:
        """Restore (and *consume*) the persisted pool for a key.

        The row is deleted in the same transaction that reads it, so
        two processes warm-starting from one store can never both hand
        out the same single-use obfuscator.
        """
        fingerprint = key_fingerprint(public.n)
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    row = conn.execute(
                        "SELECT entry_width, pool_blob FROM zero_pools"
                        " WHERE fingerprint = ?",
                        (fingerprint,),
                    ).fetchone()
                    if row is not None:
                        conn.execute(
                            "DELETE FROM zero_pools WHERE fingerprint = ?",
                            (fingerprint,),
                        )
        except sqlite3.Error as exc:
            raise StoreError("pool read failed: %s" % exc) from exc
        if row is None:
            self._count("repro_store_pool_misses_total")
            return []
        values = list(decode_int_seq(row[1], int(row[0])))
        self._count("repro_store_pool_hits_total")
        self._count("repro_store_pool_obfuscators_restored_total", len(values))
        return values

    # -- composed warm-start helpers --------------------------------------

    def load_randomness_pool(
        self,
        public: PaillierPublicKey,
        rng: Union[RandomSource, bytes, str, int, None] = None,
        fixed_base: bool = True,
        window: Optional[int] = None,
    ) -> RandomnessPool:
        """A :class:`~repro.crypto.paillier.RandomnessPool` warm-started
        from the store: persisted fixed-base table plus any leftover
        pooled obfuscators.  Misses degrade to a cold pool — the store
        is an optimisation, never a correctness requirement.
        """
        fingerprint = key_fingerprint(public.n)
        table = (
            self.load_fixed_base_table(fingerprint, label="obfuscator")
            if fixed_base
            else None
        )
        pool = RandomnessPool(
            public, rng=rng, fixed_base=fixed_base, window=window, table=table
        )
        restored = self.load_pool_obfuscators(public)
        if restored:
            pool.restore(restored)
        return pool

    def save_randomness_pool(self, pool: RandomnessPool) -> None:
        """Persist a pool's table and *remaining* obfuscators."""
        fingerprint = key_fingerprint(pool.public_key.n)
        table = pool.export_table()
        if table is not None:
            self.save_fixed_base_table(fingerprint, table, label="obfuscator")
        self.save_pool(pool.public_key, pool.export_obfuscators())

    # -- calibration profiles ---------------------------------------------

    def save_calibration(self, kind: str, profile_json: str) -> None:
        """Persist a calibration profile document under ``kind`` (upsert).

        The document is the JSON emitted by
        :meth:`repro.crypto.calibration.CalibrationProfile.to_json`;
        ``repro calibrate`` writes it once and every later
        ``serve``/``sum`` run routes engine batches through it.
        """
        if not kind:
            raise StoreError("calibration kind must be non-empty")
        try:
            with self._lock:
                conn = self._require_conn()
                with conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO calibration"
                        " (kind, profile, updated_at) VALUES (?, ?, ?)",
                        (kind, profile_json, time.time()),
                    )
        except sqlite3.Error as exc:
            raise StoreError("calibration write failed: %s" % exc) from exc
        self._count("repro_store_calibration_writes_total")

    def load_calibration(self, kind: str) -> Optional[str]:
        """The persisted profile document for ``kind``, or None."""
        try:
            with self._lock:
                conn = self._require_conn()
                row = conn.execute(
                    "SELECT profile FROM calibration WHERE kind = ?",
                    (kind,),
                ).fetchone()
        except sqlite3.Error as exc:
            raise StoreError("calibration read failed: %s" % exc) from exc
        if row is None:
            self._count("repro_store_calibration_misses_total")
            return None
        self._count("repro_store_calibration_hits_total")
        return str(row[0])

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
