"""SQLite plumbing for the durability tier: WAL mode + schema migrations.

Durability model (documented in ``docs/protocol.md`` § Durability):

* Connections run in **WAL mode** with ``synchronous=NORMAL``.  Every
  committed transaction survives *process* death unconditionally (the
  WAL append happens before commit returns); an operating-system crash
  can lose transactions committed after the last WAL sync, but never
  corrupts the store — on reopen the database is a consistent prefix of
  history.  That is exactly the guarantee warm restart needs: a journal
  entry may lag reality by a bounded amount, in which case the client
  simply re-sends a chunk it already encrypted.
* The schema is **versioned**.  ``dbversion`` records one row per
  applied migration (version, timestamp, description), in the style of
  ``swh.core.db``; :func:`migrate` applies every pending step in order,
  each inside its own transaction, so opening a store created by an
  older release upgrades it in place and a crash mid-upgrade leaves a
  cleanly resumable prefix.

The schema itself (see :data:`MIGRATIONS`):

* ``sessions`` — the resumable-session journal: one frozen snapshot per
  session id, exactly the fields of
  :class:`repro.spfe.session._ResumeState` (digit-plane buckets
  included, since v4) plus an LRU timestamp.
* ``fixed_base_tables`` — serialized
  :class:`~repro.crypto.multiexp.FixedBaseTable` precomputation, keyed
  by key fingerprint.
* ``zero_pools`` — leftover precomputed obfuscators (encryptions of
  zero) per key fingerprint.
* ``databases`` — named server databases, loadable by ``repro serve
  --state-dir ... --db-name ...``.
"""

from __future__ import annotations

import sqlite3
import time
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import StoreError

__all__ = [
    "MIGRATIONS",
    "SCHEMA_VERSION",
    "open_store_db",
    "migrate",
    "schema_version",
]

#: Ordered migration history.  Append-only: released versions are never
#: edited, new releases append a new ``(version, description, [ddl])``
#: entry and :func:`migrate` carries any existing store forward.
MIGRATIONS: Tuple[Tuple[int, str, Tuple[str, ...]], ...] = (
    (
        1,
        "initial schema: session journal, precomputation caches, databases",
        (
            """
            CREATE TABLE sessions (
                session_id      BLOB PRIMARY KEY,
                key_bits        INTEGER NOT NULL,
                chunk_size      INTEGER NOT NULL,
                public_n        BLOB NOT NULL,
                aggregate       BLOB NOT NULL,
                received        INTEGER NOT NULL,
                chunks_received INTEGER NOT NULL,
                done            INTEGER NOT NULL DEFAULT 0
            )
            """,
            """
            CREATE TABLE fixed_base_tables (
                fingerprint   TEXT NOT NULL,
                label         TEXT NOT NULL DEFAULT '',
                base          BLOB NOT NULL,
                modulus       BLOB NOT NULL,
                exponent_bits INTEGER NOT NULL,
                window        INTEGER NOT NULL,
                entry_width   INTEGER NOT NULL,
                rows_blob     BLOB NOT NULL,
                PRIMARY KEY (fingerprint, label)
            )
            """,
            """
            CREATE TABLE zero_pools (
                fingerprint TEXT PRIMARY KEY,
                public_n    BLOB NOT NULL,
                entry_width INTEGER NOT NULL,
                count       INTEGER NOT NULL,
                pool_blob   BLOB NOT NULL
            )
            """,
            """
            CREATE TABLE databases (
                name        TEXT PRIMARY KEY,
                value_bits  INTEGER NOT NULL,
                length      INTEGER NOT NULL,
                entry_width INTEGER NOT NULL,
                values_blob BLOB NOT NULL
            )
            """,
        ),
    ),
    (
        2,
        "session LRU timestamps for cross-restart eviction ordering",
        (
            # Sessions journalled by a v1 store carry touched_at=0 and
            # sort oldest, which is the conservative recovery order.
            "ALTER TABLE sessions ADD COLUMN touched_at REAL NOT NULL DEFAULT 0",
            "CREATE INDEX idx_sessions_touched ON sessions (touched_at)",
        ),
    ),
    (
        3,
        "calibration profiles: cached engine mode-selection measurements",
        (
            # One JSON document per profile kind (see
            # repro.crypto.calibration.PROFILE_KIND); `repro calibrate`
            # writes it, serve/sum read it to route engine batches.
            """
            CREATE TABLE calibration (
                kind       TEXT PRIMARY KEY,
                profile    TEXT NOT NULL,
                updated_at REAL NOT NULL
            )
            """,
        ),
    ),
    (
        4,
        "session digit-plane buckets: the chunks folded so far",
        (
            # NULL for a finished session (its buckets have collapsed
            # into `aggregate`) and for rows journalled before v4, whose
            # folded chunks live in `aggregate` alone.
            "ALTER TABLE sessions ADD COLUMN buckets BLOB",
        ),
    ),
)

#: The schema version this code reads and writes.
SCHEMA_VERSION: int = MIGRATIONS[-1][0]

_DBVERSION_DDL = """
CREATE TABLE IF NOT EXISTS dbversion (
    version     INTEGER PRIMARY KEY,
    release_ts  REAL NOT NULL,
    description TEXT NOT NULL
)
"""


def schema_version(conn: sqlite3.Connection) -> int:
    """The newest applied migration version (0 for a fresh store)."""
    try:
        row = conn.execute("SELECT MAX(version) FROM dbversion").fetchone()
    except sqlite3.OperationalError:
        return 0
    return int(row[0]) if row and row[0] is not None else 0


def migrate(
    conn: sqlite3.Connection,
    migrations: Sequence[Tuple[int, str, Tuple[str, ...]]] = MIGRATIONS,
) -> List[int]:
    """Apply every pending migration in order; returns applied versions.

    Each step runs in its own transaction: the DDL plus its
    ``dbversion`` row commit atomically, so a crash mid-upgrade leaves
    the store at a well-defined older version that the next open
    finishes upgrading.  A store *newer* than this code is refused —
    reading a schema we do not understand risks silent corruption.
    """
    conn.execute(_DBVERSION_DDL)
    current = schema_version(conn)
    newest = migrations[-1][0] if migrations else 0
    if current > newest:
        raise StoreError(
            "store schema v%d is newer than this code (v%d); refusing to open"
            % (current, newest)
        )
    applied: List[int] = []
    for version, description, statements in migrations:
        if version <= current:
            continue
        try:
            with conn:  # one transaction per migration step
                for statement in statements:
                    conn.execute(statement)
                conn.execute(
                    "INSERT INTO dbversion (version, release_ts, description) "
                    "VALUES (?, ?, ?)",
                    (version, time.time(), description),
                )
        except sqlite3.Error as exc:
            raise StoreError(
                "migration to schema v%d failed: %s" % (version, exc)
            ) from exc
        applied.append(version)
    return applied


def open_store_db(
    path: str,
    timeout_s: float = 10.0,
    migrations: Optional[Sequence[Tuple[int, str, Tuple[str, ...]]]] = None,
) -> sqlite3.Connection:
    """Open (creating/upgrading as needed) the store database at ``path``.

    The returned connection is WAL-mode, ``synchronous=NORMAL``, and
    created with ``check_same_thread=False`` — callers serialise access
    themselves (:class:`~repro.store.state.StateStore` holds one lock
    around every operation).  ``path`` may be ``":memory:"`` in tests.
    """
    try:
        conn = sqlite3.connect(
            path, timeout=timeout_s, check_same_thread=False
        )
    except sqlite3.Error as exc:
        raise StoreError("cannot open store at %r: %s" % (path, exc)) from exc
    try:
        # WAL + NORMAL is the crash-safety sweet spot: commits are
        # process-crash durable without paying a full fsync per chunk
        # journal write (see module docstring / docs/protocol.md).
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        migrate(conn, migrations if migrations is not None else MIGRATIONS)
    except StoreError:
        conn.close()
        raise
    except sqlite3.Error as exc:
        conn.close()
        raise StoreError("cannot initialise store at %r: %s" % (path, exc)) from exc
    return conn
