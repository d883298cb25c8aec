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

* ``sessions`` — the resumable-session journal: one row per session
  id, the fields of :class:`repro.store.record.SessionRecord`,
  ``touched_at`` being the time of the row's last write and ``pending``
  the ciphertexts of the session's incomplete fold block.  The server
  writes a row when a read folds a block, so ``pending`` holds at most
  the rows of one read.  Rows written by v4-v7 hold digit-plane buckets
  instead (and, since v6, the digit width they were written at), which
  the store closes into the row's aggregate when it reads them.
* ``databases`` — named server databases, loadable by ``repro serve
  --state-dir ... --db-name ...``.

Nothing else: v1 also created two precomputation caches for the
client's offline phase, which no command ever wrote, and v7 drops them.
v9 journalled pending ciphertexts append-only in a ``session_pending``
table; v10 moves them back into the session rows and drops it.
"""

from __future__ import annotations

import sqlite3
import struct
import time
from itertools import groupby
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.crypto.ntheory import bytes_for_bits
from repro.crypto.serialization import decode_int_seq, encode_int_seq
from repro.exceptions import StoreError

__all__ = [
    "MIGRATIONS",
    "SCHEMA_VERSION",
    "open_store_db",
    "migrate",
    "schema_version",
]

#: One step of a migration: a SQL statement, or a function that moves
#: data the old schema holds in a shape SQL cannot rewrite.
Step = Union[str, Callable[[sqlite3.Connection], None]]
Migration = Tuple[int, str, Tuple[Step, ...]]


def _adopt_v9_pending(conn: sqlite3.Connection) -> None:
    """Move each session's v9 ``session_pending`` rows into its row's
    ``pending`` blob.

    The rows of one session, in row order, must tile the last rows it
    received: a gap, an overlap or a short tail is a corrupt journal,
    and the migration fails rather than resume a wrong product.
    """
    rows = conn.execute(
        "SELECT p.session_id, s.key_bits, s.received, p.first_row, p.blob"
        " FROM session_pending p JOIN sessions s USING (session_id)"
        " ORDER BY p.session_id, p.first_row"
    ).fetchall()
    for session_id, group in groupby(rows, key=lambda row: row[0]):
        parts = list(group)
        _, key_bits, received, _, _ = parts[0]
        width = bytes_for_bits(2 * key_bits)
        try:
            decoded = [(row[3], decode_int_seq(row[4], width)) for row in parts]
        except (ValueError, struct.error) as exc:
            raise StoreError(
                "corrupt pending blob for session %s: %s" % (session_id.hex(), exc)
            ) from exc
        pending = tuple(ct for _, part in decoded for ct in part)
        at = received - len(pending)
        for first_row, part in decoded:
            if first_row != at:
                raise StoreError(
                    "corrupt pending rows for session %s: a row starts at"
                    " %d, not %d; %d ciphertexts must end at row %d"
                    % (session_id.hex(), first_row, at, len(pending), received)
                )
            at += len(part)
        conn.execute(
            "UPDATE sessions SET pending = ? WHERE session_id = ?",
            (encode_int_seq(pending, width), session_id),
        )


#: Ordered migration history.  Append-only: released versions are never
#: edited, new releases append a new ``(version, description, [steps])``
#: entry and :func:`migrate` carries any existing store forward.
MIGRATIONS: Tuple[Migration, ...] = (
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
            # One JSON document per profile kind, written by the
            # since-removed `repro calibrate`; v5 drops the table.
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
    (
        5,
        "drop calibration profiles (engine removed)",
        ("DROP TABLE IF EXISTS calibration",),
    ),
    (
        6,
        "session digit-plane window: the bucket layout of each row",
        (
            # Every row written before v6 holds 4-bit buckets (or none).
            "ALTER TABLE sessions ADD COLUMN plane_window INTEGER NOT NULL"
            " DEFAULT 4",
        ),
    ),
    (
        7,
        "drop the precomputation caches (never written by any command)",
        (
            "DROP TABLE IF EXISTS fixed_base_tables",
            "DROP TABLE IF EXISTS zero_pools",
        ),
    ),
    (
        8,
        "session pending block: ciphertexts of the incomplete fold block",
        (
            # NULL for rows written before v8: their folded chunks are
            # in `aggregate` and `buckets`, and none are pending.
            "ALTER TABLE sessions ADD COLUMN pending BLOB",
        ),
    ),
    (
        9,
        "append-only pending journal: one row per commit's ciphertexts",
        (
            # A v8 row keeps its `sessions.pending` blob until the
            # session's next write moves it here; rows written since v9
            # leave that column NULL.
            """
            CREATE TABLE session_pending (
                session_id BLOB NOT NULL
                    REFERENCES sessions(session_id) ON DELETE CASCADE,
                first_row  INTEGER NOT NULL,
                blob       BLOB NOT NULL,
                PRIMARY KEY (session_id, first_row)
            ) WITHOUT ROWID
            """,
        ),
    ),
    (
        10,
        "pending ciphertexts back in the session row, written per fold block",
        (_adopt_v9_pending, "DROP TABLE session_pending"),
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
    migrations: Sequence[Migration] = MIGRATIONS,
) -> List[int]:
    """Apply every pending migration in order; returns applied versions.

    Each migration runs in its own transaction: its steps plus its
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
    for version, description, steps in migrations:
        if version <= current:
            continue
        try:
            with conn:  # one transaction per migration
                # Explicitly: the sqlite3 module opens none before DDL.
                conn.execute("BEGIN")
                for step in steps:
                    if callable(step):
                        step(conn)
                    else:
                        conn.execute(step)
                conn.execute(
                    "INSERT INTO dbversion (version, release_ts, description) "
                    "VALUES (?, ?, ?)",
                    (version, time.time(), description),
                )
        except (sqlite3.Error, StoreError) as exc:
            raise StoreError(
                "migration to schema v%d failed: %s" % (version, exc)
            ) from exc
        applied.append(version)
    return applied


def open_store_db(
    path: str,
    timeout_s: float = 10.0,
    migrations: Optional[Sequence[Migration]] = None,
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
        migrate(conn, migrations if migrations is not None else MIGRATIONS)
    except StoreError:
        conn.close()
        raise
    except sqlite3.Error as exc:
        conn.close()
        raise StoreError("cannot initialise store at %r: %s" % (path, exc)) from exc
    return conn
