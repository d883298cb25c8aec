"""Schema/migration machinery of :mod:`repro.store.db`.

The critical property: a store created by an *older* release opens
cleanly under newer code (migrations run in order, data survives), and
a store created by a *newer* release is refused rather than corrupted.
"""

import os
import sqlite3

import pytest

from repro.crypto.serialization import encode_int, encode_int_seq
from repro.datastore.database import ServerDatabase
from repro.exceptions import StoreError
from repro.store.db import (
    MIGRATIONS,
    SCHEMA_VERSION,
    migrate,
    open_store_db,
    schema_version,
)
from repro.store.state import SessionRecord, StateStore


def test_fresh_store_is_at_latest_schema(tmp_path):
    conn = open_store_db(str(tmp_path / "s.sqlite"))
    try:
        assert schema_version(conn) == SCHEMA_VERSION
        # every migration recorded its dbversion row
        rows = conn.execute(
            "SELECT version, description FROM dbversion ORDER BY version"
        ).fetchall()
        assert [r[0] for r in rows] == [m[0] for m in MIGRATIONS]
        assert all(r[1] for r in rows)  # descriptions are non-empty
    finally:
        conn.close()


def test_reopen_is_idempotent(tmp_path):
    path = str(tmp_path / "s.sqlite")
    open_store_db(path).close()
    conn = open_store_db(path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION
        assert (
            conn.execute("SELECT COUNT(*) FROM dbversion").fetchone()[0]
            == len(MIGRATIONS)
        )
    finally:
        conn.close()


def test_wal_mode_enabled(tmp_path):
    conn = open_store_db(str(tmp_path / "s.sqlite"))
    try:
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    finally:
        conn.close()


def test_migrate_returns_applied_versions(tmp_path):
    conn = sqlite3.connect(str(tmp_path / "s.sqlite"))
    try:
        assert migrate(conn) == [m[0] for m in MIGRATIONS]
        assert migrate(conn) == []  # already current: nothing to do
    finally:
        conn.close()


def test_v1_store_upgrades_in_place_and_keeps_data(tmp_path):
    """The CI migration scenario: open a v1-schema store with v2 code."""
    path = str(tmp_path / "old.sqlite")
    conn = open_store_db(path, migrations=MIGRATIONS[:1])
    # a session journalled by the v1 release (no touched_at column yet)
    conn.execute(
        "INSERT INTO sessions (session_id, key_bits, chunk_size, public_n,"
        " aggregate, received, chunks_received, done)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (b"S" * 16, 128, 4, b"\x01\x23", b"\x07", 8, 2, 0),
    )
    conn.commit()
    assert schema_version(conn) == 1
    conn.close()

    # current code opens it: v2 migration runs, data survives
    store = StateStore(path)
    try:
        record = store.load_session(b"S" * 16)
        assert record == SessionRecord(
            session_id=b"S" * 16,
            key_bits=128,
            chunk_size=4,
            public_n=0x123,
            aggregate=7,
            received=8,
            chunks_received=2,
            done=False,
            touched_at=0.0,  # the v2 default for pre-v2 rows
        )
        # and the store is fully writable at the new schema
        store.save_session(record)
        assert store.load_session(b"S" * 16).touched_at > 0
    finally:
        store.close()
    conn = sqlite3.connect(path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION
    finally:
        conn.close()


def test_newer_schema_is_refused(tmp_path):
    path = str(tmp_path / "future.sqlite")
    conn = open_store_db(path)
    conn.execute(
        "INSERT INTO dbversion (version, release_ts, description)"
        " VALUES (?, 0, 'from the future')",
        (SCHEMA_VERSION + 1,),
    )
    conn.commit()
    conn.close()
    with pytest.raises(StoreError, match="newer than this code"):
        open_store_db(path)


def test_unopenable_path_raises_store_error(tmp_path):
    missing_dir = os.path.join(str(tmp_path), "no", "such", "dir", "s.sqlite")
    with pytest.raises(StoreError, match="cannot open store"):
        open_store_db(missing_dir)


def test_migration_failure_leaves_resumable_prefix(tmp_path):
    """A crash (or bug) mid-upgrade leaves a clean older version."""
    path = str(tmp_path / "s.sqlite")
    broken = MIGRATIONS[:1] + (
        (2, "broken step", ("THIS IS NOT SQL",)),
    )
    with pytest.raises(StoreError, match="migration to schema v2"):
        open_store_db(path, migrations=broken)
    # v1 applied and committed; the failed v2 left no partial state
    conn = sqlite3.connect(path)
    try:
        assert schema_version(conn) == 1
    finally:
        conn.close()
    # ... and the real v2 migration completes the upgrade later
    conn = open_store_db(path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION
    finally:
        conn.close()


def test_a_failed_migration_rolls_back_its_ddl(tmp_path):
    """DDL runs inside the migration's transaction: a later step's
    failure undoes a table an earlier step of the same migration made."""
    path = str(tmp_path / "s.sqlite")
    broken = MIGRATIONS[:1] + (
        (2, "broken step", ("CREATE TABLE half_done (x)", "THIS IS NOT SQL")),
    )
    with pytest.raises(StoreError, match="migration to schema v2"):
        open_store_db(path, migrations=broken)
    conn = sqlite3.connect(path)
    try:
        assert schema_version(conn) == 1
        assert "half_done" not in _table_names(conn)
    finally:
        conn.close()


def _table_names(conn):
    return {
        row[0]
        for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
    }


def test_v2_store_upgrades_to_latest_without_calibration(tmp_path):
    """A v2 store walks v3 (table added) and v5 (dropped) in one open."""
    path = str(tmp_path / "v2.sqlite")
    conn = open_store_db(path, migrations=MIGRATIONS[:2])
    assert schema_version(conn) == 2
    assert "calibration" not in _table_names(conn)
    conn.close()

    StateStore(path).close()
    conn = sqlite3.connect(path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION == 10
        assert "calibration" not in _table_names(conn)
        applied = conn.execute(
            "SELECT version FROM dbversion ORDER BY version"
        ).fetchall()
        assert [row[0] for row in applied] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    finally:
        conn.close()


def test_v4_store_drops_calibration_and_keeps_data(tmp_path, monkeypatch):
    """A v4 store with a calibration row and an in-progress session of
    4-bit buckets opens under current code intact, the buckets closed
    into the session's aggregate."""
    import repro.store.state as state_module

    path = str(tmp_path / "v4.sqlite")
    public_n = 0xABCDEF
    nsquare = public_n * public_n
    buckets = tuple(range(1, 2 * 15 + 1))  # two 4-bit planes
    # slot p * 15 + d - 1 stands for bucket^(d * 16^p)
    exponents = [(slot % 15 + 1) << (4 * (slot // 15)) for slot in range(30)]
    aggregate = 12345
    for bucket, exponent in zip(buckets, exponents):
        aggregate = aggregate * pow(bucket, exponent, nsquare) % nsquare
    record = SessionRecord(
        session_id=b"J" * 16,
        key_bits=128,
        chunk_size=8,
        public_n=public_n,
        aggregate=aggregate,
        received=16,
        chunks_received=2,
        done=False,
        touched_at=1.5,
    )
    database = ServerDatabase([7, 0, 65535, 42], value_bits=16)
    # write through the real store code, held at the v4 schema; the
    # session row has no window column yet, so it goes in by hand
    monkeypatch.setattr(
        state_module,
        "open_store_db",
        lambda p: open_store_db(p, migrations=MIGRATIONS[:4]),
    )
    with StateStore(path) as store:
        store.save_database("named", database)
    monkeypatch.undo()
    conn = sqlite3.connect(path)
    conn.execute(
        "INSERT INTO sessions (session_id, key_bits, chunk_size, public_n,"
        " aggregate, received, chunks_received, done, touched_at, buckets)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            record.session_id,
            record.key_bits,
            record.chunk_size,
            encode_int(record.public_n, 3),
            encode_int(12345, 2),
            record.received,
            record.chunks_received,
            0,
            record.touched_at,
            encode_int_seq(buckets, 2 * record.key_bits // 8),
        ),
    )
    conn.execute(
        "INSERT INTO calibration (kind, profile, updated_at)"
        " VALUES ('engine-mode-profile', '{}', 0)"
    )
    conn.commit()
    assert schema_version(conn) == 4
    conn.close()

    with StateStore(path) as store:
        assert store.load_session(b"J" * 16) == record
        assert store.load_database("named") == database
    conn = sqlite3.connect(path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION
        assert "calibration" not in _table_names(conn)
    finally:
        conn.close()
