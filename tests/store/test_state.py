"""`StateStore` facade: journal and database round trips, metrics."""

import sqlite3
import threading
from dataclasses import replace

import pytest

from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.crypto.serialization import encode_int, encode_int_seq
from repro.datastore.database import ServerDatabase
from repro.exceptions import StoreError
from repro.obs.registry import MetricsRegistry
from repro.store.db import MIGRATIONS, open_store_db, schema_version
from repro.store.state import SessionRecord, StateStore

KEY_BITS = 128


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(KEY_BITS, DeterministicRandom("store-state"))


@pytest.fixture()
def store():
    with StateStore(":memory:") as s:
        yield s


def test_open_creates_directory_and_conventional_file(tmp_path):
    state_dir = str(tmp_path / "state")
    store = StateStore.open(state_dir)
    try:
        assert store.path.startswith(state_dir)
        assert store.path.endswith("repro-state.sqlite")
    finally:
        store.close()


# -- session journal ------------------------------------------------------


def test_session_round_trip_and_delete(store, keypair):
    record = SessionRecord(
        session_id=b"\x00" * 16,
        key_bits=KEY_BITS,
        chunk_size=8,
        public_n=keypair.public.n,
        aggregate=keypair.public.nsquare - 12345,  # full-width blob
        received=40,
        chunks_received=5,
        done=False,
    )
    store.save_session(record)
    loaded = store.load_session(record.session_id)
    assert loaded.aggregate == record.aggregate
    assert loaded.public_n == keypair.public.n
    assert loaded.touched_at > 0
    assert store.session_count() == 1

    # upsert by id: the newer snapshot wins
    store.save_session(
        SessionRecord(
            record.session_id, KEY_BITS, 8, keypair.public.n, 99, 48, 6, True
        )
    )
    loaded = store.load_session(record.session_id)
    assert (loaded.aggregate, loaded.received, loaded.done) == (99, 48, True)
    assert store.session_count() == 1

    store.delete_session(record.session_id)
    assert store.load_session(record.session_id) is None
    assert store.session_count() == 0
    store.delete_session(record.session_id)  # idempotent


def test_zero_aggregate_round_trips(store, keypair):
    # aggregate=1 is the multiplicative identity; 0 must also survive
    # the minimal-width blob encoding (bit_length() == 0 edge).
    record = SessionRecord(b"Z" * 16, KEY_BITS, 4, keypair.public.n, 0, 0, 0, False)
    store.save_session(record)
    assert store.load_session(b"Z" * 16).aggregate == 0


def test_session_pending_round_trip(store, keypair):
    nsquare = keypair.public.nsquare
    pending = tuple(nsquare - 1 - i for i in range(5))
    record = SessionRecord(
        b"P" * 16, KEY_BITS, 4, keypair.public.n, 1, 8, 2, False,
        pending=pending,
    )
    store.save_session(record)
    assert store.load_session(b"P" * 16).pending == pending
    # a finished session has folded everything: the upsert clears them
    store.save_session(
        SessionRecord(b"P" * 16, KEY_BITS, 4, keypair.public.n, 77, 9, 3, True)
    )
    loaded = store.load_session(b"P" * 16)
    assert loaded.pending == () and loaded.aggregate == 77


def insert_bucket_row(store, public_n, buckets_blob, window, aggregate=1):
    """A session row as a v4-v7 server journalled it: digit-plane
    buckets at ``window`` bits, and no pending column written."""
    with store._conn as conn:
        conn.execute(
            "INSERT INTO sessions (session_id, key_bits, chunk_size,"
            " public_n, aggregate, received, chunks_received, done,"
            " touched_at, buckets, plane_window)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                b"W" * 16, KEY_BITS, 4,
                encode_int(public_n, KEY_BITS // 8),
                encode_int(aggregate, 2 * KEY_BITS // 8),
                4, 1, 0, 1.0, buckets_blob, window,
            ),
        )


def bucket_blob(slots):
    return encode_int_seq(tuple(range(2, 2 + slots)), 2 * KEY_BITS // 8)


def closed(aggregate, slots, window, nsquare):
    """What :func:`bucket_blob`'s buckets close to: slot
    ``p * (2^w - 1) + d - 1`` stands for ``bucket^(d * 2^(w p))``."""
    digits = (1 << window) - 1
    exponents = [
        (slot % digits + 1) << (window * (slot // digits)) for slot in range(slots)
    ]
    for base, exponent in zip(range(2, 2 + slots), exponents):
        aggregate = aggregate * pow(base, exponent, nsquare) % nsquare
    return aggregate


def test_session_buckets_round_trip(store, keypair):
    """A row of 5-bit buckets, as a v6 or v7 server journalled it,
    loads with its buckets closed into its aggregate and nothing
    pending; the next upsert leaves no buckets to close twice."""
    nsquare = keypair.public.nsquare
    insert_bucket_row(store, keypair.public.n, bucket_blob(2 * 31), 5, 99)
    loaded = store.load_session(b"W" * 16)
    assert loaded.aggregate == closed(99, 2 * 31, 5, nsquare)
    assert loaded.pending == ()
    assert (loaded.received, loaded.chunks_received) == (4, 1)
    store.save_session(loaded)
    assert store.load_session(b"W" * 16) == loaded


def test_buckets_of_an_older_window_round_trip(store, keypair):
    """A row of 4-bit buckets (schema v4-v5) closes at its own width."""
    nsquare = keypair.public.nsquare
    insert_bucket_row(store, keypair.public.n, bucket_blob(2 * 15), 4, 99)
    loaded = store.load_session(b"W" * 16)
    assert loaded.aggregate == closed(99, 2 * 15, 4, nsquare)
    assert loaded.pending == ()


@pytest.mark.parametrize(
    "plane_window, slots",
    [(4, 31), (5, 2 * 15)],
    ids=["4-bit-row", "5-bit-row"],
)
def test_bucket_blob_must_be_whole_planes_of_the_rows_window(
    store, keypair, plane_window, slots
):
    insert_bucket_row(store, keypair.public.n, bucket_blob(slots), plane_window)
    with pytest.raises(StoreError, match="whole number of"):
        store.load_session(b"W" * 16)


@pytest.mark.parametrize("plane_window", [0, -3])
def test_corrupt_plane_window_raises_store_error(store, keypair, plane_window):
    insert_bucket_row(store, keypair.public.n, bucket_blob(0), plane_window)
    with pytest.raises(StoreError, match="corrupt plane window"):
        store.load_session(b"W" * 16)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: blob[:-1],  # truncated mid-bucket
        lambda blob: blob[:2],  # shorter than the count prefix
        # a well-formed sequence that is not a whole number of planes
        lambda blob: encode_int_seq((1,) * 7, 2 * KEY_BITS // 8),
    ],
)
def test_corrupt_bucket_blob_raises_store_error(store, keypair, corrupt):
    insert_bucket_row(store, keypair.public.n, corrupt(bucket_blob(31)), 5)
    with pytest.raises(StoreError, match="corrupt bucket blob"):
        store.load_session(b"W" * 16)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: blob[:-1],  # truncated mid-ciphertext
        lambda blob: blob[:2],  # shorter than the count prefix
        # more ciphertexts pending than the row has received
        lambda blob: encode_int_seq((2,) * 9, 2 * KEY_BITS // 8),
    ],
)
def test_corrupt_pending_blob_raises_store_error(store, keypair, corrupt):
    store.save_session(
        SessionRecord(
            b"C" * 16, KEY_BITS, 4, keypair.public.n, 1, 8, 2, False,
            pending=(2, 3, 4),
        )
    )
    conn = store._conn
    (blob,) = conn.execute(
        "SELECT pending FROM sessions WHERE session_id = ?", (b"C" * 16,)
    ).fetchone()
    assert blob == encode_int_seq((2, 3, 4), 2 * KEY_BITS // 8)
    with conn:
        conn.execute(
            "UPDATE sessions SET pending = ? WHERE session_id = ?",
            (corrupt(blob), b"C" * 16),
        )
    with pytest.raises(StoreError, match="corrupt pending blob"):
        store.load_session(b"C" * 16)


def v9_store(path, public_n, received, rows, sid=b"A" * 16):
    """A store at schema v9 holding one session that has ``received``
    rows, with ``rows`` as its append-only ``session_pending`` rows
    ``(first_row, ciphertexts)``."""
    conn = open_store_db(path, migrations=MIGRATIONS[:9])
    try:
        with conn:
            conn.execute(
                "INSERT INTO sessions (session_id, key_bits, chunk_size,"
                " public_n, aggregate, received, chunks_received, done,"
                " touched_at) VALUES (?, ?, 4, ?, x'01', ?, ?, 0, 1.0)",
                (
                    sid, KEY_BITS, encode_int(public_n, KEY_BITS // 8),
                    received, received // 4,
                ),
            )
            conn.executemany(
                "INSERT INTO session_pending (session_id, first_row, blob)"
                " VALUES (?, ?, ?)",
                [
                    (sid, first, encode_int_seq(cts, 2 * KEY_BITS // 8))
                    for first, cts in rows
                ],
            )
    finally:
        conn.close()


def test_v9_append_only_pending_rows_move_into_the_session_row(
    tmp_path, keypair
):
    """A v9 server appended one ``session_pending`` row per commit that
    folded no block.  Opening the store under v10 joins each session's
    rows into its row's ``pending`` blob and drops the table; from then
    on each save replaces that blob whole."""
    path = str(tmp_path / "v9.sqlite")
    sid = b"A" * 16
    v9_store(
        path, keypair.public.n, 20,
        [(0, range(2, 10)), (8, range(10, 14)), (12, range(14, 22))],
    )
    with StateStore(path) as store:
        assert "session_pending" not in {
            row[0]
            for row in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        loaded = store.load_session(sid)
        assert (loaded.received, loaded.pending) == (20, tuple(range(2, 22)))

        store.save_session(replace(loaded, received=24, pending=(5, 6)))
        assert store.load_session(sid).pending == (5, 6)
        store.save_session(replace(loaded, received=28, pending=()))
        assert store._conn.execute(
            "SELECT pending FROM sessions WHERE session_id = ?", (sid,)
        ).fetchone() == (None,)


@pytest.mark.parametrize(
    "rows",
    [
        [(0, (2, 3)), (3, (4, 5, 6))],  # a gap
        [(0, (2, 3, 4)), (2, (5, 6))],  # an overlap
        [(0, (2, 3)), (2, (4,))],  # ends before the received rows do
    ],
    ids=["gap", "overlap", "short"],
)
def test_pending_rows_must_tile_the_received_rows(tmp_path, keypair, rows):
    """v9 rows that do not tile the session's last received rows are a
    corrupt journal: the v10 migration fails and leaves the store at
    v9, as it was."""
    path = str(tmp_path / "v9.sqlite")
    v9_store(path, keypair.public.n, 5, rows)
    with pytest.raises(StoreError, match="corrupt pending rows"):
        StateStore(path)
    conn = sqlite3.connect(path)
    try:
        assert schema_version(conn) == 9
        assert conn.execute("SELECT COUNT(*) FROM session_pending").fetchone() == (
            len(rows),
        )
    finally:
        conn.close()


def test_corrupt_v9_pending_blob_fails_the_migration(tmp_path, keypair):
    path = str(tmp_path / "v9.sqlite")
    v9_store(path, keypair.public.n, 5, [(3, (2, 3))])
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE session_pending SET blob = substr(blob, 1, 9)")
    conn.close()
    with pytest.raises(StoreError, match="corrupt pending blob"):
        StateStore(path)


# -- databases ------------------------------------------------------------


def test_database_round_trip_and_listing(store):
    db = ServerDatabase([1, 0, 65535, 42], value_bits=16)
    store.save_database("prod", db)
    store.save_database("tiny", ServerDatabase([3], value_bits=8))

    loaded = store.load_database("prod")
    assert loaded.values == db.values
    assert loaded.value_bits == 16
    assert store.list_databases() == [("prod", 4, 16), ("tiny", 1, 8)]

    with pytest.raises(StoreError, match="no database named"):
        store.load_database("missing")
    with pytest.raises(StoreError, match="non-empty"):
        store.save_database("", db)


# -- lifecycle and metrics ------------------------------------------------


def test_closed_store_raises(tmp_path, keypair):
    store = StateStore(str(tmp_path / "s.sqlite"))
    store.close()
    store.close()  # idempotent
    with pytest.raises(StoreError, match="closed"):
        store.session_count()
    with pytest.raises(StoreError, match="closed"):
        store.save_session(
            SessionRecord(b"x" * 16, KEY_BITS, 4, keypair.public.n, 1, 0, 0, False)
        )


def test_store_metrics(keypair):
    metrics = MetricsRegistry()
    with StateStore(":memory:", metrics=metrics) as store:
        record = SessionRecord(
            b"m" * 16, KEY_BITS, 4, keypair.public.n, 1, 0, 0, False
        )
        store.save_session(record)
        store.load_session(b"m" * 16)
        store.load_session(b"?" * 16)
        store.delete_session(b"m" * 16)
        store.delete_session(b"m" * 16)  # no row: not a delete
        store.save_database("d", ServerDatabase([7], value_bits=8))
        store.load_database("d")

        values = {
            snap.name: snap.value
            for snap in metrics.collect()
            if snap.kind == "counter"
        }
        # exactly the names the store emits; the supervisor owns the rest
        assert values == {
            "repro_store_journal_writes_total": 1,
            "repro_store_journal_hits_total": 1,
            "repro_store_journal_misses_total": 1,
            "repro_store_journal_deletes_total": 1,
            "repro_store_db_loads_total": 1,
        }


def test_concurrent_writers_serialise(store, keypair):
    """Worker threads journal through one lock without corruption."""
    errors = []

    def hammer(worker):
        try:
            for round_index in range(20):
                session_id = bytes([worker] * 8) + round_index.to_bytes(8, "big")
                store.save_session(
                    SessionRecord(
                        session_id, KEY_BITS, 4, keypair.public.n,
                        worker + round_index, 1, 1, False,
                    )
                )
                assert store.load_session(session_id) is not None
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(worker,)) for worker in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert store.session_count() == 80

