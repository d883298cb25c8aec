"""`StateStore` facade: round trips, single-use pools, metrics."""

import threading

import pytest

from repro.crypto.multiexp import PLANE_DIGITS, FixedBaseTable
from repro.crypto.paillier import RandomnessPool, generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.crypto.serialization import encode_int_seq
from repro.datastore.database import ServerDatabase
from repro.exceptions import StoreError
from repro.obs.registry import MetricsRegistry
from repro.store.state import SessionRecord, StateStore, key_fingerprint

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


def test_key_fingerprint_is_stable_and_distinct(keypair):
    fp = key_fingerprint(keypair.public.n)
    assert fp == key_fingerprint(keypair.public.n)
    assert len(fp) == 64  # sha256 hex
    assert fp != key_fingerprint(keypair.public.n + 2)


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


def test_session_buckets_round_trip(store, keypair):
    nsquare = keypair.public.nsquare
    buckets = tuple(nsquare - 1 - i for i in range(2 * PLANE_DIGITS))
    record = SessionRecord(
        b"B" * 16, KEY_BITS, 4, keypair.public.n, 1, 8, 2, False,
        buckets=buckets,
    )
    store.save_session(record)
    assert store.load_session(b"B" * 16).buckets == buckets
    # a finished session's buckets collapse: the upsert clears them
    store.save_session(
        SessionRecord(b"B" * 16, KEY_BITS, 4, keypair.public.n, 77, 9, 3, True)
    )
    loaded = store.load_session(b"B" * 16)
    assert loaded.buckets is None and loaded.aggregate == 77
    # buckets are optional: in-progress rows without them still load
    assert SessionRecord(b"x" * 16, KEY_BITS, 4, 5, 1, 0, 0, False).buckets is None


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
    buckets = tuple(range(2, 2 + PLANE_DIGITS))
    store.save_session(
        SessionRecord(
            b"C" * 16, KEY_BITS, 4, keypair.public.n, 1, 4, 1, False,
            buckets=buckets,
        )
    )
    conn = store._conn
    (blob,) = conn.execute(
        "SELECT buckets FROM sessions WHERE session_id = ?", (b"C" * 16,)
    ).fetchone()
    with conn:
        conn.execute(
            "UPDATE sessions SET buckets = ? WHERE session_id = ?",
            (corrupt(blob), b"C" * 16),
        )
    with pytest.raises(StoreError, match="corrupt bucket blob"):
        store.load_session(b"C" * 16)


# -- fixed-base tables ----------------------------------------------------


def test_fixed_base_table_round_trip(store, keypair):
    public = keypair.public
    base = pow(3, public.n, public.nsquare)
    table = FixedBaseTable(base, public.nsquare, public.bits, window=4)
    fp = key_fingerprint(public.n)
    store.save_fixed_base_table(fp, table, label="obfuscator")

    loaded = store.load_fixed_base_table(fp, label="obfuscator")
    assert loaded is not None
    assert (loaded.base, loaded.modulus) == (table.base, table.modulus)
    assert (loaded.exponent_bits, loaded.window) == (public.bits, 4)
    # bit-for-bit equivalent exponentiation, no recomputation
    for exponent in (0, 1, 5, (1 << public.bits) - 1):
        assert loaded.pow(exponent) == table.pow(exponent)

    assert store.load_fixed_base_table(fp, label="other") is None
    assert store.load_fixed_base_table("feed" * 16) is None


def test_from_rows_validates_shape(keypair):
    public = keypair.public
    table = FixedBaseTable(7, public.nsquare, 32, window=4)
    rows = table.export_rows()
    from repro.exceptions import ParameterError

    with pytest.raises(ParameterError, match="shape"):
        FixedBaseTable.from_rows(7, public.nsquare, 32, 4, rows[:-1])
    with pytest.raises(ParameterError, match="shape"):
        FixedBaseTable.from_rows(
            7, public.nsquare, 32, 4, [r[:-1] for r in rows]
        )
    rebuilt = FixedBaseTable.from_rows(7, public.nsquare, 32, 4, rows)
    assert rebuilt.pow(12345) == table.pow(12345)
    assert rebuilt.entries == table.entries


# -- obfuscator pools -----------------------------------------------------


def test_pool_round_trip_is_single_use(store, keypair):
    public = keypair.public
    pool = RandomnessPool(
        public, rng=DeterministicRandom("pool"), fixed_base=True
    )
    pool.precompute(6)
    taken = pool.take()  # one handed out before persistence
    store.save_randomness_pool(pool)
    assert len(pool) == 0  # export drains: no obfuscator lives twice

    warm = store.load_randomness_pool(
        public, rng=DeterministicRandom("pool-2")
    )
    assert len(warm) == 5
    assert warm.restored == 5
    assert warm.export_table() is not None  # table restored too
    # the journalled row was consumed by the load: a second warm start
    # cannot hand out the same single-use obfuscators again
    again = store.load_randomness_pool(
        public, rng=DeterministicRandom("pool-3")
    )
    assert again.restored == 0

    # restored obfuscators are valid encryptions of zero
    obfuscator = warm.take()
    assert obfuscator != taken
    ciphertext = public.raw_encrypt(0, obfuscator)
    assert keypair.private.raw_decrypt(ciphertext) == 0


def test_warm_pool_skips_table_build(store, keypair):
    public = keypair.public
    cold = RandomnessPool(
        public, rng=DeterministicRandom("cold"), fixed_base=True
    )
    cold.precompute(1)  # forces the table build
    store.save_randomness_pool(cold)

    warm = store.load_randomness_pool(
        public, rng=DeterministicRandom("warm")
    )
    # the table came from the store: drawing obfuscators never rebuilds
    table_before = warm.export_table()
    warm.precompute(3)
    assert warm.export_table() is table_before


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
        fp = key_fingerprint(keypair.public.n)
        store.load_fixed_base_table(fp)
        pool = RandomnessPool(
            keypair.public, rng=DeterministicRandom("m"), fixed_base=True
        )
        pool.precompute(2)
        store.save_randomness_pool(pool)
        store.load_pool_obfuscators(keypair.public)

        values = {
            snap.name: snap.value
            for snap in metrics.collect()
            if snap.kind == "counter"
        }
        assert values["repro_store_journal_writes_total"] == 1
        assert values["repro_store_journal_hits_total"] == 1
        assert values["repro_store_journal_misses_total"] == 1
        assert values["repro_store_journal_deletes_total"] == 1
        assert values["repro_store_table_misses_total"] == 1
        assert values["repro_store_pool_hits_total"] == 1
        assert values["repro_store_pool_obfuscators_restored_total"] == 2


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


class TestCalibrationPersistence:
    def test_save_load_roundtrip_and_upsert(self):
        with StateStore(":memory:") as store:
            assert store.load_calibration("engine-mode-profile") is None
            store.save_calibration("engine-mode-profile", '{"v": 1}')
            assert store.load_calibration("engine-mode-profile") == '{"v": 1}'
            store.save_calibration("engine-mode-profile", '{"v": 2}')
            assert store.load_calibration("engine-mode-profile") == '{"v": 2}'

    def test_kinds_are_independent(self):
        with StateStore(":memory:") as store:
            store.save_calibration("a", "one")
            store.save_calibration("b", "two")
            assert store.load_calibration("a") == "one"
            assert store.load_calibration("b") == "two"

    def test_empty_kind_rejected(self):
        with StateStore(":memory:") as store:
            with pytest.raises(StoreError):
                store.save_calibration("", "{}")

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "calib.sqlite")
        with StateStore(path) as store:
            store.save_calibration("engine-mode-profile", '{"persisted": true}')
        with StateStore(path) as store:
            assert (
                store.load_calibration("engine-mode-profile")
                == '{"persisted": true}'
            )

    def test_metrics_count_writes_hits_and_misses(self):
        metrics = MetricsRegistry()
        with StateStore(":memory:", metrics=metrics) as store:
            store.load_calibration("engine-mode-profile")  # miss
            store.save_calibration("engine-mode-profile", "{}")  # write
            store.load_calibration("engine-mode-profile")  # hit
        values = {
            snap.name: snap.value
            for snap in metrics.collect()
            if snap.kind == "counter"
        }
        assert values["repro_store_calibration_writes_total"] == 1
        assert values["repro_store_calibration_hits_total"] == 1
        assert values["repro_store_calibration_misses_total"] == 1
