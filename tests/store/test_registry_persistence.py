"""`SessionRegistry` + `StateStore`: the journal survives restarts,
eviction survives them too.

The invariants under test: after a process restart, a journalled
session resumes exactly where its last commit left it, and an *evicted*
session answers ``RESUME_UNKNOWN`` — never a stale snapshot from before
the eviction.  The journal commits once per
``ServerSession.receive_bytes`` call that folded a block (the call that
completes the query always does), so a crash loses at most the rows
since the last block boundary, which the client re-sends from its
cache, and never changes the RESULT.
"""

import dataclasses
import functools
import random
import sqlite3
import sys
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.multiexp import multi_exponent
from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.crypto.serialization import encode_int, encode_int_seq
from repro.datastore.database import ServerDatabase
from repro.net import codec
from repro.net.codec import FrameDecoder, FrameType
from repro.obs.registry import MetricsRegistry
from repro.spfe.session import ClientSession, ServerSession, SessionRegistry
from repro.store.db import MIGRATIONS, SCHEMA_VERSION, open_store_db, schema_version
from repro.store.state import SessionRecord, StateStore

KEY_BITS = 128
CHUNK = 4
DB = ServerDatabase([5, 0, 7, 1, 9, 2, 0, 3], value_bits=8)


# A 600-row database folds in two blocks of 300 rows, so its queries
# commit to the journal twice: when row 299 arrives, and with the RESULT.
BLOCK_DB = ServerDatabase([(13 * i + 5) % 251 for i in range(600)], value_bits=8)
BLOCK_SELECTION = [i % 3 for i in range(600)]
BLOCK_KEYPAIR = generate_keypair(KEY_BITS, DeterministicRandom("block-keypair"))


def block_client(seed, chunk_size=100):
    """A client of :data:`BLOCK_DB`; at 100 rows a chunk, its third
    chunk completes the first block."""
    return ClientSession(
        BLOCK_SELECTION,
        key_bits=KEY_BITS,
        chunk_size=chunk_size,
        rng=DeterministicRandom(seed),
        keypair=BLOCK_KEYPAIR,
    )


def make_client(seed):
    selection = [1, 0, 1, 1, 0, 0, 1, 1]
    return ClientSession(
        selection,
        key_bits=KEY_BITS,
        chunk_size=CHUNK,
        rng=DeterministicRandom(seed),
    )


def expected_sum(client):
    return sum(w * v for w, v in zip(client.selection, DB.values))


def feed(server, client, frames):
    """Feed outgoing client frames to a server, routing replies back."""
    for data in frames:
        reply = server.receive_bytes(data)
        if reply:
            client.receive_bytes(reply)


def decode_frames(data):
    decoder = FrameDecoder()
    decoder.feed(data)
    return list(decoder.frames())


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "state.sqlite")


def test_eviction_deletes_the_journal_row(store_path):
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=1, store=store)
        a, b = make_client("a"), make_client("b")
        frames_a = list(a.initial_bytes())
        frames_b = list(b.initial_bytes())

        # A's query completes (journalled), then B's evicts A.
        feed(ServerSession(DB, registry=registry), a, frames_a)
        assert store.session_count() == 1
        feed(ServerSession(DB, registry=registry), b, frames_b)
        assert registry.evictions == 1
        assert store.session_count() == 1
        assert store.load_session(a.session_id) is None
        assert store.load_session(b.session_id) is not None


def test_restarted_registry_recovers_from_journal(store_path):
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        client = block_client("recover")
        frames = list(client.initial_bytes())
        # HELLO + KEY + the first block's three chunks: mid-protocol
        # state in the journal
        feed(ServerSession(BLOCK_DB, registry=registry), client, frames[:5])

    # the process "restarts": nothing survives but the file
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        assert len(registry) == 0
        state = registry.get(client.session_id)
        assert state is not None
        assert state.chunks_received == 3
        assert state.received == 300
        assert not state.done
        assert registry.recoveries == 1
        # the rehydrated entry is now resident: no second recovery
        assert registry.get(client.session_id) is state
        assert registry.recoveries == 1
        assert registry.get(b"\x99" * 16) is None


def test_resume_across_restart_completes_without_reencryption(store_path):
    client = make_client("resume")
    frames = list(client.initial_bytes())
    encryptions_after_stream = client.encryptions

    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        feed(ServerSession(DB, registry=registry), client, frames[:3])

    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        server = ServerSession(DB, registry=registry)
        reply = server.receive_bytes(client.resume_request())
        client.receive_bytes(reply)
        assert client.resume_ready
        feed(server, client, client.resume_bytes())

    assert client.result == expected_sum(client)
    # resume re-sent cached ciphertext bytes; nothing was re-encrypted
    assert client.encryptions == encryptions_after_stream
    assert client.encryptions == len(client.selection)


def test_evicted_session_resumes_unknown_after_restart(store_path):
    """Evict, restart, RESUME: the answer must be RESUME_UNKNOWN."""
    a, b = make_client("evicted"), make_client("winner")
    frames_a = list(a.initial_bytes())

    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=1, store=store)
        feed(ServerSession(DB, registry=registry), a, frames_a[:3])
        # B runs to completion; capacity=1 evicts A's journalled state
        feed(ServerSession(DB, registry=registry), b, b.initial_bytes())
        assert b.result == expected_sum(b)
        assert registry.evictions >= 1

    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=1, store=store)
        server = ServerSession(DB, registry=registry)
        reply = decode_frames(server.receive_bytes(a.resume_request()))
        assert [f.frame_type for f in reply] == [FrameType.ACK]
        assert codec.decode_ack(reply[0].payload) == codec.RESUME_UNKNOWN

        # the client degrades to a fresh stream on the same connection,
        # still without re-encrypting its cached chunks
        a.receive_bytes(server.receive_bytes(a.resume_request()))
        encryptions_before = a.encryptions
        feed(server, a, a.resume_bytes())
        assert a.result == expected_sum(a)
        assert a.encryptions == encryptions_before


def test_journal_stays_bounded_across_restarts(store_path):
    """Each life serves three queries and leaves one query mid-stream;
    the next life resumes that one.  Rows the previous process left
    are trimmed when a registry opens, so the journal never holds more
    than twice the registry's capacity (without the trim: 4, 8, 12...)."""
    capacity = 4
    half = None
    for life in range(5):
        with StateStore(store_path) as store:
            registry = SessionRegistry(capacity=capacity, store=store)
            if half is not None:
                server = ServerSession(BLOCK_DB, registry=registry)
                reply = server.receive_bytes(half.resume_request())
                assert codec.decode_ack(decode_frames(reply)[0].payload) == 3
                half.receive_bytes(reply)
                feed(server, half, half.resume_bytes())
                assert half.result == sum(
                    w * v for w, v in zip(BLOCK_SELECTION, BLOCK_DB.values)
                )
            for query in range(3):
                client = make_client("life-%d-%d" % (life, query))
                feed(ServerSession(DB, registry=registry), client, client.initial_bytes())
                assert client.result == expected_sum(client)
                assert store.session_count() <= 2 * capacity
            # HELLO + KEY + the first block's three chunks: journalled
            half = block_client("life-%d-half" % life)
            frames = list(half.initial_bytes())
            feed(ServerSession(BLOCK_DB, registry=registry), half, frames[:5])
            assert store.session_count() <= 2 * capacity


def test_discard_deletes_the_journal_row(store_path):
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        client = block_client("discard")
        feed(
            ServerSession(BLOCK_DB, registry=registry),
            client,
            list(client.initial_bytes())[:5],
        )
        assert store.load_session(client.session_id) is not None
        registry.discard(client.session_id)
        assert store.load_session(client.session_id) is None
        registry.discard(client.session_id)  # idempotent


def test_protocol_violation_clears_the_journal(store_path):
    """A rejected peer must restart, not resume — even across restarts."""
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        client = block_client("violator")
        frames = list(client.initial_bytes())
        server = ServerSession(BLOCK_DB, registry=registry)
        feed(server, client, frames[:5])
        assert store.load_session(client.session_id) is not None
        # replaying the PUBLIC_KEY frame is a protocol violation
        error = server.receive_bytes(frames[1])
        assert server.errored
        assert decode_frames(error)[0].frame_type == FrameType.ERROR
        assert client.session_id not in registry
        assert store.load_session(client.session_id) is None


def chunk_ciphertexts(frame_bytes):
    (frame,) = decode_frames(frame_bytes)
    return codec.decode_ciphertext_chunk(frame.payload, KEY_BITS)


def test_v3_row_without_buckets_resumes_to_the_exact_sum(store_path):
    """A session journalled before schema v4 kept its folded chunks in
    the aggregate alone.  New code migrates the store, resumes the row,
    and closes the fold with that aggregate as its initial value."""
    client = make_client("legacy")
    frames = list(client.initial_bytes())  # HELLO, KEY, two chunks
    n = client.public_key.n
    nsquare = client.public_key.nsquare
    first = chunk_ciphertexts(frames[2])
    # what the v3 server journalled after folding chunk 0
    legacy_aggregate = multi_exponent(first, list(DB.values[:CHUNK]), nsquare)
    assert legacy_aggregate != 1

    conn = open_store_db(store_path, migrations=MIGRATIONS[:3])
    conn.execute(
        "INSERT INTO sessions (session_id, key_bits, chunk_size, public_n,"
        " aggregate, received, chunks_received, done, touched_at)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            client.session_id,
            KEY_BITS,
            CHUNK,
            encode_int(n, (n.bit_length() + 7) // 8),
            encode_int(legacy_aggregate, (nsquare.bit_length() + 7) // 8),
            CHUNK,
            1,
            0,
            1.0,
        ),
    )
    conn.commit()
    assert schema_version(conn) == 3
    conn.close()

    with StateStore(store_path) as store:
        assert store.load_session(client.session_id).pending == ()
        server = ServerSession(DB, registry=SessionRegistry(store=store))
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        assert client.resume_ready
        replies = b"".join(server.receive_bytes(f) for f in client.resume_bytes())
        (result,) = decode_frames(replies)
        assert result.frame_type == FrameType.RESULT
        client.receive_bytes(replies)

    assert client.result == expected_sum(client)
    every = first + chunk_ciphertexts(frames[3])
    assert codec.decode_result(result.payload, KEY_BITS) == multi_exponent(
        every, list(DB.values), nsquare
    )
    conn = sqlite3.connect(store_path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION
    finally:
        conn.close()


# -- the journal commit boundary: one commit per read that folds a block ----

LONG_DB = ServerDatabase([(7 * i + 3) % 251 for i in range(40)], value_bits=8)
LONG_SELECTION = [i % 3 for i in range(40)]  # ten chunks of CHUNK


def long_client(seed):
    return ClientSession(
        LONG_SELECTION,
        key_bits=KEY_BITS,
        chunk_size=CHUNK,
        rng=DeterministicRandom(seed),
    )


def journal_writes(metrics):
    (value,) = [
        snap.value
        for snap in metrics.collect()
        if snap.name == "repro_store_journal_writes_total"
    ]
    return value


def result_payload(replies):
    (frame,) = decode_frames(replies)
    assert frame.frame_type == FrameType.RESULT
    return frame.payload


def uncrashed_result(frames):
    """RESULT bytes of a storeless server fed one frame per read."""
    server = ServerSession(LONG_DB, registry=SessionRegistry())
    return result_payload(b"".join(server.receive_bytes(f) for f in frames))


def test_one_journal_write_per_read_that_folds_a_block():
    metrics = MetricsRegistry()
    client = block_client("commits")
    hello, key, *chunks = list(client.initial_bytes())
    with StateStore(":memory:", metrics=metrics) as store:
        registry = SessionRegistry(store=store)
        server = ServerSession(BLOCK_DB, registry=registry)

        def writes_for(data):
            before = journal_writes(metrics)
            server.receive_bytes(data)
            return journal_writes(metrics) - before

        assert writes_for(hello) == 0  # nothing worth resuming yet
        assert writes_for(key) == 0  # registered in memory only
        assert client.session_id in registry
        assert writes_for(chunks[0][:7]) == 0  # part of a frame
        assert writes_for(chunks[0][7:]) == 0  # rows 0-99: no block
        assert writes_for(chunks[0]) == 0  # duplicate: nothing folded
        assert store.load_session(client.session_id) is None
        assert writes_for(chunks[1] + chunks[2] + chunks[3]) == 1  # block 0
        row = store.load_session(client.session_id)
        assert (row.received, row.chunks_received) == (400, 4)
        assert len(row.pending) == 100  # rows 300-399, of this read
        assert writes_for(chunks[4]) == 0
        assert store.load_session(client.session_id).received == 400
        assert registry.get(client.session_id).received == 500
        assert writes_for(chunks[5]) == 1  # block 1, and the RESULT
        assert server.finished
        assert store.load_session(client.session_id).done


def test_whole_query_in_one_read_commits_once():
    metrics = MetricsRegistry()
    client = long_client("one-read")
    frames = list(client.initial_bytes())
    with StateStore(":memory:", metrics=metrics) as store:
        server = ServerSession(LONG_DB, registry=SessionRegistry(store=store))
        replies = server.receive_bytes(b"".join(frames))
        assert journal_writes(metrics) == 1
        assert store.load_session(client.session_id).done
    assert result_payload(replies) == uncrashed_result(frames)


def test_crash_at_a_read_boundary_resumes_from_the_last_commit(store_path):
    """Reads of three 40-row chunks: the third read completes block 0
    (rows 0-299) and commits, the fourth does not.  A crash after the
    fourth loses its rows; the restarted server ACKs the chunk after
    the third read's, and the client re-sends the rest from its cache."""
    client = block_client("read-crash", chunk_size=40)
    hello, key, *chunks = list(client.initial_bytes())
    reads = [hello + key] + [
        b"".join(chunks[i : i + 3]) for i in range(0, len(chunks), 3)
    ]
    with StateStore(store_path) as store:
        server = ServerSession(BLOCK_DB, registry=SessionRegistry(store=store))
        for data in reads[:5]:  # registration, then four reads of 3 chunks
            assert server.receive_bytes(data) == b""
    # the crash: every in-memory object is gone, only the file remains
    del server

    with StateStore(store_path) as store:
        server = ServerSession(BLOCK_DB, registry=SessionRegistry(store=store))
        reply = server.receive_bytes(client.resume_request())
        (ack,) = decode_frames(reply)
        assert ack.frame_type == FrameType.ACK
        assert codec.decode_ack(ack.payload) == 9
        client.receive_bytes(reply)
        replies = server.receive_bytes(b"".join(client.resume_bytes()))
    uncrashed = ServerSession(BLOCK_DB, registry=SessionRegistry())
    assert result_payload(replies) == result_payload(
        b"".join(uncrashed.receive_bytes(f) for f in [hello, key] + chunks)
    )
    client.receive_bytes(replies)
    assert client.result == BLOCK_DB.select_sum(BLOCK_SELECTION)
    assert client.encryptions == len(BLOCK_SELECTION)
    assert client.chunk_frames_sent == len(chunks) + 6  # chunks 9-14 again


THOUSAND_DB = ServerDatabase([(31 * i + 7) % 65521 for i in range(1000)])
THOUSAND_CLIENT = ClientSession(
    [i % 2 for i in range(1000)],
    key_bits=KEY_BITS,
    chunk_size=8,
    rng=DeterministicRandom("thousand"),
    keypair=BLOCK_KEYPAIR,
)
THOUSAND_FRAMES = list(THOUSAND_CLIENT.initial_bytes())


def journal_writes_of(reads):
    """The journal commits a server makes over ``reads``, and the
    RESULT payload it sends."""
    metrics = MetricsRegistry()
    with StateStore(":memory:", metrics=metrics) as store:
        server = ServerSession(THOUSAND_DB, registry=SessionRegistry(store=store))
        replies = b"".join(server.receive_bytes(data) for data in reads)
        assert server.finished
        return journal_writes(metrics), result_payload(replies)


def test_a_thousand_row_query_commits_once_per_block():
    """n = 1000 at chunk 8 is 125 chunk frames over two 500-row blocks:
    two commits, however the stream is cut into reads."""
    assert len(THOUSAND_DB.fold_plan().starts) == 2
    writes, result = journal_writes_of(THOUSAND_FRAMES)  # a frame per read
    assert writes == 2
    stream = b"".join(THOUSAND_FRAMES)
    rng = random.Random(1000)
    for _ in range(3):
        cuts = sorted(rng.sample(range(1, len(stream)), rng.randrange(1, 200)))
        reads = [
            stream[start:stop]
            for start, stop in zip([0] + cuts, cuts + [len(stream)])
        ]
        assert journal_writes_of(reads) == (2, result)


def plane_buckets(bases, exponents, modulus, window):
    """The digit-plane buckets a v4-v7 server journalled: ``window``-bit
    digits, ``2^window - 1`` slots per plane, planes grown to fit the
    widest exponent."""
    digits = (1 << window) - 1
    width = max(e.bit_length() for e in exponents)
    buckets = [1] * (-(-width // window) * digits)
    for base, exponent in zip(bases, exponents):
        slot = -1
        while exponent:
            digit = exponent & digits
            if digit:
                buckets[slot + digit] = buckets[slot + digit] * base % modulus
            exponent >>= window
            slot += digits
    return buckets


def test_v5_row_with_4bit_buckets_resumes_under_v6(store_path):
    """An in-progress session journalled by a v5 server (4-bit buckets,
    no window column) resumes under the current plane width: the store
    migrates, the row's buckets close into its aggregate, and the RESULT
    is the one an uninterrupted run sends."""
    client = long_client("v5-row")
    hello, key, *chunks = list(client.initial_bytes())
    folded = 3
    cts = [ct for frame in chunks[:folded] for ct in chunk_ciphertexts(frame)]
    nsquare = client.public_key.nsquare
    buckets = plane_buckets(cts, list(LONG_DB.values[: len(cts)]), nsquare, 4)
    assert len(buckets) == 2 * 15  # 8-bit values: two 4-bit planes

    conn = open_store_db(store_path, migrations=MIGRATIONS[:5])
    conn.execute(
        "INSERT INTO sessions (session_id, key_bits, chunk_size, public_n,"
        " aggregate, received, chunks_received, done, touched_at, buckets)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            client.session_id,
            KEY_BITS,
            CHUNK,
            encode_int(client.public_key.n, KEY_BITS // 8),
            b"\x01",
            len(cts),
            folded,
            0,
            1.0,
            encode_int_seq(buckets, 2 * KEY_BITS // 8),
        ),
    )
    conn.commit()
    assert schema_version(conn) == 5
    conn.close()

    with StateStore(store_path) as store:
        row = store.load_session(client.session_id)
        # the buckets are closed into the aggregate as the row is read
        assert row.pending == () and row.aggregate == multi_exponent(
            cts, list(LONG_DB.values[: len(cts)]), nsquare
        )
        server = ServerSession(LONG_DB, registry=SessionRegistry(store=store))
        reply = server.receive_bytes(client.resume_request())
        (ack,) = decode_frames(reply)
        assert ack.frame_type == FrameType.ACK
        assert codec.decode_ack(ack.payload) == folded
        client.receive_bytes(reply)
        replies = server.receive_bytes(b"".join(client.resume_bytes()))
        assert store.load_session(client.session_id).done
    assert result_payload(replies) == uncrashed_result([hello, key] + chunks)
    client.receive_bytes(replies)
    assert client.result == LONG_DB.select_sum(LONG_SELECTION)
    conn = sqlite3.connect(store_path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION
    finally:
        conn.close()


def _table_names(path):
    conn = sqlite3.connect(path)
    try:
        return {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        conn.close()


def insert_bucket_row(store_path, client, folded, window, database=LONG_DB):
    """Journal ``client``'s session after ``folded`` chunks the way a
    v4-v7 server did: ``window``-bit buckets, an aggregate of 1."""
    cts = []
    for frame in list(client.initial_bytes())[2 : 2 + folded]:
        cts.extend(chunk_ciphertexts(frame))
    exponents = list(database.values[: len(cts)])
    buckets = plane_buckets(cts, exponents, client.public_key.nsquare, window)
    conn = sqlite3.connect(store_path)
    try:
        with conn:
            conn.execute(
                "INSERT INTO sessions (session_id, key_bits, chunk_size,"
                " public_n, aggregate, received, chunks_received, done,"
                " touched_at, buckets, plane_window)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    client.session_id,
                    KEY_BITS,
                    client.chunk_size,
                    encode_int(client.public_key.n, KEY_BITS // 8),
                    b"\x01",
                    len(cts),
                    folded,
                    0,
                    1.0,
                    encode_int_seq(buckets, 2 * KEY_BITS // 8),
                    window,
                ),
            )
    finally:
        conn.close()


def test_v6_store_drops_precomputation_caches_and_keeps_data(
    store_path, monkeypatch
):
    """A v6 store holding a fixed-base table row, an obfuscator-pool row,
    an in-progress 5-bit session and a named database opens under the
    current schema: both cache tables are dropped, the session resumes
    to the exact sum and the database loads."""
    import repro.store.state as state_module

    client = long_client("v6-store")
    hello, key, *chunks = list(client.initial_bytes())
    folded = 3
    # the database goes in through the real store code, held at the v6
    # schema; the session row as a v6 server wrote it, 5-bit buckets
    monkeypatch.setattr(
        state_module,
        "open_store_db",
        lambda p: open_store_db(p, migrations=MIGRATIONS[:6]),
    )
    with StateStore(store_path) as store:
        store.save_database("named", LONG_DB)
    monkeypatch.undo()
    insert_bucket_row(store_path, client, folded, 5)
    conn = sqlite3.connect(store_path)
    conn.execute(
        "INSERT INTO fixed_base_tables (fingerprint, label, base, modulus,"
        " exponent_bits, window, entry_width, rows_blob)"
        " VALUES ('ab', 'obfuscator', x'03', x'0b', 4, 2, 1, x'01030905')"
    )
    conn.execute(
        "INSERT INTO zero_pools (fingerprint, public_n, entry_width, count,"
        " pool_blob) VALUES ('ab', x'0b', 1, 2, x'0105')"
    )
    conn.commit()
    assert schema_version(conn) == 6
    conn.close()
    assert {"fixed_base_tables", "zero_pools"} <= _table_names(store_path)

    with StateStore(store_path) as store:
        row = store.load_session(client.session_id)
        assert row.pending == () and not row.done
        assert row.chunks_received == folded
        assert store.load_database("named") == LONG_DB
        server = ServerSession(LONG_DB, registry=SessionRegistry(store=store))
        reply = server.receive_bytes(client.resume_request())
        (ack,) = decode_frames(reply)
        assert codec.decode_ack(ack.payload) == folded
        client.receive_bytes(reply)
        replies = server.receive_bytes(b"".join(client.resume_bytes()))
    assert result_payload(replies) == uncrashed_result([hello, key] + chunks)
    client.receive_bytes(replies)
    assert client.result == LONG_DB.select_sum(LONG_SELECTION)
    assert not {"fixed_base_tables", "zero_pools"} & _table_names(store_path)
    conn = sqlite3.connect(store_path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION == 10
    finally:
        conn.close()


WIDE_DB = ServerDatabase(
    [(2654435761 * i + 12345) % (1 << 32) for i in range(300)]
)
WIDE_SELECTION = [i % 2 for i in range(300)]


def test_v7_row_with_buckets_resumes_mid_block_under_v8(store_path):
    """A session a v7 server journalled after 100 of 300 rows holds
    5-bit buckets.  Under v8 they close into the aggregate, the rest of
    the first fold block (rows 100 up to the block's end) folds with a
    program compiled for that range, and the RESULT is the one an
    uninterrupted server sends: ``prod c_i^(x_i) mod n^2``."""
    client = ClientSession(
        WIDE_SELECTION, key_bits=KEY_BITS, chunk_size=CHUNK,
        rng=DeterministicRandom("v7-row"),
    )
    hello, key, *chunks = list(client.initial_bytes())
    folded = 25  # received = 100: mid-block
    conn = open_store_db(store_path, migrations=MIGRATIONS[:7])
    assert schema_version(conn) == 7
    conn.close()
    insert_bucket_row(store_path, client, folded, 5, database=WIDE_DB)

    with StateStore(store_path) as store:
        row = store.load_session(client.session_id)
        assert (row.received, row.pending) == (100, ())
        server = ServerSession(WIDE_DB, registry=SessionRegistry(store=store))
        reply = server.receive_bytes(client.resume_request())
        (ack,) = decode_frames(reply)
        assert codec.decode_ack(ack.payload) == folded
        client.receive_bytes(reply)
        replies = b"".join(server.receive_bytes(f) for f in client.resume_bytes())

    cts = [ct for frame in chunks for ct in chunk_ciphertexts(frame)]
    nsquare = client.public_key.nsquare
    expected = 1
    for ct, value in zip(cts, WIDE_DB.values):
        expected = expected * pow(ct, value, nsquare) % nsquare
    assert result_payload(replies) == expected.to_bytes(2 * KEY_BITS // 8, "big")
    uncrashed = ServerSession(WIDE_DB, registry=SessionRegistry())
    assert result_payload(replies) == result_payload(
        b"".join(uncrashed.receive_bytes(f) for f in [hello, key] + chunks)
    )
    client.receive_bytes(replies)
    assert client.result == WIDE_DB.select_sum(WIDE_SELECTION)


V8_DB = ServerDatabase(
    [(2654435761 * i + 12345) % (1 << 32) for i in range(600)]
)
V8_SELECTION = [(i % 5) % 2 for i in range(600)]


def test_v8_row_with_pending_block_resumes_under_v9(store_path):
    """A v8 server cut its database into 256-row blocks.  It journalled
    this 600-row session after 340 rows: block 0-255 folded into the
    aggregate, rows 256-339 in the row's pending blob.  Today a block
    boundary falls inside that pending range, so the resumed server
    folds rows 256 up to it with a program compiled for them, journals
    the rest in the row's pending blob, and sends the RESULT an
    uninterrupted server sends: ``prod c_i^(x_i) mod n^2``."""
    boundary = V8_DB.fold_plan().starts[1]
    assert 256 < boundary < 340
    client = ClientSession(
        V8_SELECTION, key_bits=KEY_BITS, chunk_size=20,
        rng=DeterministicRandom("v8-row"),
    )
    hello, key, *chunks = list(client.initial_bytes())
    cts = [ct for frame in chunks for ct in chunk_ciphertexts(frame)]
    nsquare = client.public_key.nsquare
    folded = 17  # received = 340
    conn = open_store_db(store_path, migrations=MIGRATIONS[:8])
    assert schema_version(conn) == 8
    try:
        with conn:
            conn.execute(
                "INSERT INTO sessions (session_id, key_bits, chunk_size,"
                " public_n, aggregate, received, chunks_received, done,"
                " touched_at, pending)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    client.session_id,
                    KEY_BITS,
                    client.chunk_size,
                    encode_int(client.public_key.n, KEY_BITS // 8),
                    encode_int(
                        multi_exponent(cts[:256], V8_DB.values[:256], nsquare),
                        2 * KEY_BITS // 8,
                    ),
                    340,
                    folded,
                    0,
                    1.0,
                    encode_int_seq(cts[256:340], 2 * KEY_BITS // 8),
                ),
            )
    finally:
        conn.close()

    with StateStore(store_path) as store:
        row = store.load_session(client.session_id)
        assert (row.received, row.pending) == (340, tuple(cts[256:340]))
        server = ServerSession(V8_DB, registry=SessionRegistry(store=store))
        reply = server.receive_bytes(client.resume_request())
        (ack,) = decode_frames(reply)
        assert codec.decode_ack(ack.payload) == folded
        client.receive_bytes(reply)
        resumed = list(client.resume_bytes())
        assert server.receive_bytes(resumed[0]) == b""
        # rows 256 up to the boundary folded; the rest are pending
        assert store.load_session(client.session_id).pending == tuple(
            cts[boundary:360]
        )
        assert store._conn.execute(
            "SELECT pending FROM sessions WHERE session_id = ?",
            (client.session_id,),
        ).fetchone() == (encode_int_seq(cts[boundary:360], 2 * KEY_BITS // 8),)
        replies = b"".join(server.receive_bytes(f) for f in resumed[1:])

    expected = 1
    for ct, value in zip(cts, V8_DB.values):
        expected = expected * pow(ct, value, nsquare) % nsquare
    assert result_payload(replies) == expected.to_bytes(2 * KEY_BITS // 8, "big")
    uncrashed = ServerSession(V8_DB, registry=SessionRegistry())
    assert result_payload(replies) == result_payload(
        b"".join(uncrashed.receive_bytes(f) for f in [hello, key] + chunks)
    )
    client.receive_bytes(replies)
    assert client.result == V8_DB.select_sum(V8_SELECTION)


def test_v9_row_with_pending_rows_resumes_under_v10(store_path):
    """A v9 server journalled this 600-row session after 360 rows at
    chunk 20: block 0-299 folded into the aggregate, then one
    append-only ``session_pending`` row per commit for rows 300-319,
    320-339 and 340-359.  Opening the store under v10 moves them into
    the session row and drops the table; the session resumes from chunk
    18 to the RESULT an uninterrupted server sends, and its first v10
    commit writes the session row alone."""
    client = ClientSession(
        V8_SELECTION, key_bits=KEY_BITS, chunk_size=20,
        rng=DeterministicRandom("v9-row"),
    )
    hello, key, *chunks = list(client.initial_bytes())
    cts = [ct for frame in chunks for ct in chunk_ciphertexts(frame)]
    nsquare = client.public_key.nsquare
    width = 2 * KEY_BITS // 8
    assert V8_DB.fold_plan().starts[1] == 300
    conn = open_store_db(store_path, migrations=MIGRATIONS[:9])
    assert schema_version(conn) == 9
    try:
        with conn:
            conn.execute(
                "INSERT INTO sessions (session_id, key_bits, chunk_size,"
                " public_n, aggregate, received, chunks_received, done,"
                " touched_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    client.session_id,
                    KEY_BITS,
                    client.chunk_size,
                    encode_int(client.public_key.n, KEY_BITS // 8),
                    encode_int(
                        multi_exponent(cts[:300], V8_DB.values[:300], nsquare),
                        width,
                    ),
                    360,
                    18,
                    0,
                    1.0,
                ),
            )
            conn.executemany(
                "INSERT INTO session_pending (session_id, first_row, blob)"
                " VALUES (?, ?, ?)",
                [
                    (client.session_id, first, encode_int_seq(cts[first : first + 20], width))
                    for first in (300, 320, 340)
                ],
            )
    finally:
        conn.close()

    with StateStore(store_path) as store:
        assert "session_pending" not in _table_names(store_path)
        row = store.load_session(client.session_id)
        assert (row.received, row.pending) == (360, tuple(cts[300:360]))
        server = ServerSession(V8_DB, registry=SessionRegistry(store=store))
        reply = server.receive_bytes(client.resume_request())
        (ack,) = decode_frames(reply)
        assert codec.decode_ack(ack.payload) == 18
        client.receive_bytes(reply)
        replies = b"".join(server.receive_bytes(f) for f in client.resume_bytes())
        assert store.load_session(client.session_id).done
        assert store._conn.execute(
            "SELECT pending FROM sessions WHERE session_id = ?",
            (client.session_id,),
        ).fetchone() == (None,)
    uncrashed = ServerSession(V8_DB, registry=SessionRegistry())
    assert result_payload(replies) == result_payload(
        b"".join(uncrashed.receive_bytes(f) for f in [hello, key] + chunks)
    )
    client.receive_bytes(replies)
    assert client.result == V8_DB.select_sum(V8_SELECTION)
    assert client.encryptions == len(V8_SELECTION)
    conn = sqlite3.connect(store_path)
    try:
        assert schema_version(conn) == SCHEMA_VERSION == 10
    finally:
        conn.close()


def test_corrupt_frame_after_valid_chunks_leaves_no_trace():
    metrics = MetricsRegistry()
    client = block_client("corrupt")
    hello, key, *chunks = list(client.initial_bytes())
    corrupt = bytearray(chunks[5])
    corrupt[-1] ^= 0xFF  # payload no longer matches the frame CRC
    with StateStore(":memory:", metrics=metrics) as store:
        registry = SessionRegistry(store=store)
        server = ServerSession(BLOCK_DB, registry=registry)
        server.receive_bytes(hello + key + b"".join(chunks[:3]))  # block 0
        assert store.load_session(client.session_id) is not None
        before = journal_writes(metrics)
        reply = server.receive_bytes(chunks[3] + chunks[4] + bytes(corrupt))
        assert server.errored
        assert [f.frame_type for f in decode_frames(reply)] == [FrameType.ERROR]
        assert journal_writes(metrics) == before
        assert store.load_session(client.session_id) is None
        assert client.session_id not in registry
        assert registry.get(client.session_id) is None


SPLIT_CLIENT = long_client("splits")
SPLIT_FRAMES = list(SPLIT_CLIENT.initial_bytes())
SPLIT_RESULT = uncrashed_result(SPLIT_FRAMES)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_any_split_into_reads_gives_the_same_result(data):
    stream = b"".join(SPLIT_FRAMES)
    cuts = sorted(
        data.draw(
            st.sets(st.integers(min_value=1, max_value=len(stream) - 1), max_size=12)
        )
    )
    with StateStore(":memory:") as store:
        server = ServerSession(LONG_DB, registry=SessionRegistry(store=store))
        replies = b""
        for start, stop in zip([0] + cuts, cuts + [len(stream)]):
            replies += server.receive_bytes(stream[start:stop])
            row = store.load_session(SPLIT_CLIENT.session_id)
            # one block: the only commit is the read with the RESULT
            if stop < len(stream):
                assert row is None
            else:
                assert row.done
    assert result_payload(replies) == SPLIT_RESULT


@functools.lru_cache(maxsize=None)
def block_stream(chunk_size):
    """A 600-row client stream: two fold blocks, each wider than 256
    rows."""
    client = ClientSession(
        BLOCK_SELECTION,
        key_bits=KEY_BITS,
        chunk_size=chunk_size,
        rng=DeterministicRandom("block-%d" % chunk_size),
        keypair=BLOCK_KEYPAIR,
    )
    return client.session_id, b"".join(client.initial_bytes())


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_journal_holds_the_last_block_boundary_record_after_every_read(data):
    """Whatever the chunk size and however the stream is split into
    reads, after each read the journal row equals the registry's record
    as of the last read that folded a block (the row's write stamp
    aside), or there is no row before the first such read; and the
    RESULT is the exact sum."""
    assert BLOCK_DB.fold_plan().starts[1] > 256  # the first block is wide
    chunk_size = data.draw(st.integers(min_value=1, max_value=len(BLOCK_DB)))
    session_id, stream = block_stream(chunk_size)
    cuts = sorted(
        data.draw(
            st.sets(st.integers(min_value=1, max_value=len(stream) - 1), max_size=12)
        )
    )
    with StateStore(":memory:") as store:
        registry = SessionRegistry(store=store)
        server = ServerSession(BLOCK_DB, registry=registry)
        replies = b""
        journalled, folded_rows, received = None, 0, 0
        for start, stop in zip([0] + cuts, cuts + [len(stream)]):
            replies += server.receive_bytes(stream[start:stop])
            record = registry.get(session_id)
            if record is not None:
                first = record.received - len(record.pending)
                if first > folded_rows:  # this read folded a block
                    journalled, folded_rows = record, first
                    # its pending rows are all rows of this read
                    assert len(record.pending) <= record.received - received
                received = record.received
            row = store.load_session(session_id)
            if journalled is None:
                assert row is None
            else:
                assert dataclasses.replace(row, touched_at=0.0) == journalled
    assert journalled.done
    ciphertext = codec.decode_result(result_payload(replies), KEY_BITS)
    assert BLOCK_KEYPAIR.private.raw_decrypt(ciphertext) == BLOCK_DB.select_sum(
        BLOCK_SELECTION
    )


@functools.lru_cache(maxsize=None)
def crash_client_frames(chunk_size):
    """The frames of the seeded :data:`BLOCK_DB` client at
    ``chunk_size``, and the RESULT payload an uninterrupted storeless
    server sends for them."""
    frames = list(block_client("crash-%d" % chunk_size, chunk_size).initial_bytes())
    server = ServerSession(BLOCK_DB, registry=SessionRegistry())
    uncrashed = result_payload(b"".join(server.receive_bytes(f) for f in frames))
    return frames, uncrashed


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_a_crash_after_any_read_resumes_to_the_uncrashed_result(data):
    """Any chunk size, any split into reads, a process crash after any
    read (the last included, whose RESULT then never leaves): a restarted
    server over the same file ACKs the chunk after its last journalled
    one, or RESUME_UNKNOWN when no read folded a block yet.  The client
    re-sends the rest from its cache, and the RESULT bytes are those of
    an uninterrupted run, with one encryption per row."""
    chunk_size = data.draw(st.sampled_from([1, 7, 64, 100, 299, 300, 600]))
    frames, uncrashed = crash_client_frames(chunk_size)
    client = block_client("crash-%d" % chunk_size, chunk_size)
    assert list(client.initial_bytes()) == frames  # the same, re-drawn
    stream = b"".join(frames)
    cuts = sorted(
        data.draw(
            st.sets(st.integers(min_value=1, max_value=len(stream) - 1), max_size=10)
        )
    )
    reads = [
        stream[start:stop] for start, stop in zip([0] + cuts, cuts + [len(stream)])
    ]
    crash_after = data.draw(st.integers(min_value=0, max_value=len(reads) - 1))
    chunk_ends = []  # stream offset at which each chunk frame is complete
    offset = len(frames[0]) + len(frames[1])
    for frame in frames[2:]:
        offset += len(frame)
        chunk_ends.append(offset)
    block_ends = [end for _, end in BLOCK_DB.fold_plan().bounds()]

    # the ACK the policy predicts: the chunks complete at the last read
    # whose complete rows crossed a block end
    expected_ack, folded, stop = codec.RESUME_UNKNOWN, 0, 0
    for data_read in reads[: crash_after + 1]:
        stop += len(data_read)
        complete = sum(end <= stop for end in chunk_ends)
        rows = min(complete * chunk_size, len(BLOCK_DB))
        blocks = sum(end <= rows for end in block_ends)
        if blocks > folded:
            expected_ack, folded = complete, blocks

    with tempfile.TemporaryDirectory() as state_dir:
        with StateStore.open(state_dir) as store:
            server = ServerSession(BLOCK_DB, registry=SessionRegistry(store=store))
            for data_read in reads[: crash_after + 1]:
                reply = server.receive_bytes(data_read)
        # the crash: the reply in hand is never sent, and nothing but
        # the file survives
        del server, reply

        with StateStore.open(state_dir) as store:
            server = ServerSession(BLOCK_DB, registry=SessionRegistry(store=store))
            replies = server.receive_bytes(client.resume_request())
            ack = decode_frames(replies)[0]
            assert codec.decode_ack(ack.payload) == expected_ack
            client.receive_bytes(replies)
            if client.result is None:
                resent = server.receive_bytes(b"".join(client.resume_bytes()))
                replies += resent
                client.receive_bytes(resent)
    (result,) = [f for f in decode_frames(replies) if f.frame_type == FrameType.RESULT]
    assert result.payload == uncrashed
    assert client.result == BLOCK_DB.select_sum(BLOCK_SELECTION)
    assert client.encryptions == len(BLOCK_SELECTION)


class HeldStore(StateStore):
    """A store whose upsert for one session blocks until released."""

    def __init__(self, held_id):
        super().__init__(":memory:")
        self.held_id = held_id
        self.held = threading.Event()  # the held upsert has started
        self.release = threading.Event()
        self.deleted = threading.Event()  # the held id's row was deleted

    def save_session(self, record):
        if record.session_id == self.held_id:
            self.held.set()
            assert self.release.wait(10.0)
        super().save_session(record)

    def delete_session(self, session_id):
        super().delete_session(session_id)
        if session_id == self.held_id:
            self.deleted.set()


def test_delayed_journal_write_cannot_revive_an_evicted_session():
    """B's upsert stalls; A's save evicts B (capacity 1) meanwhile.  The
    store must apply B's upsert before A's delete of it, as memory did,
    so B stays unknown — before and after a restart."""
    a, b = make_client("race-a"), make_client("race-b")
    with HeldStore(b.session_id) as store:
        registry = SessionRegistry(capacity=1, store=store)

        def save(client):
            # the whole query in one read: one commit, with the RESULT
            server = ServerSession(DB, registry=registry)
            server.receive_bytes(b"".join(client.initial_bytes()))

        saving_b = threading.Thread(target=save, args=(b,))
        saving_b.start()
        assert store.held.wait(10.0)
        saving_a = threading.Thread(target=save, args=(a,))
        saving_a.start()
        # Unfixed, A's delete of B's row lands at once and B's stalled
        # upsert then writes it back; fixed, the delete waits its turn.
        store.deleted.wait(0.5)
        store.release.set()
        saving_b.join(10.0)
        saving_a.join(10.0)
        assert not saving_a.is_alive() and not saving_b.is_alive()

        assert registry.evictions == 1
        assert b.session_id not in registry
        assert store.load_session(b.session_id) is None
        assert registry.get(b.session_id) is None
        assert SessionRegistry(store=store).get(b.session_id) is None
        assert store.load_session(a.session_id) is not None


def test_concurrent_saves_keep_journal_and_memory_in_step():
    """Threads saving and evicting through a tiny registry: afterwards a
    journal row exists exactly for the sessions still in memory."""
    ids = [bytes([i]) * 16 for i in range(6)]
    public_n = make_client("stress").public_key.n
    records = {
        session_id: SessionRecord(
            session_id=session_id, key_bits=KEY_BITS, chunk_size=CHUNK,
            public_n=public_n, aggregate=1, received=0, chunks_received=0,
            done=False,
        )
        for session_id in ids
    }
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with StateStore(":memory:") as store:
            registry = SessionRegistry(capacity=2, store=store)

            def churn(offset):
                for step in range(150):
                    session_id = ids[(offset + step) % len(ids)]
                    if step % 7 == 3:
                        registry.discard(session_id)
                    else:
                        registry.save(session_id, records[session_id])

            workers = [
                threading.Thread(target=churn, args=(i,)) for i in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
            assert not any(worker.is_alive() for worker in workers)
            for session_id in ids:
                in_journal = store.load_session(session_id) is not None
                assert in_journal == (session_id in registry), session_id
    finally:
        sys.setswitchinterval(switch)
