"""`SessionRegistry` + `StateStore`: the journal survives restarts,
eviction survives them too.

The invariant under test (satellite of the durability PR): after a
process restart, a journalled session resumes exactly where it stopped,
and an *evicted* session answers ``RESUME_UNKNOWN`` — never a stale
snapshot from before the eviction.
"""

import sqlite3

import pytest

from repro.crypto.multiexp import multi_exponent
from repro.crypto.rng import DeterministicRandom
from repro.crypto.serialization import encode_int
from repro.datastore.database import ServerDatabase
from repro.net import codec
from repro.net.codec import FrameDecoder, FrameType
from repro.spfe.session import ClientSession, ServerSession, SessionRegistry
from repro.store.db import MIGRATIONS, open_store_db, schema_version
from repro.store.state import StateStore

KEY_BITS = 128
CHUNK = 4
DB = ServerDatabase([5, 0, 7, 1, 9, 2, 0, 3], value_bits=8)


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

        # A registers (HELLO + KEY), then B's registration evicts A.
        feed(ServerSession(DB, registry=registry), a, frames_a[:2])
        assert store.session_count() == 1
        feed(ServerSession(DB, registry=registry), b, frames_b[:2])
        assert registry.evictions == 1
        assert store.session_count() == 1
        assert store.load_session(a.session_id) is None
        assert store.load_session(b.session_id) is not None


def test_restarted_registry_recovers_from_journal(store_path):
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        client = make_client("recover")
        frames = list(client.initial_bytes())
        # HELLO + KEY + first chunk: mid-protocol state in the journal
        feed(ServerSession(DB, registry=registry), client, frames[:3])

    # the process "restarts": nothing survives but the file
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        assert len(registry) == 0
        state = registry.get(client.session_id)
        assert state is not None
        assert state.chunks_received == 1
        assert state.received == CHUNK
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


def test_discard_deletes_the_journal_row(store_path):
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        client = make_client("discard")
        feed(
            ServerSession(DB, registry=registry),
            client,
            list(client.initial_bytes())[:2],
        )
        assert store.load_session(client.session_id) is not None
        registry.discard(client.session_id)
        assert store.load_session(client.session_id) is None
        registry.discard(client.session_id)  # idempotent


def test_protocol_violation_clears_the_journal(store_path):
    """A rejected peer must restart, not resume — even across restarts."""
    with StateStore(store_path) as store:
        registry = SessionRegistry(capacity=4, store=store)
        client = make_client("violator")
        frames = list(client.initial_bytes())
        server = ServerSession(DB, registry=registry)
        feed(server, client, frames[:2])
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
        assert store.load_session(client.session_id).buckets is None
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
        assert schema_version(conn) == 4
    finally:
        conn.close()
