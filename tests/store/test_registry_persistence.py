"""`SessionRegistry` + `StateStore`: the journal survives restarts,
eviction survives them too.

The invariants under test: after a process restart, a journalled
session resumes exactly where it stopped, and an *evicted* session
answers ``RESUME_UNKNOWN`` — never a stale snapshot from before the
eviction.  The journal commits once per ``ServerSession.receive_bytes``
call that made progress (group commit at the read boundary), so a crash
loses at most one read of chunks and never changes the RESULT.
"""

import sqlite3
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.multiexp import multi_exponent
from repro.crypto.rng import DeterministicRandom
from repro.crypto.serialization import encode_int
from repro.datastore.database import ServerDatabase
from repro.net import codec
from repro.net.codec import FrameDecoder, FrameType
from repro.obs.registry import MetricsRegistry
from repro.spfe.session import ClientSession, ServerSession, SessionRegistry
from repro.store.db import MIGRATIONS, open_store_db, schema_version
from repro.store.state import SessionRecord, StateStore

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


# -- the journal commit boundary: one commit per read that made progress ----

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


def test_one_journal_write_per_read_that_made_progress():
    metrics = MetricsRegistry()
    client = long_client("commits")
    hello, key, *chunks = list(client.initial_bytes())
    with StateStore(":memory:", metrics=metrics) as store:
        server = ServerSession(LONG_DB, registry=SessionRegistry(store=store))

        def writes_for(data):
            before = journal_writes(metrics)
            server.receive_bytes(data)
            return journal_writes(metrics) - before

        assert writes_for(hello) == 0  # nothing worth resuming yet
        assert writes_for(key) == 1  # registration
        assert writes_for(chunks[0][:7]) == 0  # part of a frame
        assert writes_for(chunks[0][7:]) == 1
        assert writes_for(chunks[0]) == 0  # duplicate: nothing folded
        assert writes_for(b"".join(chunks[1:5])) == 1  # four chunks, one commit
        assert store.load_session(client.session_id).chunks_received == 5
        assert writes_for(b"".join(chunks[5:])) == 1  # ...and the RESULT
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
    client = long_client("read-crash")
    hello, key, *chunks = list(client.initial_bytes())
    reads = [hello + key] + [
        b"".join(chunks[i : i + 3]) for i in range(0, len(chunks), 3)
    ]
    with StateStore(store_path) as store:
        server = ServerSession(LONG_DB, registry=SessionRegistry(store=store))
        for data in reads[:3]:  # registration, then two reads of 3 chunks
            assert server.receive_bytes(data) == b""
    # the crash: every in-memory object is gone, only the file remains
    del server

    with StateStore(store_path) as store:
        server = ServerSession(LONG_DB, registry=SessionRegistry(store=store))
        reply = server.receive_bytes(client.resume_request())
        (ack,) = decode_frames(reply)
        assert ack.frame_type == FrameType.ACK
        assert codec.decode_ack(ack.payload) == 6
        client.receive_bytes(reply)
        replies = server.receive_bytes(b"".join(client.resume_bytes()))
    assert result_payload(replies) == uncrashed_result([hello, key] + chunks)
    client.receive_bytes(replies)
    assert client.result == LONG_DB.select_sum(LONG_SELECTION)
    assert client.encryptions == len(LONG_SELECTION)


def test_corrupt_frame_after_valid_chunks_leaves_no_trace():
    metrics = MetricsRegistry()
    client = long_client("corrupt")
    hello, key, *chunks = list(client.initial_bytes())
    corrupt = bytearray(chunks[2])
    corrupt[-1] ^= 0xFF  # payload no longer matches the frame CRC
    with StateStore(":memory:", metrics=metrics) as store:
        registry = SessionRegistry(store=store)
        server = ServerSession(LONG_DB, registry=registry)
        server.receive_bytes(hello + key)
        assert store.load_session(client.session_id) is not None
        before = journal_writes(metrics)
        reply = server.receive_bytes(chunks[0] + chunks[1] + bytes(corrupt))
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
    ends = []  # stream offset at which each frame is complete
    for frame in SPLIT_FRAMES:
        ends.append((ends[-1] if ends else 0) + len(frame))
    key_end, chunk_ends = ends[1], ends[2:]

    with StateStore(":memory:") as store:
        server = ServerSession(LONG_DB, registry=SessionRegistry(store=store))
        replies = b""
        for start, stop in zip([0] + cuts, cuts + [len(stream)]):
            replies += server.receive_bytes(stream[start:stop])
            row = store.load_session(SPLIT_CLIENT.session_id)
            if stop < key_end:
                assert row is None
            else:
                assert row.chunks_received == sum(e <= stop for e in chunk_ends)
    assert result_payload(replies) == SPLIT_RESULT


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
            server = ServerSession(DB, registry=registry)
            hello, key = list(client.initial_bytes())[:2]
            server.receive_bytes(hello + key)

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
    state = SessionRegistry._state_from_record(
        SessionRecord(
            session_id=ids[0], key_bits=KEY_BITS, chunk_size=CHUNK,
            public_n=make_client("stress").public_key.n, aggregate=1,
            received=0, chunks_received=0, done=False, buckets=(),
        )
    )
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
                        registry.save(session_id, state)

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
