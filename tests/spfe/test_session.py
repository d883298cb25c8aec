"""Tests for the deployable byte-stream sessions (incl. real sockets)."""

import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import PaillierPublicKey, generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.crypto.scheme import SchemeKeyPair
from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import (
    KeyMismatchError,
    ProtocolError,
    SessionResumeError,
    ValidationError,
)
from repro.net import codec
from repro.net.codec import FrameType
from repro.spfe.session import (
    ClientSession,
    ServerSession,
    SessionRegistry,
    run_sessions_in_memory,
)


@pytest.fixture(scope="module")
def workload_bytes():
    generator = WorkloadGenerator("session-tests")
    database = generator.database(60, value_bits=16)
    selection = generator.random_selection(60, 15)
    return database, selection


def make_client(selection, **kwargs):
    kwargs.setdefault("key_bits", 128)
    kwargs.setdefault("rng", DeterministicRandom("client"))
    return ClientSession(selection, **kwargs)


def chunk_ciphertexts(frames, key_bits=128):
    """Every ciphertext carried by the ENC_CHUNK frames of a client stream."""
    decoder = codec.FrameDecoder()
    decoder.feed(b"".join(frames))
    return [
        ct
        for frame in decoder.frames()
        if frame.frame_type == FrameType.ENC_CHUNK
        for ct in codec.decode_ciphertext_chunk(frame.payload, key_bits)
    ]


class TestInMemory:
    def test_correct_sum(self, workload_bytes):
        database, selection = workload_bytes
        value = run_sessions_in_memory(make_client(selection), ServerSession(database))
        assert value == database.select_sum(selection)

    def test_chunk_sizes_irrelevant(self, workload_bytes):
        database, selection = workload_bytes
        values = {
            run_sessions_in_memory(
                make_client(selection, chunk_size=size), ServerSession(database)
            )
            for size in (1, 7, 60, 1000)
        }
        assert values == {database.select_sum(selection)}

    @pytest.mark.parametrize("chunk_size", [1, 7, 60])
    def test_result_matches_per_chunk_multiexp_fold(self, workload_bytes, chunk_size):
        """The RESULT ciphertext for fixed frames is bit-identical to the
        one a fold of one multi_exponent call per chunk produces."""
        from repro.crypto.multiexp import multi_exponent

        database, selection = workload_bytes
        client = make_client(selection, chunk_size=chunk_size)
        server = ServerSession(database)
        frames = list(client.initial_bytes())
        replies = b"".join(server.receive_bytes(f) for f in frames)
        decoder = codec.FrameDecoder()
        decoder.feed(replies)
        (frame,) = decoder.frames()
        assert frame.frame_type == FrameType.RESULT

        n, nsquare = client.public_key.n, client.public_key.nsquare
        per_chunk = 1
        log = chunk_ciphertexts(frames)
        assert len(log) == len(database)
        for start in range(0, len(log), chunk_size):
            pairs = [
                (ct, database[i] % n)
                for i, ct in enumerate(log[start : start + chunk_size], start)
                if database[i]
            ]
            if pairs:
                per_chunk = multi_exponent(
                    [ct for ct, _ in pairs], [w for _, w in pairs],
                    nsquare, initial=per_chunk,
                )
        assert codec.decode_result(frame.payload, 128) == per_chunk
        client.receive_bytes(replies)
        assert client.result == database.select_sum(selection)

    def test_byte_accounting_symmetric(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)
        run_sessions_in_memory(client, server)
        assert client.bytes_sent == server.bytes_received
        assert server.bytes_sent == client.bytes_received

    def test_server_sees_only_ciphertexts(self, workload_bytes):
        """Transcript audit at the byte level: every value the server
        receives is a full-size element of Z*_{n^2}, never a small
        plaintext."""
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)
        frames = list(client.initial_bytes())
        for frame in frames:
            reply = server.receive_bytes(frame)
        client.receive_bytes(reply)
        assert client.result == database.select_sum(selection)
        assert server.bytes_received == sum(len(f) for f in frames)
        log = chunk_ciphertexts(frames)
        assert len(log) == len(database)
        assert all(ct > 2**64 for ct in log)
        assert len(set(log)) == len(database)  # no reuse

    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_random_workloads(self, data):
        n = data.draw(st.integers(1, 40))
        values = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        database = ServerDatabase(values, value_bits=10)
        client = ClientSession(
            bits, key_bits=128, chunk_size=5,
            rng=DeterministicRandom(repr(values)),
        )
        value = run_sessions_in_memory(client, ServerSession(database))
        assert value == database.select_sum(bits)


class TestOverRealSockets:
    def test_socketpair_with_fragmented_reads(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=9)
        server = ServerSession(database)
        a, b = socket.socketpair()
        try:
            for outgoing in client.initial_bytes():
                a.sendall(outgoing)
            a.shutdown(socket.SHUT_WR)
            while not server.finished:
                data = b.recv(251)  # odd size: frames split across reads
                if not data:
                    break
                reply = server.receive_bytes(data)
                if reply:
                    b.sendall(reply)
            while client.result is None:
                client.receive_bytes(a.recv(11))
        finally:
            a.close()
            b.close()
        assert client.result == database.select_sum(selection)


class TestClientEncryption:
    """The client encrypts through its own private key, byte-identically."""

    def test_chunk_frames_match_public_key_encryption(self):
        keypair = generate_keypair(128, "frames-key")
        selection = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        client = ClientSession(
            selection, key_bits=128, chunk_size=4,
            rng=DeterministicRandom("frames"), keypair=keypair,
        )
        frames = list(client.initial_bytes())
        reference_rng = DeterministicRandom("frames")
        assert reference_rng.randbytes(codec.SESSION_ID_BYTES) == client.session_id
        expected = [
            codec.encode_ciphertext_chunk(
                [
                    keypair.public.encrypt_raw(w, reference_rng)
                    for w in selection[start : start + 4]
                ],
                128,
                index,
            )
            for index, start in enumerate(range(0, len(selection), 4))
        ]
        assert frames[2:] == expected

    def test_client_path_never_calls_public_key_encrypt(
        self, workload_bytes, monkeypatch
    ):
        def refuse(*_args, **_kwargs):
            raise AssertionError("client encrypted through the public key")

        monkeypatch.setattr(PaillierPublicKey, "encrypt_raw", refuse)
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=7)
        value = run_sessions_in_memory(client, ServerSession(database))
        assert value == database.select_sum(selection)
        assert client.encryptions == len(selection)


class TestValidationAndErrors:
    def test_client_validates_inputs(self):
        with pytest.raises(ProtocolError):
            ClientSession([])
        with pytest.raises(ProtocolError):
            ClientSession([1, -1])
        with pytest.raises(ProtocolError):
            ClientSession([1], chunk_size=0)

    @pytest.mark.parametrize("key_bits", [128, 1024])
    def test_client_rejects_keypair_that_does_not_fit_key_bits(self, key_bits):
        """A 256-bit key under key_bits=128 used to overflow the chunk
        frames mid-stream; under 1024 it announced 4x-oversized frames."""
        keypair = generate_keypair(256, "k")
        with pytest.raises(ValidationError):
            ClientSession([1, 0, 1], key_bits=key_bits, keypair=keypair)

    def test_client_rejects_mismatched_keypair(self):
        mixed = SchemeKeyPair(
            generate_keypair(128, "public-half").public,
            generate_keypair(128, "private-half").private,
        )
        with pytest.raises(KeyMismatchError):
            ClientSession([1, 0, 1], key_bits=128, keypair=mixed)

    def test_client_accepts_one_bit_short_key(self):
        """generate_keypair(512) returns a 511-bit modulus about half the
        time; such a key still fits key_bits=512."""
        keypair = generate_keypair(512, "odd-2")
        assert keypair.public.bits == 511
        client = ClientSession(
            [1, 0, 1], key_bits=512, rng=DeterministicRandom("short"),
            keypair=keypair,
        )
        database = ServerDatabase([5, 6, 7])
        assert run_sessions_in_memory(client, ServerSession(database)) == 12

    def test_server_rejects_wrong_database_size(self, workload_bytes):
        database, _ = workload_bytes
        client = make_client([1, 0, 1])  # claims n=3; server has 60
        server = ServerSession(database)
        reply = server.receive_bytes(next(client.initial_bytes()))
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        frame = next(decoder.frames())
        assert frame.frame_type == FrameType.ERROR
        with pytest.raises(ProtocolError):
            client.receive_bytes(reply)

    def test_server_rejects_tiny_keys(self):
        database = ServerDatabase([2**32 - 1] * 10)
        client = ClientSession(
            [1] * 10, key_bits=32, rng=DeterministicRandom("tiny")
        )
        server = ServerSession(database)
        reply = server.receive_bytes(next(client.initial_bytes()))
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        assert next(decoder.frames()).frame_type == FrameType.ERROR

    def test_server_rejects_out_of_range_ciphertext(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)
        stream = list(client.initial_bytes())
        server.receive_bytes(stream[0])  # hello
        server.receive_bytes(stream[1])  # public key
        # Forge a chunk with a zero "ciphertext" (not in Z*_{n^2}).
        forged = codec.encode_ciphertext_chunk([0], 128)
        reply = server.receive_bytes(forged)
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        assert next(decoder.frames()).frame_type == FrameType.ERROR

    def test_server_rejects_overdelivery(self):
        database = ServerDatabase([5, 6])
        client = ClientSession([1, 1], key_bits=128,
                               rng=DeterministicRandom("over"))
        server = ServerSession(database)
        stream = list(client.initial_bytes())
        for data in stream:
            server.receive_bytes(data)
        assert server.finished
        extra = codec.encode_ciphertext_chunk([12345], 128)
        reply = server.receive_bytes(extra)
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        assert next(decoder.frames()).frame_type == FrameType.ERROR

    def test_client_rejects_duplicate_result(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)
        result_bytes = b""
        for outgoing in client.initial_bytes():
            reply = server.receive_bytes(outgoing)
            if reply:
                result_bytes = reply
                client.receive_bytes(reply)
        assert client.result is not None
        with pytest.raises(ProtocolError):
            client.receive_bytes(result_bytes)

    def test_client_rejects_unexpected_frame(self, workload_bytes):
        _, selection = workload_bytes
        client = make_client(selection)
        bogus = codec.encode_hello(128, 10, 5)
        with pytest.raises(ProtocolError):
            client.receive_bytes(bogus)

    def test_client_rejects_unsolicited_ack(self, workload_bytes):
        _, selection = workload_bytes
        client = make_client(selection)
        with pytest.raises(ProtocolError):
            client.receive_bytes(codec.encode_ack(3))


def drive(client_stream, server, client):
    """Feed client frames to the server, relaying replies back."""
    for outgoing in client_stream:
        reply = server.receive_bytes(outgoing)
        if reply:
            client.receive_bytes(reply)


class TestResume:
    def test_resume_after_partial_stream(self, workload_bytes):
        """A client cut off after k chunks re-sends exactly the rest —
        no re-encryption, and the sum is still correct."""
        database, selection = workload_bytes
        expected = database.select_sum(selection)
        registry = SessionRegistry()
        client = make_client(selection, chunk_size=9)  # 7 chunks over n=60

        server1 = ServerSession(database, registry=registry)
        stream = client.initial_bytes()
        server1.receive_bytes(next(stream))  # HELLO
        server1.receive_bytes(next(stream))  # PUBLIC_KEY
        for _ in range(3):  # 3 of 7 chunks, then the connection "dies"
            server1.receive_bytes(next(stream))
        stream.close()
        encryptions_at_cut = client.encryptions
        assert encryptions_at_cut == 3 * 9

        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        assert client.resume_ready
        sent_before = client.chunk_frames_sent
        drive(client.resume_bytes(), server2, client)

        assert client.result == expected
        assert client.chunk_frames_sent - sent_before == 7 - 3
        assert server2.chunk_frames_processed == 7 - 3
        assert client.encryptions == len(selection)  # never re-encrypted

    def test_resume_unknown_session_restarts_cleanly(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=9)
        for data in client.initial_bytes():
            pass  # encrypt everything; the "connection" delivered nothing
        server = ServerSession(database, registry=SessionRegistry())
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        assert client.resume_ready
        drive(client.resume_bytes(), server, client)
        assert client.result == database.select_sum(selection)
        # The restart reused the cached ciphertexts: still one encryption
        # per element, even though every chunk crossed the wire twice.
        assert client.encryptions == len(selection)

    def test_resume_after_result_lost_resends_result(self, workload_bytes):
        database, selection = workload_bytes
        registry = SessionRegistry()
        client = make_client(selection)
        server1 = ServerSession(database, registry=registry)
        for outgoing in client.initial_bytes():
            server1.receive_bytes(outgoing)  # final reply (RESULT) is lost
        assert server1.finished and client.result is None

        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        assert client.result == database.select_sum(selection)

    def test_eviction_degrades_to_restart(self, workload_bytes):
        database, selection = workload_bytes
        registry = SessionRegistry(capacity=1)
        client = make_client(selection, chunk_size=9)
        server1 = ServerSession(database, registry=registry)
        stream = client.initial_bytes()
        for _ in range(4):  # hello, pk, 2 chunks
            server1.receive_bytes(next(stream))
        stream.close()
        # Another session pushes ours out of the capacity-1 registry.
        other = make_client([1] * 60, rng=DeterministicRandom("other"))
        run_sessions_in_memory(other, ServerSession(database, registry=registry))
        assert registry.evictions >= 1
        assert client.session_id not in registry

        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        drive(client.resume_bytes(), server2, client)
        assert client.result == database.select_sum(selection)

    def test_duplicate_chunks_are_ignored(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=9)
        server = ServerSession(database, registry=SessionRegistry())
        frames = list(client.initial_bytes())
        server.receive_bytes(frames[0])
        server.receive_bytes(frames[1])
        server.receive_bytes(frames[2])  # chunk 0
        assert server.receive_bytes(frames[2]) == b""  # duplicate: no-op
        assert not server.errored
        for data in frames[3:]:
            reply = server.receive_bytes(data)
            if reply:
                client.receive_bytes(reply)
        assert client.result == database.select_sum(selection)
        assert server.chunk_frames_processed == len(frames) - 2

    def test_chunk_sequence_gap_is_rejected(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=9)
        server = ServerSession(database)
        frames = list(client.initial_bytes())
        server.receive_bytes(frames[0])
        server.receive_bytes(frames[1])
        reply = server.receive_bytes(frames[3])  # chunk 1 before chunk 0
        assert server.errored
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        assert next(decoder.frames()).frame_type == FrameType.ERROR

    def test_v1_wire_cannot_resume(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, wire_version=1)
        assert client.session_id is None
        with pytest.raises(SessionResumeError):
            client.resume_request()
        # ...but the legacy wire still completes against a v2 server.
        value = run_sessions_in_memory(client, ServerSession(database))
        assert value == database.select_sum(selection)

    def test_resume_without_registry_says_unknown(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)  # no registry at all
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        drive(client.resume_bytes(), server, client)
        assert client.result == database.select_sum(selection)

    def test_registry_lru_and_discard(self):
        registry = SessionRegistry(capacity=2)
        a, b, c = b"a" * 16, b"b" * 16, b"c" * 16
        registry.save(a, "A")
        registry.save(b, "B")
        registry.get(a)  # touch a so b is the LRU
        registry.save(c, "C")
        assert a in registry and c in registry and b not in registry
        registry.discard(a)
        assert len(registry) == 1
        with pytest.raises(Exception):
            SessionRegistry(capacity=0)


class _FakeState:
    """Stand-in resume state with an explicit byte footprint."""

    def __init__(self, resident_bytes):
        self.resident_bytes = resident_bytes


class TestRegistryByteBudget:
    def test_byte_budget_evicts_lru(self):
        registry = SessionRegistry(capacity=100, max_bytes=1000)
        a, b, c = b"a" * 16, b"b" * 16, b"c" * 16
        registry.save(a, _FakeState(400))
        registry.save(b, _FakeState(400))
        assert registry.resident_bytes == 800
        registry.save(c, _FakeState(400))  # 1200 > 1000: evict LRU (a)
        assert a not in registry
        assert b in registry and c in registry
        assert registry.resident_bytes == 800
        assert registry.evictions == 1

    def test_single_oversized_state_is_kept(self):
        # The newest session is never evicted on its own account.
        registry = SessionRegistry(capacity=10, max_bytes=100)
        big = b"x" * 16
        registry.save(big, _FakeState(5000))
        assert big in registry
        assert registry.resident_bytes == 5000

    def test_refresh_does_not_double_count(self):
        registry = SessionRegistry(capacity=10, max_bytes=10_000)
        sid = b"s" * 16
        state = _FakeState(300)
        for _ in range(5):
            registry.save(sid, state)
        assert registry.resident_bytes == 300

    def test_discard_releases_bytes(self):
        registry = SessionRegistry(capacity=10, max_bytes=10_000)
        sid = b"s" * 16
        registry.save(sid, _FakeState(300))
        registry.discard(sid)
        assert registry.resident_bytes == 0

    def test_real_sessions_account_bytes(self, workload_bytes):
        database, selection = workload_bytes
        registry = SessionRegistry(capacity=8, max_bytes=1 << 20)
        run_sessions_in_memory(
            make_client(selection), ServerSession(database, registry=registry)
        )
        from repro.spfe.validation import resume_state_bytes

        assert registry.resident_bytes == resume_state_bytes(128)

    def test_in_progress_sessions_account_their_buckets(self, workload_bytes):
        """Buckets cost registry bytes while a session is in progress
        and are released once they collapse into the aggregate."""
        from repro.crypto.multiexp import PLANE_DIGITS
        from repro.spfe.validation import resume_state_bytes

        database, selection = workload_bytes
        registry = SessionRegistry(capacity=8, max_bytes=1 << 20)
        client = make_client(selection, chunk_size=20)
        server = ServerSession(database, registry=registry)
        frames = list(client.initial_bytes())  # HELLO, KEY, 3 chunks
        for data in frames[:2]:
            server.receive_bytes(data)
        assert registry.resident_bytes == resume_state_bytes(128)

        server.receive_bytes(frames[2])
        (state,) = registry._states.values()
        planes = -(-database.value_bits // 4)  # 16-bit values: 4 planes
        assert len(state.buckets) == planes * PLANE_DIGITS
        bucket_bytes = len(state.buckets) * (2 * 128 // 8)
        assert state.resident_bytes == resume_state_bytes(128) + bucket_bytes
        assert registry.resident_bytes == state.resident_bytes

        for data in frames[3:]:
            client.receive_bytes(server.receive_bytes(data))
        assert client.result == database.select_sum(selection)
        (state,) = registry._states.values()
        assert state.done and state.buckets is None
        assert registry.resident_bytes == resume_state_bytes(128)

    def test_bad_byte_budget_rejected(self):
        with pytest.raises(Exception):
            SessionRegistry(capacity=2, max_bytes=0)


class TestConcurrentRegistry:
    """One registry is shared by every worker of a concurrent server."""

    def test_registry_survives_concurrent_hammering(self):
        """save/get/discard from many threads must neither raise (the
        unlocked OrderedDict KeyError race) nor let the byte accounting
        drift from the resident states."""
        registry = SessionRegistry(capacity=8, max_bytes=2_000)
        sids = [bytes([i]) * 16 for i in range(16)]
        errors = []

        def hammer(worker):
            try:
                for step in range(400):
                    sid = sids[(worker * 7 + step) % len(sids)]
                    op = (worker + step) % 3
                    if op == 0:
                        registry.save(sid, _FakeState(100 + step % 3))
                    elif op == 1:
                        registry.get(sid)
                    else:
                        registry.discard(sid)
            except Exception as exc:  # pragma: no cover — the bug itself
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert registry.resident_bytes == sum(
            state.resident_bytes for state in registry._states.values()
        )

    def test_resume_state_is_copied_not_shared(self, workload_bytes):
        """A client whose read timed out reconnects and resumes while
        its old connection is still folding buffered chunks; the two
        server sessions must never share a mutable state object, or the
        stale one corrupts the live one's aggregate."""
        database, selection = workload_bytes
        registry = SessionRegistry()
        client = make_client(selection, chunk_size=9)

        server1 = ServerSession(database, registry=registry)
        stream = client.initial_bytes()
        server1.receive_bytes(next(stream))  # HELLO
        server1.receive_bytes(next(stream))  # PUBLIC_KEY
        chunk_frames = [next(stream) for _ in range(4)]
        stream.close()
        for data in chunk_frames[:3]:
            server1.receive_bytes(data)

        # Resume on a fresh connection while the old one is still live.
        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        assert client.resume_ready

        # Registry entries are frozen snapshots: neither live session
        # holds the stored object (publish-snapshot + copy-on-resume).
        entry = registry.get(client.session_id)
        assert entry is not server1._resume_state
        assert entry is not server2._resume_state
        assert server1._resume_state is not server2._resume_state

        # The stale connection drains its buffered chunk *after* the
        # resume; with shared state this would fold chunk 3 into the
        # aggregate the resumed session is about to fold it into again.
        server1.receive_bytes(chunk_frames[3])

        drive(client.resume_bytes(), server2, client)
        assert client.result == database.select_sum(selection)
        assert server2.chunk_frames_processed == client.total_chunks - 3


class TestServerPolicyEnforcement:
    """ServerSession with a policy rejects hostile-but-well-formed input."""

    def _policy(self, **kwargs):
        from repro.spfe.validation import ServerPolicy

        kwargs.setdefault("min_key_bits", 64)
        return ServerPolicy(**kwargs)

    def test_honest_run_unaffected_by_policy(self, workload_bytes):
        database, selection = workload_bytes
        server = ServerSession(database, policy=self._policy())
        value = run_sessions_in_memory(make_client(selection), server)
        assert value == database.select_sum(selection)
        assert not server.errored

    def test_out_of_policy_key_bits_rejected(self, workload_bytes):
        from repro.exceptions import PolicyViolation

        database, selection = workload_bytes
        server = ServerSession(
            database, policy=self._policy(min_key_bits=256)
        )
        client = make_client(selection)  # 128-bit key
        with pytest.raises(PolicyViolation):
            run_sessions_in_memory(client, server)
        assert isinstance(server.last_error, PolicyViolation)

    def test_even_modulus_rejected(self, workload_bytes):
        from repro.exceptions import ValidationError
        from repro.net import codec

        database, _ = workload_bytes
        server = ServerSession(database, policy=self._policy())
        reply = server.receive_bytes(
            codec.encode_hello(128, len(database), 8, b"\1" * 16, 0)
        )
        assert reply == b""
        reply = server.receive_bytes(
            codec.encode_public_key(1 << 126, 128, 0)
        )
        assert server.errored
        assert isinstance(server.last_error, ValidationError)
        code, _message = codec.decode_error(
            next(iter(_decode_frames(reply))).payload
        )
        assert code == codec.ERROR_CODE_VALIDATION

    def test_non_coprime_ciphertext_rejected(self, workload_bytes):
        from repro.exceptions import ValidationError
        from repro.net import codec

        database, selection = workload_bytes
        client = make_client(selection, chunk_size=1)
        server = ServerSession(database, policy=self._policy())
        stream = client.initial_bytes()
        server.receive_bytes(next(stream))  # HELLO
        server.receive_bytes(next(stream))  # PUBLIC_KEY
        # c = n is in range but shares every factor with the modulus.
        poisoned = codec.encode_ciphertext_chunk(
            [client.public_key.n], 128, 0
        )
        server.receive_bytes(poisoned)
        assert server.errored
        assert isinstance(server.last_error, ValidationError)

    def test_session_byte_quota_enforced(self, workload_bytes):
        from repro.exceptions import PolicyViolation

        database, selection = workload_bytes
        server = ServerSession(
            database,
            policy=self._policy(
                max_session_bytes=64, max_frame_payload=64
            ),
        )
        client = make_client(selection)
        with pytest.raises(PolicyViolation):
            run_sessions_in_memory(client, server)

    def test_errored_session_loses_resume_state(self, workload_bytes):
        """A rejected peer must restart, never resume poisoned state."""
        from repro.net import codec

        database, selection = workload_bytes
        registry = SessionRegistry()
        client = make_client(selection, chunk_size=1)
        server = ServerSession(
            database, registry=registry, policy=self._policy()
        )
        stream = client.initial_bytes()
        server.receive_bytes(next(stream))
        server.receive_bytes(next(stream))
        assert client.session_id in registry
        server.receive_bytes(
            codec.encode_ciphertext_chunk([client.public_key.n], 128, 0)
        )
        assert server.errored
        assert client.session_id not in registry

    def test_typed_error_surfaces_client_side(self, workload_bytes):
        from repro.exceptions import PolicyViolation

        database, selection = workload_bytes
        server = ServerSession(
            database, policy=self._policy(min_key_bits=256)
        )
        client = make_client(selection)
        with pytest.raises(PolicyViolation):
            run_sessions_in_memory(client, server)


class TestClientBusyHandling:
    def test_busy_frame_raises_server_busy(self, workload_bytes):
        from repro.exceptions import ServerBusy
        from repro.net import codec

        _, selection = workload_bytes
        client = make_client(selection)
        with pytest.raises(ServerBusy):
            client.receive_bytes(codec.encode_busy(100))

    def test_server_busy_is_a_transport_error(self):
        from repro.exceptions import ServerBusy, TransportError

        assert issubclass(ServerBusy, TransportError)


def _decode_frames(data):
    from repro.net.codec import FrameDecoder

    decoder = FrameDecoder()
    decoder.feed(data)
    return list(decoder.frames())
