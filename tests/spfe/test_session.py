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
    RetryExhausted,
    TransportError,
    TransportTimeout,
    ValidationError,
)
from repro.net import codec
from repro.net.codec import FrameType
from repro.net.transport import RetryPolicy, Transport
from repro.spfe.session import (
    ClientSession,
    ServerSession,
    SessionRegistry,
    run_resilient,
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


FOLD_KEY_BITS = 128


@pytest.fixture(scope="module")
def fold_keypair():
    return generate_keypair(FOLD_KEY_BITS, DeterministicRandom("block-fold"))


def fold_case(keypair, rows):
    """A database of ``rows`` 32-bit values (zeros and repeats
    included), one ciphertext per row and the RESULT payload the fold
    must send: ``prod c_i^(x_i) mod n^2``, computed naively."""
    rng = DeterministicRandom("block-fold-%d" % rows)
    values = [
        [0, 1, 7, (1 << 32) - 1, rng.randrange(0, 1 << 32)][rng.randrange(0, 5)]
        for _ in range(rows)
    ]
    ciphertexts = [
        keypair.private.encrypt_raw_crt(rng.randrange(0, 2), rng)
        for _ in range(rows)
    ]
    nsquare = keypair.public.nsquare
    expected = 1
    for ct, value in zip(ciphertexts, values):
        expected = expected * pow(ct, value, nsquare) % nsquare
    payload = expected.to_bytes(2 * FOLD_KEY_BITS // 8, "big")
    return ServerDatabase(values), ciphertexts, payload


def fold_frames(keypair, ciphertexts, chunk_size, session_id=b"f" * 16):
    """HELLO, PUBLIC_KEY and the chunk frames of a client stream."""
    hello = codec.encode_hello(
        FOLD_KEY_BITS, len(ciphertexts), chunk_size, session_id
    )
    key = codec.encode_public_key(keypair.public.n, FOLD_KEY_BITS)
    chunks = [
        codec.encode_ciphertext_chunk(
            ciphertexts[start : start + chunk_size], FOLD_KEY_BITS, index
        )
        for index, start in enumerate(range(0, len(ciphertexts), chunk_size))
    ]
    return [hello, key] + chunks


def result_of(replies):
    decoder = codec.FrameDecoder()
    decoder.feed(replies)
    (frame,) = decoder.frames()
    assert frame.frame_type == FrameType.RESULT
    return frame.payload


class TestBlockFold:
    """The server folds each block of database rows with its compiled
    program once the block is complete; the RESULT is the naive
    product whatever the chunk size, read split or resume point."""

    @pytest.mark.parametrize("rows", [1, 100, 257, 1000])
    def test_result_is_the_naive_product_at_every_chunk_size(
        self, fold_keypair, rows
    ):
        database, ciphertexts, expected = fold_case(fold_keypair, rows)
        for chunk_size in (1, 7, 64, 255, 256, 257, 1000):
            frames = fold_frames(fold_keypair, ciphertexts, chunk_size)
            server = ServerSession(database)
            replies = b"".join(server.receive_bytes(f) for f in frames)
            assert result_of(replies) == expected, chunk_size

    @pytest.mark.parametrize("chunk_size", [8, 64, 1000])
    def test_one_fold_span_per_block_folded(self, fold_keypair, chunk_size):
        """The ``fold`` phase counts blocks, not chunk frames, whether a
        chunk is narrower or wider than a block."""
        from repro.crypto.multiexp import fold_blocks
        from repro.obs.tracing import Tracer

        database, ciphertexts, expected = fold_case(fold_keypair, 1000)
        tracer = Tracer()
        server = ServerSession(database, tracer=tracer)
        replies = b"".join(
            server.receive_bytes(frame)
            for frame in fold_frames(fold_keypair, ciphertexts, chunk_size)
        )
        assert result_of(replies) == expected
        assert tracer.counts()["fold"] == len(fold_blocks(1000)) == 2

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_any_split_into_reads_gives_the_naive_product(
        self, fold_keypair, data
    ):
        rows = data.draw(st.sampled_from([100, 257, 600]))
        chunk_size = data.draw(st.sampled_from([1, 7, 64, 255, 256, 257]))
        database, ciphertexts, expected = fold_case(fold_keypair, rows)
        stream = b"".join(fold_frames(fold_keypair, ciphertexts, chunk_size))
        cuts = sorted(
            data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=10))
        )
        server = ServerSession(database)
        replies = b"".join(
            server.receive_bytes(stream[start:stop])
            for start, stop in zip([0] + cuts, cuts + [len(stream)])
        )
        assert result_of(replies) == expected

    @pytest.mark.parametrize("chunk_size", [7, 64, 100])
    def test_resume_from_the_journal_at_every_chunk_boundary(
        self, fold_keypair, chunk_size
    ):
        """A server restarted after a read of any number of chunks
        resumes from its journal row, pending rows and all, once that
        read completed the first block (rows 0-299); before that it has
        journalled nothing and the client starts over."""
        from repro.store.state import StateStore

        database, ciphertexts, expected = fold_case(fold_keypair, 600)
        hello, key, *chunks = fold_frames(fold_keypair, ciphertexts, chunk_size)
        for cut in range(len(chunks) + 1):
            with StateStore(":memory:") as store:
                first = ServerSession(
                    database, registry=SessionRegistry(store=store)
                )
                replies = first.receive_bytes(hello + key + b"".join(chunks[:cut]))
                # the restart: a new registry over the same journal
                second = ServerSession(
                    database, registry=SessionRegistry(store=store)
                )
                reply = second.receive_bytes(codec.encode_resume(b"f" * 16))
                decoder = codec.FrameDecoder()
                decoder.feed(reply)
                ack = codec.decode_ack(next(decoder.frames()).payload)
                if cut * chunk_size < 300:
                    assert ack == codec.RESUME_UNKNOWN
                    replies = second.receive_bytes(
                        hello + key + b"".join(chunks)
                    )
                    assert second.finished
                elif cut < len(chunks):
                    assert ack == cut
                    assert replies == b""
                    replies = second.receive_bytes(b"".join(chunks[cut:]))
                    assert second.finished
                else:
                    assert ack == cut
                    replies = reply[len(reply) - len(replies) :]
            assert result_of(replies) == expected, cut


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
    """The client encrypts through its own private key's sampler."""

    def test_chunk_frames_decrypt_to_the_selection(self):
        keypair = generate_keypair(128, "frames-key")
        selection = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        client = ClientSession(
            selection, key_bits=128, chunk_size=4,
            rng=DeterministicRandom("frames"), keypair=keypair,
        )
        ciphertexts = chunk_ciphertexts(list(client.initial_bytes()))
        assert [keypair.private.raw_decrypt(c) for c in ciphertexts] == selection
        assert len(set(ciphertexts)) == len(ciphertexts)

    def test_weights_above_the_primes_sum_exactly(self):
        """Each chunk is one batch encryption; weights of p and above,
        where the plaintext wraps inside each CRT half, still sum
        exactly through the server's fold."""
        keypair = generate_keypair(128, "weighted-frames-key")
        p, q = keypair.private.p, keypair.private.q
        selection = [p, 0, q + 5, 1, 3 * p + 1, p - 1, 2**70, 0, q]
        database = ServerDatabase(list(range(3, 3 + len(selection))))
        client = ClientSession(
            selection, key_bits=128, chunk_size=4,
            rng=DeterministicRandom("weighted-frames"), keypair=keypair,
        )
        value = run_sessions_in_memory(client, ServerSession(database))
        assert value == database.select_sum(selection)
        assert client.encryptions == len(selection)

    def test_uncertifiable_key_refused_before_any_frame(self, plain_prime_keypair):
        """Plain primes whose p - 1 leaves a composite cofactor give the
        sampler no generator: the session refuses them at construction."""
        from repro.exceptions import KeyGenerationError

        with pytest.raises(KeyGenerationError):
            ClientSession([1, 0, 1], key_bits=256, keypair=plain_prime_keypair(256))

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

    @pytest.mark.parametrize(
        "modulus, refused",
        [((1 << 55) | 1, True), ((1 << 62) | 1, False)],
        ids=["56-bit", "63-bit"],
    )
    def test_server_refuses_modulus_below_the_worst_case_sum(
        self, modulus, refused
    ):
        """HELLO announces 64 bits, which the worst case (~2^61) fits;
        a 56-bit modulus passes the key checks but would wrap the sum,
        so the key frame is refused before anything is folded."""
        database = ServerDatabase([5, 6], value_bits=60)
        server = ServerSession(database)
        hello = codec.encode_hello(64, 2, 2, b"w" * 16)
        assert server.receive_bytes(hello) == b""
        reply = server.receive_bytes(codec.encode_public_key(modulus, 64))
        assert server.errored is refused
        if refused:
            decoder = codec.FrameDecoder()
            decoder.feed(reply)
            (frame,) = decoder.frames()
            assert frame.frame_type == FrameType.ERROR
            assert type(server.last_error) is ProtocolError
            assert "worst-case sum" in str(server.last_error)

    def test_client_accepts_one_bit_short_key(self):
        """generate_keypair(512) returns a 511-bit modulus about half the
        time; such a key still fits key_bits=512."""
        keypair = next(
            keypair
            for keypair in (generate_keypair(512, "odd-%d" % i) for i in range(20))
            if keypair.public.bits == 511
        )
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
        """Neither 0 nor n lies in Z*_{n^2}; a session built without an
        explicit policy still validates under the default one."""
        database, selection = workload_bytes
        client = make_client(selection)
        stream = list(client.initial_bytes())
        for forged_value in (client.public_key.n, 0):
            server = ServerSession(database)
            server.receive_bytes(stream[0])  # hello
            server.receive_bytes(stream[1])  # public key
            forged = codec.encode_ciphertext_chunk([forged_value], 128)
            (frame,) = _decode_frames(server.receive_bytes(forged))
            assert frame.frame_type == FrameType.ERROR
            code, _message = codec.decode_error(frame.payload)
            assert code == codec.ERROR_CODE_VALIDATION, forged_value
            assert not server.finished

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
        bogus = codec.encode_hello(128, 10, 5, b"\0" * codec.SESSION_ID_BYTES)
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

    def test_old_header_chunk_resend_is_rejected(self):
        """A re-sent chunk 0 under the retired 8-byte header carries no
        sequence number, so it must not be folded as chunk 1: that
        silently turned 3 + 11 = 14 into 10."""
        import struct

        database = ServerDatabase([3, 5, 7, 11])
        client = make_client([1, 0, 0, 1], chunk_size=2)
        server = ServerSession(database, registry=SessionRegistry())
        frames = list(client.initial_bytes())  # HELLO, KEY, chunk 0, chunk 1
        for data in frames[:3]:
            assert server.receive_bytes(data) == b""
        payload = _decode_frames(frames[2])[0].payload
        old = struct.pack(">II", FrameType.ENC_CHUNK, len(payload)) + payload
        reply = server.receive_bytes(old)
        (frame,) = _decode_frames(reply)
        assert frame.frame_type == FrameType.ERROR
        assert server.errored and not server.finished
        with pytest.raises(ProtocolError):
            client.receive_bytes(reply)
        assert client.result is None
        assert client.session_id not in server.registry

    def test_resume_without_registry_says_unknown(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)  # its own, empty registry
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        drive(client.resume_bytes(), server, client)
        assert client.result == database.select_sum(selection)

    def test_registry_lru_and_discard(self):
        registry = SessionRegistry(capacity=2)
        a, b, c = b"a" * 16, b"b" * 16, b"c" * 16
        registry.save(a, _FakeState(0))
        registry.save(b, _FakeState(0))
        registry.get(a)  # touch a so b is the LRU
        registry.save(c, _FakeState(0))
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
        from repro.store.state import resume_state_bytes

        assert registry.resident_bytes == resume_state_bytes(128)

    def test_in_progress_sessions_account_pending_block(self, workload_bytes):
        """The pending ciphertexts of the incomplete fold block cost
        registry bytes while a session is in progress and are released
        once the last block folds into the aggregate."""
        from repro.store.state import resume_state_bytes

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
        assert len(state.pending) == 20  # 60 rows: one block, incomplete
        pending_bytes = len(state.pending) * (2 * 128 // 8)
        assert state.resident_bytes == resume_state_bytes(128) + pending_bytes
        assert registry.resident_bytes == state.resident_bytes

        for data in frames[3:]:
            client.receive_bytes(server.receive_bytes(data))
        assert client.result == database.select_sum(selection)
        (state,) = registry._states.values()
        assert state.done and state.pending == ()
        assert registry.resident_bytes == resume_state_bytes(128)

    def test_default_budget_holds_the_count_bound_at_max_key_bits(self):
        """Every in-progress session may hold its widest fold block's
        worth of pending ciphertexts less one; the default byte budget
        must still not evict before the count bound does."""
        from repro.crypto.multiexp import FOLD_CAP
        from repro.spfe.session import REGISTRY_CAPACITY, REGISTRY_MAX_BYTES
        from repro.spfe.validation import ServerPolicy
        from repro.store.state import resume_state_bytes

        policy = ServerPolicy()
        per_session = resume_state_bytes(policy.max_key_bits) + (
            FOLD_CAP - 1
        ) * (2 * policy.max_key_bits // 8)
        assert REGISTRY_CAPACITY * per_session <= REGISTRY_MAX_BYTES

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
        stale one corrupts the live one's aggregate.  They share the
        registry's record, which is immutable."""
        import dataclasses

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

        # The resumed session adopted the stored record, which nothing
        # can change in place.
        entry = registry.get(client.session_id)
        assert entry is server2._record
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.aggregate = 1

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

    @pytest.mark.parametrize("position", [0, 3, 7])  # first, middle, last
    @pytest.mark.parametrize("forge", ["factor_p", "zero_mod_n"])
    def test_bad_element_fails_its_frame(self, workload_bytes, position, forge):
        """The chunk's one gcd rejects the same frames as a gcd per
        element: wherever a non-coprime element sits in a chunk, that
        frame gets the validation ERROR and the session is discarded."""
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=8)
        registry = SessionRegistry()
        server = ServerSession(database, policy=self._policy(), registry=registry)
        stream = client.initial_bytes()
        for _ in range(3):  # HELLO, PUBLIC_KEY, chunk 0
            assert server.receive_bytes(next(stream)) == b""
        assert client.session_id in registry
        honest = chunk_ciphertexts([next(stream)])
        n = client.public_key.n
        bad = client._private_key.p if forge == "factor_p" else 3 * n
        honest[position] = bad
        reply = server.receive_bytes(codec.encode_ciphertext_chunk(honest, 128, 1))
        (frame,) = _decode_frames(reply)
        assert frame.frame_type == FrameType.ERROR
        code, _message = codec.decode_error(frame.payload)
        assert code == codec.ERROR_CODE_VALIDATION
        assert isinstance(server.last_error, ValidationError)
        assert server.chunk_frames_processed == 1
        assert client.session_id not in registry

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

    def test_oversize_chunk_frame_errors_quickly(self):
        """One maximal ENC_CHUNK of the smallest ciphertexts must be
        decoded in linear time: the frame is refused for carrying more
        ciphertexts than the database has elements, and that answer may
        not wait on a decode that copies the payload once per element."""
        import struct
        import time

        policy = self._policy()
        database = ServerDatabase([3, 1, 4, 1], value_bits=8)
        keypair = generate_keypair(64, DeterministicRandom("oversize"))
        server = ServerSession(database, policy=policy)
        server.receive_bytes(
            codec.encode_hello(64, len(database), 4, b"\7" * 16, 0)
        )
        server.receive_bytes(codec.encode_public_key(keypair.public.n, 64, 0))
        width = 16  # one ciphertext mod n^2 at 64-bit keys
        count = (policy.max_frame_payload - 4) // width
        payload = struct.pack(">I", count) + bytes(count * width)
        frame = codec.encode_frame(FrameType.ENC_CHUNK, payload, 0)
        started = time.perf_counter()
        reply = server.receive_bytes(frame)
        elapsed = time.perf_counter() - started
        (error,) = _decode_frames(reply)
        assert error.frame_type == FrameType.ERROR
        assert "more ciphertexts than elements" in str(server.last_error)
        assert elapsed < 5.0, "oversize chunk took %.1f s to refuse" % elapsed

    def _receiving_server(self, database, chunk_size, seed):
        keypair = generate_keypair(64, DeterministicRandom(seed))
        server = ServerSession(database, policy=self._policy())
        server.receive_bytes(
            codec.encode_hello(64, len(database), chunk_size, b"\7" * 16, 0)
        )
        server.receive_bytes(codec.encode_public_key(keypair.public.n, 64, 0))
        return server, keypair

    def test_chunk_count_checked_before_decoding(self, monkeypatch):
        """A maximal 4 MiB ENC_CHUNK is refused on its count prefix: the
        payload is never decoded."""
        import struct

        decoded = []
        real_decode = codec.decode_ciphertext_chunk

        def counting(payload, key_bits):
            decoded.append(len(payload))
            return real_decode(payload, key_bits)

        monkeypatch.setattr(codec, "decode_ciphertext_chunk", counting)
        policy = self._policy()
        database = ServerDatabase([3, 1, 4, 1], value_bits=8)
        server, _ = self._receiving_server(database, 4, "count-first")
        width = 16  # one ciphertext mod n^2 at 64-bit keys
        count = (policy.max_frame_payload - 4) // width
        payload = struct.pack(">I", count) + bytes(count * width)
        reply = server.receive_bytes(
            codec.encode_frame(FrameType.ENC_CHUNK, payload, 0)
        )
        (error,) = _decode_frames(reply)
        assert error.frame_type == FrameType.ERROR
        assert "more ciphertexts than elements" in str(server.last_error)
        assert decoded == []

    def test_chunk_larger_than_announced_refused(self, monkeypatch):
        """A chunk within the elements left but above HELLO's chunk size
        is refused, again before decoding."""
        def refuse(*_args):
            raise AssertionError("oversized chunk was decoded")

        monkeypatch.setattr(codec, "decode_ciphertext_chunk", refuse)
        database = ServerDatabase([3, 1, 4, 1, 5, 9], value_bits=8)
        server, keypair = self._receiving_server(database, 2, "count-chunk")
        ciphertexts = [keypair.public.encrypt_raw(1, "c%d" % i) for i in range(3)]
        reply = server.receive_bytes(
            codec.encode_ciphertext_chunk(ciphertexts, 64, 0)
        )
        (error,) = _decode_frames(reply)
        assert error.frame_type == FrameType.ERROR
        assert "exceeds the announced chunk size 2" in str(server.last_error)

    @pytest.mark.parametrize("count", [0, 1])
    def test_short_chunk_refused(self, count):
        """Every chunk but the last carries exactly the announced chunk
        size: empty or short chunks would let a session spend frames
        (each one a registry save) beyond what max_chunks allows."""
        database = ServerDatabase([3, 1, 4, 1], value_bits=8)
        keypair = generate_keypair(64, DeterministicRandom("short-chunk"))
        registry = SessionRegistry()
        server = ServerSession(
            database, policy=self._policy(max_chunks=1), registry=registry
        )
        server.receive_bytes(
            codec.encode_hello(64, len(database), 4, b"\7" * 16, 0)
        )
        server.receive_bytes(codec.encode_public_key(keypair.public.n, 64, 0))
        ciphertexts = [
            keypair.public.encrypt_raw(1, "s%d" % i) for i in range(count)
        ]
        reply = server.receive_bytes(
            codec.encode_ciphertext_chunk(ciphertexts, 64, 0)
        )
        (error,) = _decode_frames(reply)
        assert error.frame_type == FrameType.ERROR
        assert "short chunk of %d ciphertexts; 4 were due" % count in str(
            server.last_error
        )
        assert server.chunk_frames_processed == 0
        assert b"\7" * 16 not in registry

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


class _InProcessTransport(Transport):
    """A transport whose peer is a :class:`ServerSession` in this thread:
    every send is answered at once, so replies are always ready."""

    def __init__(self, server):
        super().__init__()
        self._server = server
        self._inbox = bytearray()

    def send(self, data):
        self.bytes_sent += len(data)
        self._inbox += self._server.receive_bytes(data)

    def recv_ready(self):
        return bool(self._inbox)

    def recv(self, max_bytes=65536):
        chunk = bytes(self._inbox[:max_bytes])
        del self._inbox[:max_bytes]
        self.bytes_received += len(chunk)
        return chunk

    def close(self):
        pass


class TestRunResilientRetry:
    """The reconnect loop's schedule, driven with an injected ``sleep``."""

    def test_succeeds_after_transient_connect_failures(self, workload_bytes):
        database, selection = workload_bytes
        connects = []
        slept = []

        def connect():
            connects.append(1)
            if len(connects) < 3:
                raise TransportError("connection refused")
            return _InProcessTransport(ServerSession(database))

        value = run_resilient(
            make_client(selection),
            connect,
            RetryPolicy(max_attempts=5, jitter=0.0, base_delay_s=0.01),
            rng=DeterministicRandom("r"),
            sleep=slept.append,
        )
        assert value == database.select_sum(selection)
        assert len(connects) == 3
        assert slept == [0.01, 0.02]

    def test_exhaustion_chains_last_transport_error(self, workload_bytes):
        _database, selection = workload_bytes

        def connect():
            raise TransportTimeout("still down")

        with pytest.raises(RetryExhausted) as excinfo:
            run_resilient(
                make_client(selection),
                connect,
                RetryPolicy(max_attempts=3, jitter=0.0, base_delay_s=0.0),
                sleep=lambda _: None,
            )
        assert isinstance(excinfo.value.__cause__, TransportTimeout)

    def test_protocol_error_propagates_without_reconnect(self, workload_bytes):
        from repro.exceptions import PolicyViolation
        from repro.spfe.validation import ServerPolicy

        database, selection = workload_bytes
        connects = []
        slept = []

        def connect():
            connects.append(1)
            return _InProcessTransport(
                ServerSession(database, policy=ServerPolicy(min_key_bits=256))
            )

        with pytest.raises(PolicyViolation):
            run_resilient(
                make_client(selection),  # 128-bit key: out of policy
                connect,
                RetryPolicy(max_attempts=5),
                sleep=slept.append,
            )
        assert len(connects) == 1
        assert slept == []


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
