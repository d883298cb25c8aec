"""Fault injection: corrupt streams, broken peers, resource exhaustion.

The protocol's security model is semi-honest (both parties follow the
protocol), but a production implementation must still *fail loudly* on
malformed input rather than return silently wrong sums.  These tests
attack the byte-level session layer and the in-process engine with the
failure modes a deployment actually sees.
"""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ChannelError, ProtocolError
from repro.net import codec
from repro.net.codec import FrameDecoder, FrameType
from repro.spfe.context import ExecutionContext
from repro.spfe.session import ClientSession, ServerSession


@pytest.fixture()
def session_pair():
    generator = WorkloadGenerator("faults")
    database = generator.database(30, value_bits=16)
    selection = generator.random_selection(30, 8)
    client = ClientSession(
        selection, key_bits=128, chunk_size=10, rng=DeterministicRandom("f")
    )
    return database, selection, client


def error_frame_of(reply):
    decoder = FrameDecoder()
    decoder.feed(reply)
    frame = next(decoder.frames())
    return frame if frame.frame_type == FrameType.ERROR else None


class TestCorruptStreams:
    def test_flipped_header_byte(self, session_pair):
        database, _, client = session_pair
        server = ServerSession(database)
        stream = b"".join(client.initial_bytes())
        corrupted = bytes([stream[0] ^ 0xFF]) + stream[1:]
        reply = server.receive_bytes(corrupted)
        assert error_frame_of(reply) is not None
        assert not server.finished

    def test_truncated_stream_never_finishes(self, session_pair):
        database, _, client = session_pair
        server = ServerSession(database)
        stream = b"".join(client.initial_bytes())
        server.receive_bytes(stream[: len(stream) // 2])
        assert not server.finished  # waits, does not crash or guess

    def test_frames_out_of_order(self, session_pair):
        database, _, client = session_pair
        server = ServerSession(database)
        stream = list(client.initial_bytes())
        # Send a chunk before HELLO.
        reply = server.receive_bytes(stream[2])
        assert error_frame_of(reply) is not None

    def test_duplicate_hello(self, session_pair):
        database, _, client = session_pair
        server = ServerSession(database)
        hello = next(client.initial_bytes())
        assert server.receive_bytes(hello) == b""
        reply = server.receive_bytes(hello)  # HELLO again: now expects key
        assert error_frame_of(reply) is not None

    def test_garbage_after_completion(self, session_pair):
        database, selection, client = session_pair
        server = ServerSession(database)
        for outgoing in client.initial_bytes():
            reply = server.receive_bytes(outgoing)
            if reply:
                client.receive_bytes(reply)
        assert server.finished
        late_hello = codec.encode_hello(128, 30, 10, b"\0" * codec.SESSION_ID_BYTES)
        reply = server.receive_bytes(late_hello)
        assert error_frame_of(reply) is not None


class TestMaliciousValues:
    def test_oversized_public_key_rejected(self, session_pair):
        database, _, client = session_pair
        server = ServerSession(database)
        server.receive_bytes(next(client.initial_bytes()))  # HELLO (128-bit)
        huge = codec.encode_public_key(2**512 + 1, 1024)
        reply = server.receive_bytes(huge)
        assert error_frame_of(reply) is not None

    def test_zero_ciphertext_rejected(self, session_pair):
        database, _, client = session_pair
        server = ServerSession(database)
        stream = list(client.initial_bytes())
        server.receive_bytes(stream[0])
        server.receive_bytes(stream[1])
        reply = server.receive_bytes(codec.encode_ciphertext_chunk([0], 128))
        assert error_frame_of(reply) is not None

    def test_tampered_result_detected_by_width(self, session_pair):
        database, _, client = session_pair
        server = ServerSession(database)
        for outgoing in client.initial_bytes():
            reply = server.receive_bytes(outgoing)
        # Truncate the result payload: the client must reject it.
        decoder = FrameDecoder()
        decoder.feed(reply)
        frame = next(decoder.frames())
        tampered = codec.encode_frame(FrameType.RESULT, frame.payload[:-1])
        with pytest.raises(ProtocolError):
            client.receive_bytes(tampered)

    def test_tampered_result_changes_value(self, session_pair):
        """Semi-honest caveat, demonstrated: a *bit-flipped* result of
        the right width decrypts to a different (wrong) value — the
        protocol offers no integrity against a malicious server, exactly
        as the paper's model states."""
        database, selection, client = session_pair
        server = ServerSession(database)
        for outgoing in client.initial_bytes():
            reply = server.receive_bytes(outgoing)
        decoder = FrameDecoder()
        decoder.feed(reply)
        frame = next(decoder.frames())
        flipped = bytearray(frame.payload)
        flipped[-1] ^= 0x01
        client.receive_bytes(codec.encode_frame(FrameType.RESULT, bytes(flipped)))
        assert client.result != database.select_sum(selection)


class TestEngineFaults:
    def test_unconsumed_messages_detected(self):
        """A protocol bug that leaves messages queued is caught by the
        channel drain check, not silently ignored."""
        from repro.net.channel import Channel
        from repro.net.link import links
        from repro.net.wire import Message

        channel = Channel(links.loopback)
        channel.client_send(Message("enc-index", object(), 136, "client"))
        with pytest.raises(ChannelError):
            channel.drain_check()

    def test_scheme_key_confusion_detected(self):
        """Ciphertexts under the wrong key are rejected, not decrypted
        into garbage."""
        from repro.crypto.simulated import SimulatedPaillier
        from repro.exceptions import KeyMismatchError

        scheme = SimulatedPaillier("kc")
        kp1 = scheme.generate(128)
        kp2 = scheme.generate(128)
        ct = scheme.encrypt(kp1.public, 5)
        with pytest.raises(KeyMismatchError):
            scheme.decrypt(kp2.private, ct)

    def test_sum_overflow_prevented_up_front(self):
        """The capacity check refuses a query whose worst case could
        wrap, instead of wrapping at runtime."""
        from repro.spfe.selected_sum import SelectedSumProtocol

        ctx = ExecutionContext(key_bits=32, rng="overflow")
        database = ServerDatabase([2**32 - 1] * 100)
        with pytest.raises(ProtocolError):
            SelectedSumProtocol(ctx).run(database, [1] * 100)


class TestBlindingStatistics:
    def test_blinded_partials_look_uniform(self):
        """scipy-backed sanity check of the §3.5 blinding: the blinded
        partial sums are statistically indistinguishable from uniform
        over [0, B) (chi-square on 8 bins, many runs of the same true
        partial)."""
        from scipy import stats

        from repro.spfe.multiclient import MultiClientSelectedSumProtocol

        database = ServerDatabase([1000, 2000, 3000, 4000], value_bits=16)
        samples = []
        modulus = None
        for i in range(120):
            ctx = ExecutionContext(rng="blind-%d" % i)
            protocol = MultiClientSelectedSumProtocol(ctx, num_clients=2)
            result = protocol.run(database, [1, 1, 1, 1])
            assert result.value == 10_000
            modulus = 2 ** result.metadata["blind_modulus_bits"]
            ring = result.metadata["ring_channels"]
            samples.append(ring[0].server_view.payloads("ring-forward")[0])
        bins = 8
        observed = [0] * bins
        for value in samples:
            observed[min(bins - 1, value * bins // modulus)] += 1
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.001, "blinded partials are visibly non-uniform"
