"""Tests for the resilient transport layer (timeouts, backoff schedule).

The reconnect loop itself, :func:`repro.spfe.session.run_resilient`,
is tested in ``tests/spfe/test_session.py``.
"""

import socket

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.exceptions import TransportError, TransportTimeout
from repro.net.transport import (
    RetryPolicy,
    SocketTransport,
    memory_pair,
)


class TestSocketTransport:
    def test_roundtrip_and_accounting(self):
        # AF_UNIX has no TCP level, so no TCP_NODELAY is attempted here
        a, b = socket.socketpair()
        assert a.family == socket.AF_UNIX
        ta, tb = SocketTransport(a), SocketTransport(b)
        try:
            ta.send(b"hello")
            assert tb.recv() == b"hello"
            assert ta.bytes_sent == 5
            assert tb.bytes_received == 5
        finally:
            ta.close()
            tb.close()

    def test_recv_timeout_is_typed(self):
        a, b = socket.socketpair()
        ta, tb = SocketTransport(a), SocketTransport(b, read_timeout=0.05)
        try:
            with pytest.raises(TransportTimeout):
                tb.recv()
        finally:
            ta.close()
            tb.close()

    def test_peer_close_reads_eof(self):
        a, b = socket.socketpair()
        ta, tb = SocketTransport(a), SocketTransport(b, read_timeout=1.0)
        ta.close()
        try:
            assert tb.recv() == b""
        finally:
            tb.close()

    def test_use_after_close_is_typed(self):
        a, b = socket.socketpair()
        transport = SocketTransport(a)
        transport.close()
        transport.close()  # idempotent
        with pytest.raises(TransportError):
            transport.send(b"x")
        with pytest.raises(TransportError):
            transport.recv()
        b.close()

    def test_connect_refused_is_typed(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()
        with pytest.raises(TransportError):
            SocketTransport.connect("127.0.0.1", port, connect_timeout=0.5)

    def test_context_manager_closes(self):
        a, b = socket.socketpair()
        with SocketTransport(a) as transport:
            transport.send(b"x")
        with pytest.raises(TransportError):
            transport.send(b"y")
        b.close()

    def test_tcp_connect_and_accept_sides_turn_off_nagle(self):
        def nodelay(transport):
            return transport._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            client = SocketTransport.connect("127.0.0.1", port, connect_timeout=1.0)
            connection, _ = listener.accept()
            server = SocketTransport(connection, read_timeout=1.0)
            try:
                assert nodelay(client) != 0
                assert nodelay(server) != 0
                client.send(b"frame")
                assert server.recv() == b"frame"
            finally:
                client.close()
                server.close()


class TestMemoryTransport:
    def test_pair_roundtrip(self):
        a, b = memory_pair()
        a.send(b"abc")
        a.send(b"def")
        assert b.recv() == b"abc"
        assert b.recv(2) == b"de"
        assert b.recv() == b"f"
        assert a.bytes_sent == 6
        assert b.bytes_received == 6

    def test_empty_recv_is_timeout_while_peer_open(self):
        _, b = memory_pair()
        with pytest.raises(TransportTimeout):
            b.recv()

    def test_peer_close_reads_eof(self):
        a, b = memory_pair()
        a.send(b"tail")
        a.close()
        assert b.recv() == b"tail"
        assert b.recv() == b""
        with pytest.raises(TransportError):
            b.send(b"x")

    def test_pending_counts_queued_bytes(self):
        a, b = memory_pair()
        a.send(b"12345")
        assert b.pending() == 5
        b.recv(2)
        assert b.pending() == 3


class TestRetryPolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, max_delay_s=0.5, multiplier=2.0, jitter=0.0
        )
        rng = DeterministicRandom("unused")
        delays = list(policy.delays(rng))
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=10.0, jitter=0.5)
        one = [policy.delay_s(1, DeterministicRandom(s)) for s in range(50)]
        two = [policy.delay_s(1, DeterministicRandom(s)) for s in range(50)]
        assert one == two  # same seeds, same schedule
        assert all(0.5 <= d <= 1.5 for d in one)
        assert len(set(one)) > 1  # and it actually jitters
