"""Crash-recovery chaos suite: the journal makes SIGKILL survivable.

Two layers:

* A deterministic **recovery matrix** that simulates process death at
  every interesting fault point (before the first journal write, mid
  chunk stream, after the result was computed but never delivered, and
  a double-crash during the recovery itself) by discarding the live
  server/registry and rebuilding both from the on-disk store — exactly
  what a restarted process does, minus the exec.  Every case asserts
  the byte-exact sum, zero re-encryption, and zero double-folded
  chunks.

* A real **SIGKILL fleet** test: `repro serve --state-dir` under the
  `ServerSupervisor`, killed ≥3 times at journal-verified fault points
  (the test polls the SQLite journal as its oracle — WAL mode admits
  concurrent readers), while a `run_resilient` client rides the
  restarts to the correct sum without re-encrypting a single chunk.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.datastore.database import ServerDatabase
from repro.net import codec
from repro.net.codec import FrameDecoder, FrameType
from repro.net.transport import RetryPolicy, SocketTransport
from repro.spfe.session import (
    ClientSession,
    ServerSession,
    SessionRegistry,
    run_resilient,
)
from repro.store.state import StateStore
from repro.store.supervisor import ServerSupervisor, SupervisorPolicy

pytestmark = pytest.mark.chaos

KEY_BITS = 128
CHUNK = 2
DB = ServerDatabase([5, 0, 7, 1, 9, 2, 0, 3], value_bits=8)
SELECTION = [1, 0, 1, 1, 0, 0, 1, 1]
EXPECTED = sum(w * v for w, v in zip(SELECTION, DB.values))


def make_client(seed):
    return ClientSession(
        SELECTION,
        key_bits=KEY_BITS,
        chunk_size=CHUNK,
        rng=DeterministicRandom(seed),
    )


def feed(server, client, frames):
    for data in frames:
        reply = server.receive_bytes(data)
        if reply:
            client.receive_bytes(reply)


def decode_frames(data):
    decoder = FrameDecoder()
    decoder.feed(data)
    return list(decoder.frames())


class Restartable:
    """A server whose process can 'die': only the store file survives."""

    def __init__(self, path):
        self.path = path
        self.store = None
        self.registry = None
        self.boot()

    def boot(self):
        self.store = StateStore(self.path)
        self.registry = SessionRegistry(capacity=8, store=self.store)
        return ServerSession(DB, registry=self.registry)

    def crash(self):
        # SIGKILL semantics: no flush, no handler — just drop the
        # in-memory world.  Whatever the journal committed, survives.
        self.store.close()
        self.store = None
        self.registry = None


class TestRecoveryMatrix:
    def test_crash_before_first_journal_write(self, tmp_path):
        """Death after HELLO: nothing journalled yet, so the resume is
        UNKNOWN and the client degrades to a fresh (cached) stream."""
        world = Restartable(str(tmp_path / "s.sqlite"))
        client = make_client("pre-ack")
        frames = list(client.initial_bytes())
        server = world.boot()
        feed(server, client, frames[:1])  # HELLO only — no key yet
        assert world.store.session_count() == 0
        world.crash()

        server = world.boot()
        raw = server.receive_bytes(client.resume_request())
        reply = decode_frames(raw)
        assert codec.decode_ack(reply[0].payload) == codec.RESUME_UNKNOWN
        client.receive_bytes(raw)
        encryptions = client.encryptions
        feed(server, client, client.resume_bytes())
        assert client.result == EXPECTED
        assert client.encryptions == encryptions  # cache reused
        world.crash()

    def test_crash_mid_chunk_stream_resumes_without_double_fold(
        self, tmp_path
    ):
        world = Restartable(str(tmp_path / "s.sqlite"))
        client = make_client("mid-stream")
        frames = list(client.initial_bytes())
        total = client.total_chunks
        server = world.boot()
        feed(server, client, frames[:4])  # HELLO, KEY, chunks 0 and 1
        assert world.store.load_session(client.session_id).chunks_received == 2
        world.crash()

        server = world.boot()
        raw = server.receive_bytes(client.resume_request())
        reply = decode_frames(raw)
        assert [f.frame_type for f in reply] == [FrameType.ACK]
        assert codec.decode_ack(reply[0].payload) == 2
        client.receive_bytes(raw)
        feed(server, client, client.resume_bytes())
        assert client.result == EXPECTED
        assert client.encryptions == len(SELECTION)
        # only the missing chunks were folded — never the ACKed ones
        assert server.chunk_frames_processed == total - 2
        assert world.registry.recoveries == 1
        state = world.registry.get(client.session_id)
        assert state.received == len(DB) and state.done
        world.crash()

    def test_crash_after_result_computed_but_not_sent(self, tmp_path):
        """The worst gap: the aggregate exists, the client never saw it.
        The journal's ``done`` flag lets the restarted server replay the
        RESULT without folding anything."""
        world = Restartable(str(tmp_path / "s.sqlite"))
        client = make_client("unsent-result")
        frames = list(client.initial_bytes())
        server = world.boot()
        result_bytes = b""
        for data in frames:
            result_bytes = server.receive_bytes(data)
        assert server.finished
        assert decode_frames(result_bytes)[0].frame_type == FrameType.RESULT
        # the RESULT was journalled *before* it was sent — and here it
        # is never delivered: the process dies with the bytes in hand
        assert world.store.load_session(client.session_id).done
        world.crash()

        server = world.boot()
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        assert client.result == EXPECTED
        assert client.encryptions == len(SELECTION)
        assert server.chunk_frames_processed == 0  # replayed, not refolded
        world.crash()

    def test_double_crash_during_recovery(self, tmp_path):
        world = Restartable(str(tmp_path / "s.sqlite"))
        client = make_client("double-crash")
        frames = list(client.initial_bytes())
        server = world.boot()
        feed(server, client, frames[:3])  # HELLO, KEY, chunk 0
        world.crash()

        # first recovery: resume, land exactly one more chunk, die again
        server = world.boot()
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        resumed = iter(client.resume_bytes())
        server.receive_bytes(next(resumed))
        assert world.store.load_session(client.session_id).chunks_received == 2
        world.crash()

        # second recovery completes from chunk 2
        server = world.boot()
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        feed(server, client, client.resume_bytes())
        assert client.result == EXPECTED
        assert client.encryptions == len(SELECTION)
        assert server.chunk_frames_processed == client.total_chunks - 2
        world.crash()


# -- the real thing: SIGKILL a serving process, repeatedly -----------------


class SlowSendTransport:
    """Transport wrapper pacing sends so the kill loop can aim."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s

    def send(self, data):
        time.sleep(self._delay_s)
        self._inner.send(data)

    def recv(self, max_bytes):
        return self._inner.recv(max_bytes)

    def recv_ready(self):
        return self._inner.recv_ready()

    def set_read_timeout(self, timeout):
        self._inner.set_read_timeout(timeout)

    def close(self):
        self._inner.close()


def journal_progress(path, session_id):
    """Read (chunks_received, done) straight out of the WAL journal."""
    try:
        conn = sqlite3.connect(path, timeout=1.0)
    except sqlite3.Error:
        return None
    try:
        row = conn.execute(
            "SELECT chunks_received, done FROM sessions WHERE session_id = ?",
            (session_id,),
        ).fetchone()
        return row
    except sqlite3.Error:
        return None
    finally:
        conn.close()


def free_port():
    import socket as socket_module

    probe = socket_module.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_sigkill_fleet_survives_three_crashes(tmp_path):
    """`repro serve --state-dir` under the supervisor, SIGKILLed at
    three journal-verified fault points; the resilient client finishes
    with the exact sum and zero re-encryption."""
    n = 96
    values = [(7 * i + 3) % 251 for i in range(n)]
    selection = [1 if i % 3 else 0 for i in range(n)]
    expected = sum(w * v for w, v in zip(selection, values))
    db_file = tmp_path / "values.txt"
    db_file.write_text("".join("%d\n" % v for v in values))
    state_dir = str(tmp_path / "state")
    store_path = os.path.join(state_dir, "repro-state.sqlite")
    port = free_port()

    supervisor = ServerSupervisor(
        [
            sys.executable, "-m", "repro", "serve",
            "--db", str(db_file),
            "--port", str(port),
            "--queries", "0",
            "--timeout", "5",
            "--state-dir", state_dir,
        ],
        policy=SupervisorPolicy(max_restarts=10, base_delay_s=0.05),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ClientSession(
        selection,
        key_bits=KEY_BITS,
        chunk_size=4,  # 24 chunks at ~25 ms each: a wide kill window
        rng=DeterministicRandom("sigkill-fleet"),
    )
    outcome = {}

    def run_client():
        try:
            outcome["result"] = run_resilient(
                client,
                lambda: SlowSendTransport(
                    SocketTransport.connect(
                        "127.0.0.1", port,
                        connect_timeout=2.0, read_timeout=5.0,
                    ),
                    delay_s=0.025,
                ),
                policy=RetryPolicy(
                    max_attempts=60, base_delay_s=0.05, max_delay_s=0.5
                ),
            )
        except Exception as exc:  # pragma: no cover - failure path
            outcome["error"] = exc

    supervisor.start()
    runner = threading.Thread(target=run_client)
    kills = 0
    try:
        runner.start()
        # kill as soon as the journal proves the marked progress exists
        for target in (3, 9, 16):
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                row = journal_progress(store_path, client.session_id)
                if row is not None and (row[0] >= target or row[1]):
                    break
                time.sleep(0.002)
            else:
                pytest.fail("journal never reached chunk %d" % target)
            pid = supervisor.pid
            if pid is None:
                continue  # already between lives; the next target waits
            os.kill(pid, signal.SIGKILL)
            kills += 1
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if supervisor.pid is not None and supervisor.pid != pid:
                    break
                time.sleep(0.01)
        runner.join(timeout=60.0)
        assert not runner.is_alive(), "client never finished"
    finally:
        supervisor.stop()
        runner.join(timeout=10.0)

    assert "error" not in outcome, outcome.get("error")
    assert outcome["result"] == expected
    assert kills >= 3
    assert supervisor.restarts >= 3
    assert not supervisor.gave_up
    # the whole point of the journal: the client resumed across process
    # death instead of re-encrypting — exactly one encryption per element
    assert client.encryptions == len(selection)
    row = journal_progress(store_path, client.session_id)
    assert row is not None and row[1] == 1  # journalled as done
