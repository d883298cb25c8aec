"""Deployable client/server sessions speaking the byte-level protocol.

The protocol engines in this package (:mod:`repro.spfe.selected_sum`
and friends) run both parties in one process with modelled or measured
timing — ideal for experiments.  This module is the *deployment* shape:
two independent state machines that exchange nothing but bytes, so the
same protocol runs over a real socket, a pipe, or any
:class:`~repro.net.transport.Transport`.

* :class:`ServerSession` holds the database.  Feed it received bytes
  via :meth:`receive_bytes`; it returns the bytes to send back (empty
  until it has everything it needs).
* :class:`ClientSession` holds the selection and the key pair.
  :meth:`initial_bytes` yields the entire outgoing stream (HELLO,
  public key, encrypted chunks); :meth:`receive_bytes` consumes the
  server's reply and exposes :attr:`result`.  It encrypts through its
  own private key (``PaillierPrivateKey.encrypt_raw_crt``): the same
  bytes as the public-key path at about half the cost.

Resilience (wire v2, the default): every frame carries a CRC and chunk
frames carry their absolute index, and sessions are *resumable*.  The
client advertises a random 16-byte session id in its HELLO; the server
tracks the last contiguously received chunk per session id in a
:class:`SessionRegistry`.  After a disconnect the client reconnects,
sends RESUME, and the server answers ACK with the next chunk index it
expects — the client then re-sends only the missing chunks from its
cache instead of re-encrypting the whole vector (client-side Paillier
encryption dominates the protocol's cost, paper §3).  If the server has
evicted the session the ACK says so and the client restarts cleanly.
:func:`run_resilient` packages the whole reconnect-and-resume loop
behind a retry policy.

The tests drive a pair of sessions through ``socket.socketpair()`` —
real kernel buffers, real partial reads — and assert the sum is correct
and that the client's chunk frames carry only ciphertexts; the
chaos suite replays seeded fault plans against the same pair.

Only the real Paillier scheme makes sense here (bytes are bytes), so
sessions are fixed to :class:`~repro.crypto.paillier.PaillierScheme`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.crypto.multiexp import multi_exponent, plane_insert, plane_terms
from repro.crypto.ntheory import bytes_for_bits
from repro.crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.scheme import SchemeKeyPair
from repro.crypto.rng import RandomSource, as_random_source
from repro.datastore.database import ServerDatabase
from repro.exceptions import (
    KeyMismatchError,
    ParameterError,
    PolicyViolation,
    ProtocolError,
    RetryExhausted,
    ServerBusy,
    SessionResumeError,
    TransportError,
    ValidationError,
)
from repro.net import codec
from repro.net.codec import Frame, FrameDecoder, FrameType
from repro.net.transport import (
    DEFAULT_RECV_BYTES,
    RETRY_METRIC_HELP,
    RetryPolicy,
    Transport,
)
from repro.obs.registry import MetricsRegistry
from repro.store.state import SessionRecord, StateStore
from repro.obs.tracing import Tracer
from repro.spfe.validation import (
    ServerPolicy,
    check_ciphertext,
    check_hello,
    check_public_key,
    resume_state_bytes,
)

__all__ = [
    "ClientSession",
    "ServerSession",
    "SessionRegistry",
    "run_sessions_in_memory",
    "run_over_transport",
    "run_resilient",
    "serve_over_transport",
    "DEFAULT_CHUNK",
]

DEFAULT_CHUNK = 64


class ClientSession:
    """The querying side, as a byte-stream state machine."""

    def __init__(
        self,
        selection: Sequence[int],
        key_bits: int = 512,
        chunk_size: int = DEFAULT_CHUNK,
        rng: Optional[RandomSource] = None,
        wire_version: int = codec.WIRE_VERSION_2,
        keypair: Optional[SchemeKeyPair] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not selection:
            raise ProtocolError("selection must be non-empty")
        if any(w < 0 for w in selection):
            raise ProtocolError("selection weights must be non-negative")
        if chunk_size < 1:
            raise ProtocolError("chunk size must be positive")
        if wire_version not in (codec.WIRE_VERSION_1, codec.WIRE_VERSION_2):
            raise ProtocolError("unsupported wire version %d" % wire_version)
        self.selection = list(selection)
        self.key_bits = key_bits
        self.chunk_size = chunk_size
        self.wire_version = wire_version
        #: optional :class:`~repro.obs.tracing.Tracer` recording the
        #: paper's client phases (``encrypt``, ``decrypt``, ``resume``)
        self.tracer = tracer
        self._rng = as_random_source(rng)
        if keypair is None:
            keypair = generate_keypair(key_bits, self._rng)
        else:
            # A supplied key must fit the announced size (an oversized one
            # would overflow the fixed-width frames mid-stream) and be one
            # pair: encryption runs through the private half.
            check_public_key(keypair.public.n, key_bits)
            if keypair.private.public_key.n != keypair.public.n:
                raise KeyMismatchError(
                    "keypair's private key does not match its public key"
                )
        self.public_key: PaillierPublicKey = keypair.public
        self._private_key: PaillierPrivateKey = keypair.private
        #: 16-byte resumable-session identifier (None on legacy v1 wire)
        self.session_id: Optional[bytes] = (
            self._rng.randbytes(codec.SESSION_ID_BYTES)
            if wire_version == codec.WIRE_VERSION_2
            else None
        )
        self._decoder = FrameDecoder()
        self._encoded_chunks: Dict[int, bytes] = {}
        self._ack: Optional[int] = None
        self._awaiting_ack = False
        self.result: Optional[int] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Paillier encryptions performed — the resume machinery exists
        #: precisely so this never exceeds len(selection)
        self.encryptions = 0
        #: chunk frames handed to the transport, re-sends included
        self.chunk_frames_sent = 0

    # -- outgoing ---------------------------------------------------------

    @property
    def total_chunks(self) -> int:
        """Number of chunk frames the full selection occupies."""
        return (len(self.selection) + self.chunk_size - 1) // self.chunk_size

    def _sequence(self, value: int) -> Optional[int]:
        return value if self.wire_version == codec.WIRE_VERSION_2 else None

    def _chunk_frame(self, index: int) -> bytes:
        """Encode chunk ``index``, encrypting at most once per chunk."""
        cached = self._encoded_chunks.get(index)
        if cached is None:
            start = index * self.chunk_size
            chunk = self.selection[start : start + self.chunk_size]
            encrypt_started = time.perf_counter()
            ciphertexts = [
                self._private_key.encrypt_raw_crt(w, self._rng) for w in chunk
            ]
            if self.tracer is not None:
                self.tracer.record(
                    "encrypt", time.perf_counter() - encrypt_started
                )
            self.encryptions += len(chunk)
            cached = codec.encode_ciphertext_chunk(
                ciphertexts, self.key_bits, self._sequence(index)
            )
            self._encoded_chunks[index] = cached
        return cached

    def _chunk_frames_from(self, start: int) -> Iterator[bytes]:
        for index in range(start, self.total_chunks):
            data = self._chunk_frame(index)
            self.bytes_sent += len(data)
            self.chunk_frames_sent += 1
            yield data

    def initial_bytes(self) -> Iterator[bytes]:
        """The client's whole outgoing stream, chunk by chunk.

        Yields separately so a caller can interleave with socket writes
        (and so the server genuinely streams — it never needs the whole
        vector in memory at once, the §3.2 point).  Chunks are encrypted
        lazily and cached, so an interrupted stream has paid only for
        the chunks it actually produced.
        """
        hello = codec.encode_hello(
            self.key_bits,
            len(self.selection),
            self.chunk_size,
            self.session_id,
            self._sequence(0),
        )
        self.bytes_sent += len(hello)
        yield hello

        pk = codec.encode_public_key(
            self.public_key.n, self.key_bits, self._sequence(0)
        )
        self.bytes_sent += len(pk)
        yield pk

        for data in self._chunk_frames_from(0):
            yield data

    # -- resumption ---------------------------------------------------------

    def resume_request(self) -> bytes:
        """The RESUME frame to send on a fresh connection."""
        if self.session_id is None:
            raise SessionResumeError("legacy v1 sessions cannot resume")
        self._ack = None
        self._awaiting_ack = True
        data = codec.encode_resume(self.session_id)
        self.bytes_sent += len(data)
        return data

    @property
    def resume_ready(self) -> bool:
        """True once the server's ACK has been received."""
        return self._ack is not None

    def resume_bytes(self) -> Iterator[bytes]:
        """The stream to send after an ACK: only what the server lacks.

        Cached chunks are re-sent as bytes — no re-encryption.  If the
        server no longer knows the session, this degrades to the full
        :meth:`initial_bytes` stream (still reusing cached chunks).
        """
        if self._ack is None:
            raise SessionResumeError("no ACK received; send resume_request first")
        ack = self._ack
        self._ack = None
        if ack == codec.RESUME_UNKNOWN:
            for data in self.initial_bytes():
                yield data
            return
        if ack > self.total_chunks:
            raise ProtocolError(
                "server acknowledged chunk %d of %d" % (ack, self.total_chunks)
            )
        for data in self._chunk_frames_from(ack):
            yield data

    # -- incoming -----------------------------------------------------------

    def receive_bytes(self, data: bytes) -> None:
        """Consume server bytes; sets :attr:`result` when complete."""
        self.bytes_received += len(data)
        self._decoder.feed(data)
        for frame in self._decoder.frames():
            self._handle(frame)

    def _handle(self, frame: Frame) -> None:
        if frame.frame_type == FrameType.ERROR:
            code, message = codec.decode_error(frame.payload)
            exc_type = {
                codec.ERROR_CODE_POLICY: PolicyViolation,
                codec.ERROR_CODE_VALIDATION: ValidationError,
            }.get(code, ProtocolError)
            raise exc_type("server error: %s" % message)
        if frame.frame_type == FrameType.BUSY:
            hint_ms = codec.decode_busy(frame.payload)
            raise ServerBusy(
                "server is shedding load (retry after %d ms)" % hint_ms,
                retry_after_ms=hint_ms,
            )
        if frame.frame_type == FrameType.ACK:
            if not self._awaiting_ack:
                raise ProtocolError("unsolicited ACK from server")
            self._awaiting_ack = False
            self._ack = codec.decode_ack(frame.payload)
            return
        if frame.frame_type != FrameType.RESULT:
            raise ProtocolError(
                "client expected RESULT, got frame type %d" % frame.frame_type
            )
        if self.result is not None:
            raise ProtocolError("server sent more than one result")
        ciphertext = codec.decode_result(frame.payload, self.key_bits)
        decrypt_started = time.perf_counter()
        self.result = self._private_key.raw_decrypt(ciphertext)
        if self.tracer is not None:
            self.tracer.record(
                "decrypt", time.perf_counter() - decrypt_started
            )


class _ResumeState:
    """Everything the server must keep to resume one session.

    Sessions never share a live state object: what a
    :class:`ServerSession` mutates is always its private copy, and what
    sits in the :class:`SessionRegistry` is always a frozen
    :meth:`snapshot` of one — so a client that reconnects while its old
    connection is still being served can never observe (or double-fold
    into) a state another thread is mid-way through mutating.
    """

    __slots__ = (
        "key_bits",
        "chunk_size",
        "public_key",
        "aggregate",
        "buckets",
        "received",
        "chunks_received",
        "done",
    )

    def __init__(self, key_bits: int, chunk_size: int, public_key: PaillierPublicKey) -> None:
        self.key_bits = key_bits
        self.chunk_size = chunk_size
        self.public_key = public_key
        self.aggregate = 1
        #: digit-plane buckets of the chunks folded so far (see
        #: :func:`~repro.crypto.multiexp.plane_insert`); None once the
        #: session is done and they have collapsed into ``aggregate``
        self.buckets: Optional[List[int]] = []
        self.received = 0
        self.chunks_received = 0
        self.done = False

    @property
    def resident_bytes(self) -> int:
        """What this state costs the registry's byte budget."""
        base = resume_state_bytes(self.key_bits)
        if not self.buckets:
            return base
        return base + len(self.buckets) * bytes_for_bits(2 * self.key_bits)

    def snapshot(self) -> "_ResumeState":
        """An independent copy (the public key is shared — it is never
        mutated)."""
        dup = _ResumeState(self.key_bits, self.chunk_size, self.public_key)
        dup.aggregate = self.aggregate
        dup.buckets = None if self.buckets is None else list(self.buckets)
        dup.received = self.received
        dup.chunks_received = self.chunks_received
        dup.done = self.done
        return dup


class SessionRegistry:
    """Server-side store of resumable sessions, LRU-bounded twice over.

    One registry serves one database; share it across connections so a
    reconnecting client finds its half-finished session.  Two independent
    bounds protect server memory: ``capacity`` caps the session *count*,
    ``max_bytes`` caps the resident ciphertext *bytes* (a handful of
    4096-bit sessions can outweigh dozens of 512-bit ones, so count alone
    is not a memory bound).  Least-recently-touched sessions are evicted
    first, and an evicted session simply restarts from scratch (the ACK
    tells the client so) — resumption is an optimisation, never a
    correctness requirement.

    The registry is thread-safe: one instance is shared by every worker
    of a concurrent :class:`~repro.net.server.SpfeServer`, so all access
    to the LRU map and the byte accounting happens under an internal
    lock.  Stored states are treated as frozen — sessions save
    :meth:`_ResumeState.snapshot` copies and copy again on resume — so
    an entry read under the lock stays consistent after it is released.

    With a :class:`~repro.store.state.StateStore` attached the registry
    becomes a *journal*: every save is also written durably, a memory
    miss falls back to the journal (so a **restarted** server process
    resumes sessions its predecessor was serving), and eviction/discard
    delete the journal row too — an evicted session answers
    ``RESUME_UNKNOWN`` after a restart exactly as it does before one,
    never a stale snapshot.  Store writes happen outside the registry
    lock but under a journal-order lock taken *before* the registry lock
    is released (lock order: registry, journal order, store, never
    back), so the store sees deletes and upserts in the same order as
    the in-memory map — a delayed upsert can never bring back a row
    that a later eviction deleted.
    """

    def __init__(
        self,
        capacity: int = 64,
        max_bytes: Optional[int] = None,
        store: Optional[StateStore] = None,
    ) -> None:
        if capacity < 1:
            raise ParameterError("registry capacity must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ParameterError("registry byte budget must be positive")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.store = store
        self._lock = threading.Lock()
        #: serialises journal writes in registry order; see the class
        #: docstring for the lock order
        self._journal_lock = threading.Lock()
        self._states: "OrderedDict[bytes, _ResumeState]" = OrderedDict()
        self.evictions = 0
        #: sessions recovered from the journal after a memory miss
        #: (i.e. across a process restart)
        self.recoveries = 0
        #: resident ciphertext bytes across all stored states
        self.resident_bytes = 0

    @classmethod
    def from_policy(
        cls, policy: ServerPolicy, store: Optional[StateStore] = None
    ) -> "SessionRegistry":
        """Build a registry sized by a :class:`ServerPolicy`."""
        return cls(
            capacity=policy.max_registry_sessions,
            max_bytes=policy.max_registry_bytes,
            store=store,
        )

    @staticmethod
    def _state_bytes(state: _ResumeState) -> int:
        # getattr so the registry stays usable with stand-in states in
        # tests; real _ResumeState always carries resident_bytes.
        return getattr(state, "resident_bytes", 0)

    @staticmethod
    def _record_from_state(
        session_id: bytes, state: _ResumeState
    ) -> SessionRecord:
        return SessionRecord(
            session_id=session_id,
            key_bits=state.key_bits,
            chunk_size=state.chunk_size,
            public_n=state.public_key.n,
            aggregate=state.aggregate,
            received=state.received,
            chunks_received=state.chunks_received,
            done=state.done,
            buckets=None if state.buckets is None else tuple(state.buckets),
        )

    @staticmethod
    def _state_from_record(record: SessionRecord) -> _ResumeState:
        state = _ResumeState(
            record.key_bits,
            record.chunk_size,
            PaillierPublicKey(record.public_n),
        )
        state.aggregate = record.aggregate
        if record.done:
            state.buckets = None
        else:
            # A row journalled before buckets were stored (schema v3)
            # carries its folded chunks in the aggregate alone; the
            # closing fold then starts from that aggregate.
            state.buckets = list(record.buckets or ())
        state.received = record.received
        state.chunks_received = record.chunks_received
        state.done = record.done
        return state

    def _evict_lru_locked(self) -> bytes:
        """Evict the LRU entry; caller holds ``self._lock``.

        Returns the evicted session id so the caller can delete the
        journal row *after* releasing the lock.
        """
        session_id, evicted = self._states.popitem(last=False)
        self.resident_bytes -= self._state_bytes(evicted)
        self.evictions += 1
        return session_id

    def _insert_locked(
        self, session_id: bytes, state: _ResumeState
    ) -> List[bytes]:
        """Insert/refresh an entry; caller holds ``self._lock``.

        Returns the session ids evicted to make room.
        """
        previous = self._states.get(session_id)
        if previous is not None:
            self.resident_bytes -= self._state_bytes(previous)
        self._states[session_id] = state
        self.resident_bytes += self._state_bytes(state)
        self._states.move_to_end(session_id)
        evicted: List[bytes] = []
        while len(self._states) > self.capacity:
            evicted.append(self._evict_lru_locked())
        if self.max_bytes is not None:
            while (
                len(self._states) > 1
                and self.resident_bytes > self.max_bytes
            ):
                evicted.append(self._evict_lru_locked())
        return evicted

    def _journal_released(
        self,
        deleted: Sequence[bytes],
        record: Optional[SessionRecord] = None,
    ) -> None:
        """Apply journal deletes, then an optional upsert, and release
        ``self._journal_lock`` — which the caller took while still
        holding ``self._lock``."""
        assert self.store is not None
        try:
            for session_id in deleted:
                self.store.delete_session(session_id)
            if record is not None:
                self.store.save_session(record)
        finally:
            self._journal_lock.release()

    def save(self, session_id: bytes, state: _ResumeState) -> None:
        """Insert or refresh a session, evicting LRU beyond either bound.

        The newest session is never evicted on its own account: a state
        larger than ``max_bytes`` by itself still resumes, it just has
        the registry to itself.  With a store attached the snapshot is
        journalled durably *before* this method returns — which is what
        lets :meth:`ServerSession.receive_bytes` guarantee that a RESULT
        is journalled before it is sent.
        """
        record = (
            None
            if self.store is None
            else self._record_from_state(session_id, state)
        )
        with self._lock:
            evicted = self._insert_locked(session_id, state)
            if record is None:
                return
            self._journal_lock.acquire()
        self._journal_released(evicted, record)

    def get(self, session_id: bytes) -> Optional[_ResumeState]:
        """Look up (and LRU-touch) a session; None when unknown/evicted.

        On a memory miss with a store attached, the journal is
        consulted: a hit means this process restarted since the session
        was journalled, so the snapshot is rehydrated into memory and
        the resume proceeds as if the crash never happened.  Eviction
        deletes the journal row, so an evicted session stays unknown
        here — never a stale snapshot.
        """
        with self._lock:
            state = self._states.get(session_id)
            if state is not None:
                self._states.move_to_end(session_id)
                return state
        if self.store is None:
            return None
        record = self.store.load_session(session_id)
        if record is None:
            return None
        state = self._state_from_record(record)
        with self._lock:
            # A concurrent resume may have rehydrated first; prefer the
            # entry already in memory (it can only be newer).
            existing = self._states.get(session_id)
            if existing is not None:
                self._states.move_to_end(session_id)
                return existing
            evicted = self._insert_locked(session_id, state)
            self.recoveries += 1
            self._journal_lock.acquire()
        self._journal_released(evicted)
        return state

    def discard(self, session_id: bytes) -> None:
        """Forget a session if present (memory *and* journal)."""
        with self._lock:
            state = self._states.pop(session_id, None)
            if state is not None:
                self.resident_bytes -= self._state_bytes(state)
            if self.store is None:
                return
            self._journal_lock.acquire()
        self._journal_released([session_id])

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)

    def __contains__(self, session_id: bytes) -> bool:
        with self._lock:
            return session_id in self._states


class ServerSession:
    """The database side, as a byte-stream state machine.

    Pass a shared :class:`SessionRegistry` to make sessions resumable
    across connections; without one the server still speaks v1 and v2
    wire but answers every RESUME with "unknown, restart".

    Thread safety: this class performs **no I/O** —
    :meth:`receive_bytes` maps input bytes to output bytes and touches
    only per-session state, so one session may be driven from any single
    thread.  The only shared objects it reaches are the
    :class:`SessionRegistry` (every method takes the registry lock; its
    optional :class:`~repro.store.state.StateStore` serialises on its own
    connection lock) and the metrics/tracer instruments (each mutation
    under the instrument's lock).  A *single* session object must still
    not be fed from two threads at once — :class:`~repro.net.server.SpfeServer`
    guarantees that by construction (one connection, one worker thread).
    """

    _WAIT_HELLO = "wait-hello"
    _WAIT_KEY = "wait-key"
    _RECEIVING = "receiving"
    _DONE = "done"

    def __init__(
        self,
        database: ServerDatabase,
        registry: Optional[SessionRegistry] = None,
        policy: Optional[ServerPolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.database = database
        self.registry = registry
        #: optional :class:`~repro.obs.tracing.Tracer` recording the
        #: server's ``fold`` phase (a concurrent server shares one
        #: tracer across all of its sessions)
        self.tracer = tracer
        #: trust-boundary limits; None preserves the legacy permissive mode
        self.policy = policy
        self._decoder = FrameDecoder(
            max_payload=policy.max_frame_payload if policy else None
        )
        self._state = self._WAIT_HELLO
        self._key_bits = 0
        self._chunk_size = 0
        self._public_key: Optional[PaillierPublicKey] = None
        self._aggregate = 1
        #: digit-plane buckets of the chunks folded so far; collapsed
        #: into ``_aggregate`` (and set to None) when the last one lands
        self._buckets: Optional[List[int]] = []
        self._received = 0
        self._chunks_received = 0
        self._session_id: Optional[bytes] = None
        self._resume_state: Optional[_ResumeState] = None
        #: True once this read registered the session or folded a chunk:
        #: :meth:`receive_bytes` then publishes one snapshot at its end
        self._unpublished = False
        self._peer_wire_version = codec.WIRE_VERSION_1
        self.bytes_received = 0
        self.bytes_sent = 0
        #: True once a protocol violation has been answered with ERROR
        self.errored = False
        #: the exception behind :attr:`errored`, for typed accounting
        self.last_error: Optional[ProtocolError] = None
        #: chunk frames folded into the aggregate (duplicates excluded)
        self.chunk_frames_processed = 0

    @staticmethod
    def _error_code(exc: ProtocolError) -> int:
        if isinstance(exc, PolicyViolation):
            return codec.ERROR_CODE_POLICY
        if isinstance(exc, ValidationError):
            return codec.ERROR_CODE_VALIDATION
        return codec.ERROR_CODE_PROTOCOL

    def receive_bytes(self, data: bytes) -> bytes:
        """Consume client bytes; returns reply bytes (possibly empty).

        Resume state is published once per call — one registry snapshot
        and, with a store attached, one journal commit — and only if
        the call registered the session or folded at least one chunk.
        The commit happens before the reply is returned, so a RESULT is
        journalled before it can be sent; a crash loses at most the
        chunks of one read, which the client re-sends from its cache.
        A call that ends in a protocol violation publishes nothing: the
        session is discarded instead.
        """
        self.bytes_received += len(data)
        out = bytearray()
        try:
            if (
                self.policy is not None
                and self.bytes_received > self.policy.max_session_bytes
            ):
                raise PolicyViolation(
                    "session exceeded its %d-byte inbound quota"
                    % self.policy.max_session_bytes
                )
            self._decoder.feed(data)
            for frame in self._decoder.frames():
                self._peer_wire_version = frame.version
                out.extend(self._handle(frame))
        except ProtocolError as exc:
            self.errored = True
            self.last_error = exc
            self._unpublished = False
            if self.registry is not None and self._session_id is not None:
                # Never keep resume state for a session that violated the
                # protocol: a rejected peer must restart, not resume.
                self.registry.discard(self._session_id)
            error = codec.encode_error(
                str(exc), self._error_code(exc), self._reply_sequence()
            )
            self.bytes_sent += len(error)
            return bytes(error)
        if self._unpublished:
            # Publish a frozen snapshot: registry entries are never
            # mutated in place, so a concurrent resume always reads a
            # self-consistent (buckets, received) pair and can never
            # double-fold a chunk.
            assert self.registry is not None and self._session_id is not None
            assert self._resume_state is not None
            self._unpublished = False
            self.registry.save(self._session_id, self._resume_state.snapshot())
        self.bytes_sent += len(out)
        return bytes(out)

    @property
    def finished(self) -> bool:
        """True once the result has been produced."""
        return self._state == self._DONE

    def _reply_sequence(self) -> Optional[int]:
        return 0 if self._peer_wire_version == codec.WIRE_VERSION_2 else None

    # -- state machine ---------------------------------------------------------

    def _handle(self, frame: Frame) -> bytes:
        if frame.frame_type == FrameType.RESUME:
            return self._on_resume(frame)
        if self._state == self._WAIT_HELLO:
            return self._on_hello(frame)
        if self._state == self._WAIT_KEY:
            return self._on_key(frame)
        if self._state == self._RECEIVING:
            return self._on_chunk(frame)
        raise ProtocolError("unexpected frame after protocol completion")

    def _on_hello(self, frame: Frame) -> bytes:
        if frame.frame_type != FrameType.HELLO:
            raise ProtocolError("expected HELLO first")
        key_bits, database_size, chunk_size, session_id = codec.decode_hello(
            frame.payload
        )
        if self.policy is not None:
            check_hello(key_bits, database_size, chunk_size, self.policy)
        elif chunk_size < 1:
            raise ProtocolError("chunk size must be positive")
        if database_size != len(self.database):
            raise ProtocolError(
                "client assumes %d elements; this database has %d"
                % (database_size, len(self.database))
            )
        worst = database_size * (2**self.database.value_bits - 1)
        if worst.bit_length() >= key_bits:
            raise ProtocolError("key too small for the worst-case sum")
        self._key_bits = key_bits
        self._chunk_size = chunk_size
        self._session_id = session_id
        self._state = self._WAIT_KEY
        return b""

    def _on_key(self, frame: Frame) -> bytes:
        if frame.frame_type != FrameType.PUBLIC_KEY:
            raise ProtocolError("expected PUBLIC_KEY after HELLO")
        n = codec.decode_public_key(frame.payload)
        if n.bit_length() > self._key_bits:
            raise ProtocolError("public key larger than announced")
        if self.policy is not None:
            check_public_key(n, self._key_bits)
        self._public_key = PaillierPublicKey(n)
        self._state = self._RECEIVING
        if self.registry is not None and self._session_id is not None:
            # Only register once the key is known: a pre-key session has
            # nothing worth resuming, so RESUME answers "restart".  The
            # registry holds a frozen snapshot; this session keeps (and
            # mutates) its own private copy.
            self._resume_state = _ResumeState(
                self._key_bits, self._chunk_size, self._public_key
            )
            self._unpublished = True
        return b""

    def _on_resume(self, frame: Frame) -> bytes:
        if self._state != self._WAIT_HELLO:
            raise ProtocolError("RESUME must be the first frame of a connection")
        session_id = codec.decode_resume(frame.payload)
        entry = self.registry.get(session_id) if self.registry is not None else None
        if entry is None:
            # Unknown or evicted: tell the client to start over.
            return codec.encode_ack(codec.RESUME_UNKNOWN, self._reply_sequence())
        # Copy-on-resume: work on a private copy so a second connection
        # resuming the same id (an honest client whose old read timed
        # out, reconnecting while the stale connection is still being
        # served) never shares mutable state with this one.
        state = entry.snapshot()
        self._session_id = session_id
        self._resume_state = state
        self._key_bits = state.key_bits
        self._chunk_size = state.chunk_size
        self._public_key = state.public_key
        self._aggregate = state.aggregate
        self._buckets = state.buckets
        self._received = state.received
        self._chunks_received = state.chunks_received
        reply = codec.encode_ack(state.chunks_received, self._reply_sequence())
        if state.done:
            # The previous connection died between computing the result
            # and the client receiving it: re-send the result directly.
            self._state = self._DONE
            reply += codec.encode_result(
                self._aggregate, self._key_bits, self._reply_sequence()
            )
        else:
            self._state = self._RECEIVING
        return reply

    def _on_chunk(self, frame: Frame) -> bytes:
        if frame.frame_type != FrameType.ENC_CHUNK:
            raise ProtocolError("expected ENC_CHUNK")
        assert self._public_key is not None
        if frame.version == codec.WIRE_VERSION_2:
            if frame.sequence < self._chunks_received:
                return b""  # duplicate of an already-folded chunk: ignore
            if frame.sequence > self._chunks_received:
                raise ProtocolError(
                    "chunk sequence gap: got %d, expected %d"
                    % (frame.sequence, self._chunks_received)
                )
        ciphertexts = codec.decode_ciphertext_chunk(frame.payload, self._key_bits)
        if self._received + len(ciphertexts) > len(self.database):
            raise ProtocolError("client sent more ciphertexts than elements")
        assert self._buckets is not None
        nsquare = self._public_key.nsquare
        n = self._public_key.n
        batch_cts: List[int] = []
        batch_weights: List[int] = []
        for ct in ciphertexts:
            if self.policy is not None:
                check_ciphertext(ct, n, nsquare)
            elif not 0 < ct < nsquare:
                raise ProtocolError("ciphertext outside Z*_{n^2}")
            value = self.database[self._received]
            if value:
                batch_cts.append(ct)
                batch_weights.append(value % n)
            self._received += 1
        done = self._received == len(self.database)
        # Fold each element into the persistent digit-plane buckets: a
        # fixed ~7.5 multiplications per element at any chunk size (the
        # paper's §3.2 pipelining).  The bucket sweep and squaring chain
        # are paid once, by the closing multiexp when the last chunk
        # lands; the product is a function of the frames alone, so the
        # RESULT is the same ciphertext a per-chunk fold produces.
        fold_started = time.perf_counter()
        plane_insert(self._buckets, batch_cts, batch_weights, nsquare)
        if done:
            bases, exponents = plane_terms(self._buckets)
            self._aggregate = multi_exponent(
                bases, exponents, nsquare, initial=self._aggregate
            )
            self._buckets = None
        if self.tracer is not None:
            self.tracer.record("fold", time.perf_counter() - fold_started)
        self._chunks_received += 1
        self.chunk_frames_processed += 1
        if self._resume_state is not None:
            state = self._resume_state
            state.aggregate = self._aggregate
            state.buckets = self._buckets
            state.received = self._received
            state.chunks_received = self._chunks_received
            state.done = done
            self._unpublished = True
        if done:
            self._state = self._DONE
            return codec.encode_result(
                self._aggregate, self._key_bits, self._reply_sequence()
            )
        return b""


def run_sessions_in_memory(
    client: ClientSession, server: ServerSession
) -> int:
    """Drive a session pair to completion through in-memory byte handoff.

    Returns the client's decrypted sum.  (The socket variant lives in
    the tests; this helper is the transport-free reference driver.)
    """
    for outgoing in client.initial_bytes():
        reply = server.receive_bytes(outgoing)
        if reply:
            client.receive_bytes(reply)
    if client.result is None:
        raise ProtocolError("protocol completed without a result")
    return client.result


# -- transport drivers --------------------------------------------------------


def serve_over_transport(
    session: ServerSession,
    transport: Transport,
    recv_bytes: int = DEFAULT_RECV_BYTES,
) -> ServerSession:
    """Serve one connection until completion, error, or peer close.

    Transport failures (including read timeouts — the transport should
    carry a deadline so a dead peer cannot hang the server) propagate as
    typed :class:`~repro.exceptions.TransportError`\\ s.
    """
    while True:
        data = transport.recv(recv_bytes)
        if not data:
            break  # peer closed; a resumable client will reconnect
        reply = session.receive_bytes(data)
        if reply:
            transport.send(reply)
        if session.errored or session.finished:
            break
    return session


def _drain_early_replies(
    client: ClientSession, transport: Transport, recv_bytes: int
) -> None:
    """Process anything the server already said while we were streaming.

    A hardened server rejects a bad session (policy violation, invalid
    key, load shed) while the client still has chunks in flight.
    Reading eagerly between sends surfaces the typed ERROR or BUSY
    frame instead of a broken pipe on the next write.
    """
    while client.result is None and transport.recv_ready():
        data = transport.recv(recv_bytes)
        if not data:
            raise TransportError("server closed the connection mid-stream")
        client.receive_bytes(data)


def run_over_transport(
    client: ClientSession,
    transport: Transport,
    recv_bytes: int = DEFAULT_RECV_BYTES,
) -> int:
    """Run a client to completion over one connection (no reconnects)."""
    for outgoing in client.initial_bytes():
        transport.send(outgoing)
        _drain_early_replies(client, transport, recv_bytes)
    while client.result is None:
        data = transport.recv(recv_bytes)
        if not data:
            raise TransportError("server closed the connection before the result")
        client.receive_bytes(data)
    return client.result


def run_resilient(
    client: ClientSession,
    connect: Callable[[], Transport],
    policy: Optional[RetryPolicy] = None,
    rng: Optional[RandomSource] = None,
    sleep: Callable[[float], None] = time.sleep,
    recv_bytes: int = DEFAULT_RECV_BYTES,
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Run a client to completion across reconnects and resumes.

    ``connect`` opens a fresh :class:`~repro.net.transport.Transport`
    (and may itself raise transport errors, which count as failed
    attempts).  On a transport failure mid-run the client reconnects
    under ``policy`` and resumes from the server's ACK — re-sending
    cached ciphertext chunks, never re-encrypting.  This covers a
    *restarted* server process too: a ``--state-dir`` server answers
    the RESUME from its journal, and a server that lost the session
    answers ``RESUME_UNKNOWN``, degrading to a fresh session that still
    reuses every cached ciphertext.  Protocol violations are *not*
    retried; they propagate immediately.

    A BUSY shed (:class:`~repro.exceptions.ServerBusy`) is retried on
    the policy's dedicated busy schedule — longer backoff, floored at
    the server's ``retry_after_ms`` hint — so shed clients re-enter
    gently instead of stampeding a saturated server.

    An optional ``metrics`` registry gets the same attempt/backoff/
    give-up instruments as :func:`~repro.net.transport.call_with_retry`
    plus ``repro_retry_busy_total``; a client constructed with a tracer
    additionally records a ``resume`` span per reconnect handshake.

    Raises :class:`~repro.exceptions.RetryExhausted` (with the last
    transport failure chained) when the policy gives up.
    """
    policy = policy or RetryPolicy()
    rng = as_random_source(rng)
    attempts = (
        metrics.counter(
            "repro_retry_attempts_total",
            RETRY_METRIC_HELP["repro_retry_attempts_total"],
        )
        if metrics is not None
        else None
    )
    resuming = False
    last: Optional[TransportError] = None
    for attempt in range(policy.max_attempts):
        if attempt:
            if isinstance(last, ServerBusy):
                delay = policy.busy_delay_s(attempt, rng, last.retry_after_ms)
                if metrics is not None:
                    metrics.counter(
                        "repro_retry_busy_total",
                        RETRY_METRIC_HELP["repro_retry_busy_total"],
                    ).inc()
            else:
                delay = policy.delay_s(attempt, rng)
            if metrics is not None:
                metrics.histogram(
                    "repro_retry_backoff_seconds",
                    RETRY_METRIC_HELP["repro_retry_backoff_seconds"],
                ).observe(delay)
            sleep(delay)
        if attempts is not None:
            attempts.inc()
        try:
            transport = connect()
        except TransportError as exc:
            last = exc
            continue
        try:
            if resuming:
                resume_started = time.perf_counter()
                transport.send(client.resume_request())
                while not client.resume_ready and client.result is None:
                    data = transport.recv(recv_bytes)
                    if not data:
                        raise TransportError("connection closed awaiting ACK")
                    client.receive_bytes(data)
                if client.tracer is not None:
                    client.tracer.record(
                        "resume", time.perf_counter() - resume_started
                    )
                stream = client.resume_bytes() if client.result is None else iter(())
            else:
                stream = client.initial_bytes()
            for outgoing in stream:
                transport.send(outgoing)
                _drain_early_replies(client, transport, recv_bytes)
            while client.result is None:
                data = transport.recv(recv_bytes)
                if not data:
                    raise TransportError(
                        "server closed the connection before the result"
                    )
                client.receive_bytes(data)
            return client.result
        except TransportError as exc:
            last = exc
            resuming = client.session_id is not None
        finally:
            transport.close()
    if metrics is not None:
        metrics.counter(
            "repro_retry_giveups_total",
            RETRY_METRIC_HELP["repro_retry_giveups_total"],
        ).inc()
    raise RetryExhausted(
        "gave up after %d attempts: %s" % (policy.max_attempts, last)
    ) from last
