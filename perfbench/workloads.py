"""The benchmark's workloads and the seeded clients that drive them.

Every input derives from the workload seed: the database (the server
builds it from ``--random N --seed S``, the benchmark rebuilds it with
``WorkloadGenerator(S)`` to check sums), the client key pair, the
§3.3 ciphertext pools, each query's selection and session id.  All
loops are closed: a connection sends its next query only after the
previous one returned its sum.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.paillier import RandomnessPool, generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.datastore.database import ServerDatabase
from repro.exceptions import ProtocolError, ReproError, ServerBusy
from repro.net import codec
from repro.net.transport import RetryPolicy, SocketTransport
from repro.spfe.session import ClientSession, run_resilient

#: the paper's key size; its 32-bit values are WorkloadGenerator's default
KEY_BITS = 512
#: connect and per-read deadline for every benchmark connection
SOCKET_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    chunk: int
    connections: int
    #: §3.3 clients: frames built from precomputed E(0)/E(1) pools
    preprocessed: bool
    #: serve with ``--state-dir``, so every chunk commits a journal row
    journal: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "query_1k", 1000, 64, 1, preprocessed=False, journal=False,
            why="one connection of plain queries: client Paillier encryption "
            "is most of latency, so server layers should read no change",
        ),
        Workload(
            "fleet_1k", 1000, 64, 2, preprocessed=True, journal=False,
            why="two connections of preprocessed clients: server multiexp fold "
            "and validation bound throughput; no store",
        ),
        Workload(
            "fleet_journal_chunk8", 1000, 8, 2, preprocessed=True, journal=True,
            why="preprocessed fleet with chunk 8 and a state dir: 125 chunks "
            "per query, each folded and journal-committed",
        ),
    )
}


class WrongSum(AssertionError):
    """A decrypted sum differed from the plaintext reference."""

    def __init__(self, message: str, outcome: "Outcome") -> None:
        super().__init__(message)
        #: the query, marked failed, so that the run still counts it
        self.outcome = outcome


@dataclass
class Outcome:
    """One query as the load generator saw it."""

    ok: bool
    latency_s: float
    bytes_sent: int
    bytes_received: int
    #: hex session id and CLOCK_MONOTONIC time just before connecting
    session_id: str = ""
    connect_stamp: float = 0.0
    error: str = ""


def draw_ciphertexts(
    pools: Tuple[List[int], List[int]], bits: Sequence[int], rnd: random.Random
) -> List[int]:
    """One chunk's §3.3 pool fetch: a random pool entry of E(bit) per position."""
    size = len(pools[0])
    return [pools[bit][rnd.randrange(size)] for bit in bits]


def make_unique(
    ciphertexts: List[int], zeros: List[int], rnd: random.Random, nsquare: int
) -> List[int]:
    """Multiply each ciphertext by three random pool entries of E(0).

    A deployed §3.3 client spends each pool entry once, so its server
    never sees a ciphertext twice.  The benchmark's pools are only n
    entries per bit, so it stands in for fresh entries this way: the
    plaintext is kept and repeats become rare (about n^4 / 24
    combinations per bit: ~0.3% of a tiny n = 64 run, about two in a
    million at n = 1000), for three multiplications mod n^2 per position.
    """
    size = len(zeros)
    return [
        c
        * zeros[rnd.randrange(size)]
        % nsquare
        * zeros[rnd.randrange(size)]
        % nsquare
        * zeros[rnd.randrange(size)]
        % nsquare
        for c in ciphertexts
    ]


def full_width_key_seed(db_seed: str) -> str:
    """The seed of the first key pair drawn for ``db_seed`` whose modulus
    has all :data:`KEY_BITS` bits.

    ``generate_keypair(512, ...)`` gives a 511-bit n about half the
    time, and encryption under it is ~3% cheaper, which would show as
    seed-to-seed spread.  Found once per run, before anything is timed.
    """
    for attempt in itertools.count():
        seed = "%s/key/%d" % (db_seed, attempt)
        keypair = generate_keypair(KEY_BITS, DeterministicRandom(seed))
        if keypair.public.n.bit_length() == KEY_BITS:
            return seed
    raise AssertionError("unreachable")


class Client:
    """A seeded client after its offline work (key pair, §3.3 pools)."""

    def __init__(
        self,
        workload: Workload,
        db_seed: str,
        key_seed: str,
        database: ServerDatabase,
        tamper: int = 0,
    ) -> None:
        self.workload = workload
        self.db_seed = db_seed
        self.database = database
        #: added to every expected sum; nonzero only in the self-check
        self.tamper = tamper
        self.keypair = generate_keypair(KEY_BITS, DeterministicRandom(key_seed))
        self.pools: Optional[Tuple[List[int], List[int]]] = None
        #: hashes of the ciphertexts sent so far, and how many were sent
        self.sent_hashes: set = set()
        self.sent = 0
        self._sent_lock = threading.Lock()
        if workload.preprocessed:
            # §3.3 offline work: n encryptions of 0 and n of 1, with
            # obfuscators from the fixed-base pool.
            n = len(database)
            public = self.keypair.public
            pool = RandomnessPool(
                public, DeterministicRandom("%s/pool" % db_seed), fixed_base=True
            )
            pool.precompute(2 * n)
            obfuscators = pool.take_many(2 * n)
            self.pools = (
                [public.raw_encrypt(0, r) for r in obfuscators[:n]],
                [public.raw_encrypt(1, r) for r in obfuscators[n:]],
            )

    def query(self, index: int, address: Tuple[str, int]) -> Outcome:
        """Run query ``index``; raises :class:`WrongSum` on a bad sum."""
        rnd = random.Random("%s/query/%d" % (self.db_seed, index))
        n = len(self.database)
        word = rnd.getrandbits(n)
        bits = [(word >> i) & 1 for i in range(n)]
        expected = self.database.select_sum(bits) + self.tamper
        if self.pools is not None:
            outcome, value = self._preprocessed(bits, rnd, address)
        else:
            outcome, value = self._plain(bits, index, address)
        if outcome.ok and value != expected:
            outcome.ok = False
            outcome.error = "query %d: decrypted sum %d, expected %d" % (
                index, value, expected,
            )
            raise WrongSum(outcome.error, outcome)
        return outcome

    @property
    def repeat_share(self) -> float:
        """Share of the sent ciphertexts that had been sent before."""
        with self._sent_lock:
            return 1.0 - len(self.sent_hashes) / self.sent if self.sent else 0.0

    def _plain(
        self, bits: List[int], index: int, address: Tuple[str, int]
    ) -> Tuple[Outcome, Optional[int]]:
        session = ClientSession(
            bits,
            key_bits=KEY_BITS,
            chunk_size=self.workload.chunk,
            rng=DeterministicRandom("%s/query/%d" % (self.db_seed, index)),
            keypair=self.keypair,
        )
        transports: List[SocketTransport] = []
        stamps: List[float] = []

        def connect() -> SocketTransport:
            stamps.append(time.monotonic())
            transport = SocketTransport.connect(
                *address,
                connect_timeout=SOCKET_TIMEOUT_S,
                read_timeout=SOCKET_TIMEOUT_S,
            )
            transports.append(transport)
            return transport

        started = time.perf_counter()
        value: Optional[int] = None
        error = ""
        try:
            # one attempt: a refused or dropped query counts as failed
            value = run_resilient(session, connect, policy=RetryPolicy(max_attempts=1))
        except ReproError as exc:
            error = repr(exc)
        latency = time.perf_counter() - started
        outcome = Outcome(
            ok=value is not None,
            latency_s=latency,
            bytes_sent=sum(t.bytes_sent for t in transports),
            bytes_received=sum(t.bytes_received for t in transports),
            session_id=session.session_id.hex() if session.session_id else "",
            connect_stamp=stamps[0] if stamps else 0.0,
            error=error,
        )
        return outcome, value

    def _preprocessed(
        self, bits: List[int], rnd: random.Random, address: Tuple[str, int]
    ) -> Tuple[Outcome, Optional[int]]:
        assert self.pools is not None
        chunk = self.workload.chunk
        n = len(bits)
        session_id = rnd.randbytes(codec.SESSION_ID_BYTES)
        stamp = time.monotonic()
        started = time.perf_counter()
        transport: Optional[SocketTransport] = None
        value: Optional[int] = None
        error = ""
        nsquare = self.keypair.public.nsquare
        hashes: List[int] = []
        try:
            transport = SocketTransport.connect(
                *address,
                connect_timeout=SOCKET_TIMEOUT_S,
                read_timeout=SOCKET_TIMEOUT_S,
            )
            transport.send(codec.encode_hello(KEY_BITS, n, chunk, session_id, 0))
            transport.send(
                codec.encode_public_key(self.keypair.public.n, KEY_BITS, 0)
            )
            for sequence, start in enumerate(range(0, n, chunk)):
                ciphertexts = make_unique(
                    draw_ciphertexts(self.pools, bits[start : start + chunk], rnd),
                    self.pools[0],
                    rnd,
                    nsquare,
                )
                hashes.extend(map(hash, ciphertexts))
                transport.send(
                    codec.encode_ciphertext_chunk(ciphertexts, KEY_BITS, sequence)
                )
            value = self.keypair.private.raw_decrypt(_await_result(transport))
        except ReproError as exc:
            error = repr(exc)
        finally:
            if transport is not None:
                transport.close()
        latency = time.perf_counter() - started
        with self._sent_lock:
            self.sent += len(hashes)
            self.sent_hashes.update(hashes)
        outcome = Outcome(
            ok=value is not None,
            latency_s=latency,
            bytes_sent=transport.bytes_sent if transport else 0,
            bytes_received=transport.bytes_received if transport else 0,
            session_id=session_id.hex(),
            connect_stamp=stamp,
            error=error,
        )
        return outcome, value


def _await_result(transport: SocketTransport) -> int:
    """Read until the server's RESULT frame; typed errors otherwise."""
    decoder = codec.FrameDecoder()
    while True:
        data = transport.recv()
        if not data:
            raise ProtocolError("server closed the connection before the result")
        decoder.feed(data)
        for frame in decoder.frames():
            if frame.frame_type == codec.FrameType.RESULT:
                return codec.decode_result(frame.payload, KEY_BITS)
            if frame.frame_type == codec.FrameType.BUSY:
                raise ServerBusy("server shed the query")
            if frame.frame_type == codec.FrameType.ERROR:
                raise ProtocolError(
                    "server error: %s" % codec.decode_error(frame.payload)[1]
                )
            raise ProtocolError("unexpected frame type %d" % frame.frame_type)
