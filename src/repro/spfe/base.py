"""Shared machinery for the selected-sum protocol family.

Every in-process protocol is built from one client/server round, whose
steps are written here once:

* key setup (:meth:`SelectedSumBase.setup_keys`): reuse or generate the
  client's key pair, time key generation, check capacity;
* key announcement (:meth:`SelectedSumBase.open_round`): a fresh
  channel, each party's virtual clock, and the client's public key on
  the wire;
* upload (:meth:`SelectedSumBase.upload`): one framed message per
  ciphertext;
* reply and decryption (:meth:`SelectedSumBase.reply_and_decrypt`, or
  :meth:`~SelectedSumBase.reply` and :meth:`~SelectedSumBase.decrypt`
  when the client gathers several replies).

The paper's §3.4 is preprocessing (§3.3) plus batching (§3.2), and the
two are independent choices over that round.  How the client gets its
ciphertexts is the hook :meth:`SelectedSumBase.client_ciphertexts`: it
encrypts online here, and fetches from an offline-filled pool in
:mod:`repro.spfe.preprocessing`.  How they travel is the ``run``: the
whole vector, then one server pass
(:class:`~repro.spfe.selected_sum.SelectedSumProtocol`), or pipelined
chunks folded on arrival
(:class:`~repro.spfe.batching.BatchedSelectedSumProtocol`).  The plain,
preprocessed, batched and combined protocols are the four combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.scheme import SchemeKeyPair
from repro.crypto.serialization import FRAME_HEADER_BYTES, public_key_bytes
from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError, ProtocolError
from repro.net.channel import Channel
from repro.net.wire import Message
from repro.spfe.context import CLIENT, SERVER, ExecutionContext
from repro.spfe.result import SumRunResult
from repro.timing.clock import VirtualClock
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["SelectedSumBase", "MSG_PUBLIC_KEY", "MSG_ENC_INDEX", "MSG_RESULT"]

MSG_PUBLIC_KEY = "public-key"
MSG_ENC_INDEX = "enc-index"
MSG_RESULT = "result"


@dataclass
class Round:
    """One client/server exchange in virtual time: the channel, each
    party's clock, the client's key pair, and when its public key
    reached the server."""

    channel: Channel
    client: VirtualClock
    keypair: SchemeKeyPair
    server: VirtualClock = field(default_factory=VirtualClock)
    key_arrival: float = 0.0


class SelectedSumBase:
    """Common validation, round steps, and result assembly.

    Subclasses implement :meth:`run` and set :attr:`protocol_name`.
    """

    protocol_name = "abstract"

    def __init__(self, context: Optional[ExecutionContext] = None) -> None:
        self.ctx = context if context is not None else ExecutionContext()

    # -- validation -----------------------------------------------------------

    def validate_inputs(
        self, database: ServerDatabase, selection: Sequence[int]
    ) -> int:
        """Check lengths and weights; return m (# of non-zero weights)."""
        if len(selection) != len(database):
            raise ParameterError(
                "selection length %d != database size %d"
                % (len(selection), len(database))
            )
        m = 0
        for i, w in enumerate(selection):
            if not isinstance(w, int) or isinstance(w, bool):
                raise ParameterError("selection[%d] is not an integer" % i)
            if w < 0:
                raise ParameterError(
                    "selection[%d] = %d; weights must be non-negative" % (i, w)
                )
            if w:
                m += 1
        return m

    def check_capacity(
        self,
        database: ServerDatabase,
        selection: Sequence[int],
        public_key: Any,
    ) -> None:
        """Ensure the worst-case sum cannot wrap the plaintext modulus.

        Uses the *worst case* (every weight at its actual value, every
        element at the 32-bit maximum) rather than the true sum, since
        the server must be able to rely on the bound without knowing the
        client's true selection.
        """
        modulus = self.ctx.scheme.plaintext_modulus(public_key)
        max_element = 2**database.value_bits - 1
        worst = sum(selection) * max_element
        if worst >= modulus:
            raise ProtocolError(
                "worst-case sum %d cannot be represented in the %d-bit "
                "plaintext space; use a larger key" % (worst, modulus.bit_length())
            )

    # -- message helpers -----------------------------------------------------------

    def public_key_message(self, public_key: Any) -> Message:
        """The client's public-key announcement message."""
        return Message(
            MSG_PUBLIC_KEY,
            public_key,
            public_key_bytes(self.ctx.key_bits) + FRAME_HEADER_BYTES,
            CLIENT,
        )

    def ciphertext_message(
        self, kind: str, ciphertext: Any, public_key: Any, sender: str
    ) -> Message:
        """A framed message carrying one ciphertext."""
        return Message(
            kind,
            ciphertext,
            self.ctx.ciphertext_bytes(public_key) + FRAME_HEADER_BYTES,
            sender,
        )

    def vector_message(
        self, kind: str, ciphertexts: Sequence[Any], public_key: Any, sender: str
    ) -> Message:
        """One framed message carrying a whole batch of ciphertexts."""
        size = (
            len(ciphertexts) * self.ctx.ciphertext_bytes(public_key)
            + FRAME_HEADER_BYTES
        )
        return Message(kind, tuple(ciphertexts), size, sender)

    # -- the round ------------------------------------------------------------------

    def setup_keys(
        self,
        database: ServerDatabase,
        selection: Sequence[int],
        keypair: Optional[SchemeKeyPair] = None,
    ) -> Tuple[SchemeKeyPair, float]:
        """Reuse ``keypair`` or generate one (timed), then check capacity:
        (keypair, keygen seconds, 0.0 for a reused pair)."""
        keygen_s = 0.0
        if keypair is None:
            keypair, keygen_s = self.ctx.generate_keypair(CLIENT)
        self.check_capacity(database, selection, keypair.public)
        return keypair, keygen_s

    def open_round(
        self, keypair: SchemeKeyPair, client: Optional[VirtualClock] = None
    ) -> Round:
        """A fresh channel on which the client announces its public key at
        its current time (pass ``client`` to share one client clock
        across several servers)."""
        rnd = Round(self.ctx.new_channel(), client or VirtualClock(), keypair)
        message = self.public_key_message(keypair.public)
        rnd.key_arrival = rnd.channel.client_send(message, rnd.client.now)
        rnd.server.wait_until(rnd.key_arrival)
        rnd.channel.server_recv()
        return rnd

    def encrypt(
        self, public_key: Any, weights: Sequence[int], party: str = CLIENT
    ) -> Tuple[List[Any], float]:
        """``party`` encrypts ``weights`` online: (ciphertexts, seconds)."""
        ctx = self.ctx
        with ctx.compute(party, Op.ENCRYPT, len(weights)) as block:
            ciphertexts = ctx.scheme.encrypt_vector(public_key, weights, ctx.rng)
        return ciphertexts, block.seconds

    def upload(
        self, rnd: Round, ciphertexts: Sequence[Any], sender: str = CLIENT
    ) -> Tuple[List[Any], float]:
        """Ship one framed message per ciphertext, all sent at the client's
        current time, and let the server read them: (payloads, seconds
        from the first send to the last arrival)."""
        sent_at = last_arrival = rnd.client.now
        public = rnd.keypair.public
        for ct in ciphertexts:
            message = self.ciphertext_message(MSG_ENC_INDEX, ct, public, sender)
            last_arrival = rnd.channel.client_send(message, sent_at)
        rnd.server.wait_until(last_arrival)
        received = [rnd.channel.server_recv()[0].payload for _ in ciphertexts]
        return received, last_arrival - sent_at

    def reply(self, rnd: Round, ciphertext: Any, kind: str = MSG_RESULT) -> float:
        """The server sends one ciphertext at its current time; returns
        its arrival time at the client."""
        message = self.ciphertext_message(kind, ciphertext, rnd.keypair.public, SERVER)
        return rnd.channel.server_send(message, rnd.server.now)

    def decrypt(
        self, rnd: Round, ciphertext: Any, party: str = CLIENT
    ) -> Tuple[int, float]:
        """``party`` decrypts one ciphertext on the round's client clock:
        (value, seconds)."""
        ctx = self.ctx
        with ctx.compute(party, Op.DECRYPT, 1) as block:
            value = ctx.scheme.decrypt(rnd.keypair.private, ciphertext)
        rnd.client.advance(block.seconds)
        return value, block.seconds

    def reply_and_decrypt(
        self, rnd: Round, ciphertext: Any, kind: str = MSG_RESULT, party: str = CLIENT
    ) -> Tuple[int, float, float]:
        """The server replies with one ciphertext; the client waits for it
        and decrypts: (value, reply seconds in transit, decrypt seconds)."""
        reply_started = rnd.server.now
        arrival = self.reply(rnd, ciphertext, kind)
        rnd.client.wait_until(arrival)
        payload = rnd.channel.client_recv()[0].payload
        value, decrypt_s = self.decrypt(rnd, payload, party)
        return value, arrival - reply_started, decrypt_s

    # -- the §3.3 choice: where the client's ciphertexts come from -------------

    def prepare_client(
        self, database: ServerDatabase, public_key: Any
    ) -> Tuple[Any, float]:
        """Offline client work before the query: (state, seconds).  Online
        encryption needs none; the §3.3 client fills its pool."""
        return None, 0.0

    def client_ciphertexts(
        self, prepared: Any, public_key: Any, weights: Sequence[int]
    ) -> Tuple[List[Any], float]:
        """The client's ciphertexts for one run of weights and the client
        seconds they cost: online encryption here."""
        return self.encrypt(public_key, weights)

    def client_metadata(self, database: ServerDatabase, prepared: Any) -> Dict[str, Any]:
        """Result metadata describing the client's ciphertext source."""
        return {}

    # -- result assembly ------------------------------------------------------------

    def build_result(
        self,
        value: int,
        database: ServerDatabase,
        m: int,
        breakdown: TimingBreakdown,
        makespan_s: float,
        channels: Sequence[Channel],
        metadata: Optional[Dict[str, Any]] = None,
    ) -> SumRunResult:
        """Assemble the run result (checks every channel drained)."""
        for channel in channels:
            channel.drain_check()
        return SumRunResult(
            value=value,
            n=len(database),
            m=m,
            breakdown=breakdown,
            makespan_s=makespan_s,
            bytes_up=sum(c.bytes_up for c in channels),
            bytes_down=sum(c.bytes_down for c in channels),
            messages=sum(
                c.uplink.messages_sent + c.downlink.messages_sent for c in channels
            ),
            scheme=self.ctx.scheme.name,
            link=self.ctx.link.name,
            protocol=self.protocol_name,
            metadata=metadata or {},
        )

    # -- interface ----------------------------------------------------------------------

    def run(
        self, database: ServerDatabase, selection: Sequence[int]
    ) -> SumRunResult:
        """Execute the protocol (implemented by each variant)."""
        raise NotImplementedError
