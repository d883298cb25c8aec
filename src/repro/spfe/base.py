"""Shared machinery for the selected-sum protocol family.

All protocol variants (plain, batched, preprocessed, combined,
multi-client) share input validation, capacity checking, message
construction, and the run-result assembly; that lives here so each
variant module contains only what the corresponding paper section
describes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.crypto.serialization import FRAME_HEADER_BYTES, public_key_bytes
from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError, ProtocolError
from repro.net.channel import Channel
from repro.net.wire import Message
from repro.spfe.context import CLIENT, ExecutionContext
from repro.spfe.result import SumRunResult
from repro.timing.report import TimingBreakdown

__all__ = ["SelectedSumBase", "MSG_PUBLIC_KEY", "MSG_ENC_INDEX", "MSG_RESULT"]

MSG_PUBLIC_KEY = "public-key"
MSG_ENC_INDEX = "enc-index"
MSG_RESULT = "result"


class SelectedSumBase:
    """Common validation, wiring, and result assembly.

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

    # -- result assembly ------------------------------------------------------------

    def build_result(
        self,
        value: int,
        database: ServerDatabase,
        m: int,
        breakdown: TimingBreakdown,
        makespan_s: float,
        channel: Channel,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> SumRunResult:
        """Assemble the run result (checks the channel drained)."""
        channel.drain_check()
        return SumRunResult(
            value=value,
            n=len(database),
            m=m,
            breakdown=breakdown,
            makespan_s=makespan_s,
            bytes_up=channel.bytes_up,
            bytes_down=channel.bytes_down,
            messages=channel.uplink.messages_sent + channel.downlink.messages_sent,
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
