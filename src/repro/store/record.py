"""`SessionRecord`: one resumable session's state, as plain data.

The record and its byte budget live apart from
:mod:`repro.store.state` so that a server without ``--state-dir``
builds, holds and budgets records without importing ``sqlite3``.
:mod:`repro.store.state` re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.crypto.ntheory import bytes_for_bits

__all__ = ["SessionRecord", "resume_state_bytes"]


def _ciphertext_width(key_bits: int) -> int:
    """Bytes per journalled ciphertext (mod ``n^2``)."""
    return bytes_for_bits(2 * key_bits)


def resume_state_bytes(key_bits: int) -> int:
    """Resident bytes one session record costs the registry, before any
    pending ciphertexts.

    Budgeted as three big integers of ciphertext width — the modulus,
    the running aggregate and the record around them — so the registry
    can bound memory in bytes rather than pretending all sessions are
    the same size.
    """
    return 3 * _ciphertext_width(key_bits)


@dataclass(frozen=True)
class SessionRecord:
    """Everything the server keeps to resume one session, as plain data.

    The one representation of resume state: a
    :class:`~repro.spfe.session.ServerSession` folds each chunk into a
    new record, and the registry and the journal hold that same object.
    Being immutable, a record can be shared between connections without
    copies.  The store neither imports nor understands protocol objects.
    """

    session_id: bytes
    key_bits: int
    chunk_size: int
    public_n: int
    aggregate: int
    received: int
    chunks_received: int
    done: bool
    #: when the journal row was written; 0.0 on a record built in
    #: memory, which :meth:`~repro.store.state.StateStore.save_session`
    #: stamps on writing
    touched_at: float = 0.0
    #: ciphertexts of the rows ``received - len(pending)`` up to
    #: ``received``, not yet folded into ``aggregate``; empty once done
    #: and for rows journalled before schema v8
    pending: Tuple[int, ...] = ()

    @property
    def resident_bytes(self) -> int:
        """What this record costs the registry's byte budget."""
        return resume_state_bytes(self.key_bits) + len(
            self.pending
        ) * _ciphertext_width(self.key_bits)
