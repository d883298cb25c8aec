"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the broad failure classes below.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CryptoError",
    "KeyGenerationError",
    "EncryptionError",
    "DecryptionError",
    "KeyMismatchError",
    "ParameterError",
    "ProtocolError",
    "PrivacyViolationError",
    "ChannelError",
    "DatabaseError",
    "CircuitError",
    "OTError",
    "GarblingError",
    "CalibrationError",
    "TransportError",
    "TransportTimeout",
    "RetryExhausted",
    "SessionResumeError",
    "ValidationError",
    "PolicyViolation",
    "ServerBusy",
    "StoreError",
    "SupervisorError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyGenerationError(CryptoError):
    """Raised when key generation cannot produce a valid key pair."""


class EncryptionError(CryptoError):
    """Raised when a plaintext cannot be encrypted (e.g. out of range)."""


class DecryptionError(CryptoError):
    """Raised when a ciphertext cannot be decrypted or fails validation."""


class KeyMismatchError(CryptoError):
    """Raised when ciphertexts under different keys are combined."""


class ParameterError(ReproError):
    """Raised for invalid protocol or model parameters."""


class ProtocolError(ReproError):
    """Raised when a protocol run violates its own message contract."""


class PrivacyViolationError(ProtocolError):
    """Raised by privacy auditors when a transcript leaks forbidden data."""


class ChannelError(ReproError):
    """Raised for misuse of the simulated network channel."""


class DatabaseError(ReproError):
    """Raised for invalid database contents or out-of-range queries."""


class CircuitError(ReproError):
    """Raised for malformed boolean circuits."""


class OTError(ReproError):
    """Raised when an oblivious-transfer exchange fails."""


class GarblingError(ReproError):
    """Raised when garbled-circuit generation or evaluation fails."""


class CalibrationError(ReproError):
    """Raised when a hardware profile cannot be fitted to measurements."""


class TransportError(ReproError):
    """Raised when a byte transport fails (connection refused, reset, ...)."""


class TransportTimeout(TransportError):
    """Raised when a transport operation exceeds its deadline."""


class RetryExhausted(TransportError):
    """Raised when a bounded retry policy gives up.

    The last underlying failure is chained as ``__cause__``.
    """


class SessionResumeError(ProtocolError):
    """Raised when a session cannot be resumed (no ACK received, ...)."""


class ValidationError(ProtocolError):
    """Raised when untrusted wire input fails a trust-boundary check.

    Covers cryptographic sanity (a public modulus that is even or out of
    its announced bit range, a ciphertext outside Z*_{n^2}) as well as
    structurally well-formed frames whose *contents* cannot be honest.
    A :class:`ProtocolError` subclass so existing handlers keep working,
    but distinguishable for accounting and typed ERROR frames.
    """


class PolicyViolation(ValidationError):
    """Raised when input exceeds a configured :class:`ServerPolicy` limit.

    The input may be internally consistent — it is simply larger, longer,
    or weaker than this server is willing to process (key bits outside
    the accepted range, per-session byte quota exhausted, too many
    chunks, ...).
    """


class ServerBusy(TransportError):
    """Raised client-side when the server sheds the connection with BUSY.

    A :class:`TransportError` subclass deliberately: load shedding is a
    transient condition, so :func:`~repro.spfe.session.run_resilient`
    retries it — under the *busy* schedule of its
    :class:`~repro.net.transport.RetryPolicy`, which backs off longer
    than the plain transport-failure schedule so a shed fleet re-enters
    gently instead of hammering a saturated server.

    ``retry_after_ms`` carries the server's retry hint from the BUSY
    frame (0 when the server sent none); the busy backoff schedule
    never sleeps less than it.
    """

    def __init__(self, message: str, retry_after_ms: int = 0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class StoreError(ReproError):
    """Raised when the persistent state store cannot be opened or used.

    Covers SQLite-level failures (corrupt file, locked database), a
    schema newer than this code, and malformed persisted records.
    """


class SupervisorError(ReproError):
    """Raised when the server supervisor cannot (re)start its child."""
