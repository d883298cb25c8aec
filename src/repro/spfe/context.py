"""Execution context: scheme + link + hardware profiles + timing mode.

An :class:`ExecutionContext` wires together everything a protocol run
needs and answers one question for the protocol code: *how long did this
block of work take, for this party?*  Two answers are possible:

* ``mode="modelled"`` — durations come from the party's
  :class:`~repro.timing.costmodel.HardwareProfile` via explicit operation
  charges.  The scheme defaults to
  :class:`~repro.crypto.simulated.SimulatedPaillier` so paper-scale runs
  (n = 100,000) finish in milliseconds of real time while reporting 2004
  minutes of modelled time.
* ``mode="measured"`` — durations are wall-clock measurements of the
  real cryptosystem (default :class:`~repro.crypto.paillier.PaillierScheme`).
  Communication is still modelled from the link (the channel is
  in-memory), which DESIGN.md §3 documents.

Protocol code is identical under both modes::

    with ctx.compute(CLIENT, Op.ENCRYPT, count=n) as block:
        cts = scheme.encrypt_vector(pk, bits, rng)
    encrypt_seconds = block.seconds
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.crypto.paillier import PaillierScheme
from repro.crypto.rng import RandomSource, as_random_source
from repro.crypto.scheme import AdditiveHomomorphicScheme, SchemeKeyPair
from repro.crypto.simulated import SimulatedPaillier
from repro.exceptions import ParameterError
from repro.net.channel import Channel
from repro.net.link import LinkModel, links
from repro.obs.tracing import Tracer
from repro.timing.costmodel import HardwareProfile, Op, profiles

__all__ = ["ExecutionContext", "ComputeBlock", "CLIENT", "SERVER"]

CLIENT = "client"
SERVER = "server"

_MODES = ("modelled", "measured")

#: Op -> canonical tracer phase name.  Unlisted ops record under their
#: own value (visible in Tracer.totals, outside the figure breakdown);
#: CIPHER_ADD stays unmapped because it runs on either party.
_OP_PHASE = {
    Op.ENCRYPT: "encrypt",
    Op.DECRYPT: "decrypt",
    Op.WEIGHTED_STEP: "server_compute",
    Op.PRECOMPUTE: "offline_precompute",
}


class ComputeBlock:
    """Context manager that yields the duration of a block of party work."""

    def __init__(
        self,
        mode: str,
        profile: HardwareProfile,
        op: Op,
        count: int,
        key_bits: int,
        tracer: Optional[Tracer] = None,
        phase: Optional[str] = None,
    ) -> None:
        self._mode = mode
        self._profile = profile
        self._op = op
        self._count = count
        self._key_bits = key_bits
        self._tracer = tracer
        self._phase = phase if phase is not None else _OP_PHASE.get(op, op.value)
        self._started = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "ComputeBlock":
        if self._mode == "measured":
            self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if exc_info[0] is not None:
            return
        if self._mode == "measured":
            self.seconds = time.perf_counter() - self._started
        else:
            self.seconds = self._count * self._profile.cost(
                self._op, self._key_bits
            )
        if self._tracer is not None:
            # Both timing modes flow into the same tracer: measured
            # blocks as wall-clock spans, modelled ones as recorded
            # charges — so traced runs always produce a breakdown.
            self._tracer.record(self._phase, self.seconds)


class ExecutionContext:
    """Everything one protocol run needs, bundled.

    Args:
        scheme: homomorphic scheme; defaults by mode (see module docs).
        link: communication medium (default: the paper's cluster switch).
        client_profile / server_profile: hardware models for the two
            sides (defaults: the paper's Pentium-III 2 GHz for both, as
            in the short-distance experiments).
        key_bits: key size used for both key generation and cost scaling
            (default 512, the paper's).
        mode: "modelled" or "measured".
        rng: randomness for key generation / encryption; seeds accepted.
        tracer: optional :class:`~repro.obs.tracing.Tracer`; every
            compute block (measured or modelled) records its duration
            there under its phase (by default the op's canonical phase
            name; see :meth:`compute`), so a traced run
            yields both per-phase histograms and a
            :meth:`~repro.obs.tracing.Tracer.breakdown`.
    """

    def __init__(
        self,
        scheme: Optional[AdditiveHomomorphicScheme] = None,
        link: Optional[LinkModel] = None,
        client_profile: Optional[HardwareProfile] = None,
        server_profile: Optional[HardwareProfile] = None,
        key_bits: int = 512,
        mode: str = "modelled",
        rng: Union[RandomSource, bytes, str, int, None] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if mode not in _MODES:
            raise ParameterError("mode must be one of %s, got %r" % (_MODES, mode))
        if key_bits < 16:
            raise ParameterError("key_bits too small: %d" % key_bits)
        if scheme is None:
            scheme = SimulatedPaillier() if mode == "modelled" else PaillierScheme()
        self.scheme = scheme
        self.link = link if link is not None else links.cluster
        self.client_profile = client_profile or profiles.pentium3_2ghz
        self.server_profile = server_profile or profiles.pentium3_2ghz
        self.key_bits = key_bits
        self.mode = mode
        self.rng = as_random_source(rng)
        self.tracer = tracer
        self._channel_counter = 0

    # -- wiring ----------------------------------------------------------------

    def profile_for(self, party: str) -> HardwareProfile:
        """Profile lookup: any ``client*`` party uses the client profile."""
        if party.startswith(CLIENT):
            return self.client_profile
        if party.startswith(SERVER):
            return self.server_profile
        raise ParameterError("unknown party %r" % party)

    def new_channel(self) -> Channel:
        """A fresh byte-accounted channel on this context's link."""
        self._channel_counter += 1
        return Channel(self.link, "channel-%d" % self._channel_counter)

    def generate_keypair(self, party: str = CLIENT) -> "tuple[SchemeKeyPair, float]":
        """Generate a key pair, returning ``(keypair, seconds)``."""
        with self.compute(party, Op.KEYGEN) as block:
            keypair = self.scheme.generate(self.key_bits, self.rng)
        return keypair, block.seconds

    # -- timing -------------------------------------------------------------------

    def compute(
        self, party: str, op: Op, count: int = 1, phase: Optional[str] = None
    ) -> ComputeBlock:
        """Duration of a block of ``count`` operations by ``party``.

        The block is charged at ``op``'s cost and records in the tracer
        under ``phase``, by default the op's canonical phase name; a
        caller whose op is spent in another phase of the round (the
        §3.3 pool fill is encryption done offline) names it here.
        """
        if count < 0:
            raise ParameterError("operation count must be non-negative")
        return ComputeBlock(
            self.mode, self.profile_for(party), op, count, self.key_bits,
            tracer=self.tracer, phase=phase,
        )

    def op_cost(self, party: str, op: Op) -> float:
        """Modelled per-op cost (used for pipeline stage construction)."""
        return self.profile_for(party).cost(op, self.key_bits)

    def ciphertext_bytes(self, public_key: object) -> int:
        """Wire size of one ciphertext under ``public_key``."""
        return self.scheme.ciphertext_size_bytes(public_key)

    def describe(self) -> str:
        """One-line human-readable description of the wiring."""
        return "%s/%s client=%s server=%s key=%d (%s)" % (
            self.scheme.name,
            self.link.name,
            self.client_profile.name,
            self.server_profile.name,
            self.key_bits,
            self.mode,
        )
