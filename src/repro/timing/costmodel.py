"""Per-operation cost model and the paper's hardware profiles.

The paper's timings come from four machines we do not have:

* 2 GHz Pentium-III (client *and* server of Figures 2, 4, 5, 7, 9);
* 1 GHz Intel Pentium (server of Figures 3 and 6);
* 500 MHz UltraSparc (client of Figures 3 and 6);
* the same code in Java, reported as ~5x slower than C++ (§3, Figure 9).

A :class:`HardwareProfile` carries a table of per-operation costs for
512-bit keys plus a compute scale (relative machine speed) and a language
factor.  The Pentium-III base costs are *fitted to the paper's own
reported end-to-end numbers* — e.g. "approximately 20 minutes ... for a
database of 100,000 elements" (§3.1) implies ~10.8 ms per Paillier-512
encryption, and the ~82 % / ~94 % optimization gains (§3.3, §3.4) pin the
server and per-message costs.  DESIGN.md §3 records the fit.

Costs scale with key size the way modular arithmetic does: a full
``n``-bit exponentiation costs Θ(bits³) (bits-long exponent of bits²
multiplications), while the server's step — a fixed 32-bit exponent —
costs Θ(bits²).

Profiles can also be *calibrated*: :func:`calibrate_profile` measures the
real pure-Python cryptosystem on the current machine and fits a profile,
which the live benches use to sanity-check the model's op-cost ratios.

The calibration is *kernel-aware*: by default it charges the server's
``WEIGHTED_STEP`` at the per-ciphertext cost of the deployed server's
fold (the steps of the database's precompiled Bos–Coster programs,
:class:`repro.crypto.multiexp.FoldProgram`, one per block that
:func:`~repro.crypto.multiexp.fold_blocks` cuts) and ``PRECOMPUTE`` at
the fixed-base byte-digit table's per-obfuscator cost — the code paths
the measured protocols actually take.  Pass ``use_kernels=False`` to fit
the naive square-and-multiply costs instead (the paper-era baseline:
one ``pow`` per ciphertext).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional

from repro.exceptions import CalibrationError, ParameterError

__all__ = ["Op", "HardwareProfile", "profiles", "calibrate_profile"]

REFERENCE_KEY_BITS = 512  # base costs are quoted at the paper's key size


class Op(enum.Enum):
    """Operation categories charged by protocols.

    Values are short names used in reports.
    """

    KEYGEN = "keygen"
    ENCRYPT = "encrypt"  # full Paillier encryption (obfuscator + multiply)
    PRECOMPUTE = "precompute"  # offline part of an encryption (r^n mod n^2)
    POOL_FETCH = "pool-fetch"  # read one stored pre-encryption (§3.3 online)
    WEIGHTED_STEP = "weighted-step"  # server's E(I_i)^{x_i} * accumulate (32-bit exp)
    CIPHER_ADD = "cipher-add"  # one modular multiplication of ciphertexts
    DECRYPT = "decrypt"  # Paillier decryption (CRT)
    PLAIN_ADD = "plain-add"  # bookkeeping-level arithmetic


# How each op scales with key size, as an exponent on (bits / 512):
#   3 -> full modular exponentiation (exponent grows with the key)
#   2 -> fixed-size exponent or plain modular multiplication
#   0 -> size-independent bookkeeping
_KEY_SCALING_EXPONENT: Dict[Op, int] = {
    Op.KEYGEN: 3,
    Op.ENCRYPT: 3,
    Op.PRECOMPUTE: 3,
    Op.POOL_FETCH: 0,
    Op.WEIGHTED_STEP: 2,
    Op.CIPHER_ADD: 2,
    Op.DECRYPT: 3,
    Op.PLAIN_ADD: 0,
}

# Fitted Pentium-III / 2 GHz / C++ / 512-bit base costs, in seconds.
# See the module docstring and DESIGN.md §3 for the derivation.
_PENTIUM3_BASE_COSTS: Dict[Op, float] = {
    Op.KEYGEN: 1.5,
    Op.ENCRYPT: 10.8e-3,
    Op.PRECOMPUTE: 10.3e-3,
    Op.POOL_FETCH: 0.5e-3,
    Op.WEIGHTED_STEP: 0.8e-3,
    Op.CIPHER_ADD: 0.05e-3,
    Op.DECRYPT: 11.0e-3,
    Op.PLAIN_ADD: 1.0e-6,
}


@dataclass(frozen=True)
class HardwareProfile:
    """Per-operation compute costs for one machine / language pair.

    Attributes:
        name: identifier used in reports.
        base_costs: seconds per operation at 512-bit keys, for the
            reference machine this profile scales from.
        compute_scale: relative slowdown of this machine vs the reference
            (Pentium-III 2 GHz = 1.0).
        language_factor: runtime multiplier (C++ = 1.0, Java ≈ 5.0 — the
            paper's measured ratio, §3).
    """

    name: str
    base_costs: Mapping[Op, float] = field(
        default_factory=lambda: dict(_PENTIUM3_BASE_COSTS)
    )
    compute_scale: float = 1.0
    language_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_scale <= 0 or self.language_factor <= 0:
            raise ParameterError("scale factors must be positive")
        missing = [op for op in Op if op not in self.base_costs]
        if missing:
            raise ParameterError(
                "profile %r missing costs for %s" % (self.name, missing)
            )

    def cost(self, op: Op, key_bits: int = REFERENCE_KEY_BITS) -> float:
        """Seconds for one ``op`` at ``key_bits``-bit keys on this machine."""
        if key_bits <= 0:
            raise ParameterError("key size must be positive")
        scaling = (key_bits / REFERENCE_KEY_BITS) ** _KEY_SCALING_EXPONENT[op]
        return (
            self.base_costs[op] * scaling * self.compute_scale * self.language_factor
        )

    def java(self) -> "HardwareProfile":
        """This machine running the paper's Java implementation (~5x)."""
        return replace(
            self, name=self.name + "-java", language_factor=self.language_factor * 5.0
        )

    def scaled(self, factor: float, name: Optional[str] = None) -> "HardwareProfile":
        """A machine ``factor``x slower (or faster, for factor < 1)."""
        return replace(
            self,
            name=name or "%s-x%g" % (self.name, factor),
            compute_scale=self.compute_scale * factor,
        )


class _ProfilePresets:
    """The paper's machines (attribute-style access).

    ``pentium3_2ghz``     — client & server of the short-distance runs.
    ``pentium_1ghz``      — server of the long-distance runs (~2x slower).
    ``ultrasparc_500mhz`` — client of the long-distance runs (~4x slower).
    """

    def __init__(self) -> None:
        self.pentium3_2ghz = HardwareProfile(name="pentium3-2ghz")
        self.pentium_1ghz = self.pentium3_2ghz.scaled(2.0, "pentium-1ghz")
        self.ultrasparc_500mhz = self.pentium3_2ghz.scaled(4.0, "ultrasparc-500mhz")

    def by_name(self, name: str) -> HardwareProfile:
        for profile in vars(self).values():
            if isinstance(profile, HardwareProfile) and profile.name == name:
                return profile
        raise ParameterError("unknown hardware profile %r" % name)


profiles = _ProfilePresets()


#: database size the calibrated server step folds one query over (the
#: paper's n): two 500-row block programs
_FOLD_ELEMENTS = 1000


def calibrate_profile(
    name: str = "local",
    key_bits: int = 256,
    iterations: int = 20,
    clock: Callable[[], float] = time.perf_counter,
    use_kernels: bool = True,
) -> HardwareProfile:
    """Fit a profile to the *current* machine by measuring real Paillier.

    Runs ``iterations`` of each operation with the pure-Python
    cryptosystem at ``key_bits`` and converts the measurements to
    512-bit-equivalent base costs using the key-scaling law.  Used by the
    live microbenchmarks to compare the model's op-cost *ratios* against
    real measurements (absolute speed of 2004 hardware is, of course, not
    reproducible).

    With ``use_kernels`` (the default) client encryption, the server
    step and the offline obfuscator are charged at the kernel rates the
    deployed system executes.  Encryption is one call of the key
    owner's
    :meth:`~repro.crypto.paillier.PaillierPrivateKey.encrypt_raw_crt_many`
    over ``iterations`` plaintexts, divided by ``iterations``: one
    batched draw and the per-prime table walks, which is what
    :class:`~repro.spfe.session.ClientSession` runs for each chunk;
    without kernels it is the textbook ``encrypt_raw``.  The server
    step is a query's run of the fold programs of an n = 1000 database
    of random 32-bit values, spread over its elements; the obfuscator is
    a fixed-base table lookup.  The programs (compiled once per
    database) and the fixed-base tables (the encryption sampler's and
    the obfuscator's, once per key) are one-time costs, built before
    the timed loops and excluded, like key generation, from the per-op
    figures.
    """
    from repro.crypto.multiexp import FixedBaseTable, fold_plan
    from repro.crypto.paillier import generate_keypair
    from repro.crypto.rng import DeterministicRandom

    if iterations < 1:
        raise CalibrationError("need at least one iteration")
    rng = DeterministicRandom("calibration")
    keypair = generate_keypair(key_bits, rng)
    pk, sk = keypair.public, keypair.private

    def measure(fn: Callable[[int], object]) -> float:
        start = clock()
        for i in range(iterations):
            fn(i)
        return (clock() - start) / iterations

    ciphertexts = [pk.encrypt_raw(i + 1, rng) for i in range(iterations)]

    if use_kernels:
        # Build the key's sampler tables first: a one-time cost, which a
        # lazy build would otherwise charge to the first timed encryption.
        sk.sampler_tables()
        plaintexts = list(range(iterations))
        start = clock()
        sk.encrypt_raw_crt_many(plaintexts, rng)
        t_encrypt = (clock() - start) / iterations
        # Offline obfuscator via the fixed-base byte-digit table (the
        # RandomnessPool fixed-base path): exclude the one-time table
        # build, measure per-lookup cost.
        h = rng.randrange(2, pk.n)
        table = FixedBaseTable(pow(h, pk.n, pk.nsquare), pk.nsquare, pk.bits)
        exps = [rng.randrange(1, table.capacity) for _ in range(iterations)]
        t_precompute = measure(lambda i: table.pow(exps[i]))
        # Server step, timed the way ServerSession folds: each block's
        # program runs on its ciphertexts and its product is multiplied
        # into the aggregate.  Program length depends on the weights,
        # so a full query's worth of random 32-bit weights is folded.
        batch = [ciphertexts[i % iterations] for i in range(_FOLD_ELEMENTS)]
        plan = fold_plan([rng.randrange(1, 1 << 32) for _ in batch])
        start = clock()
        plan.run(batch, pk.nsquare)
        t_step = (clock() - start) / _FOLD_ELEMENTS
    else:
        t_encrypt = measure(lambda i: pk.encrypt_raw(i, rng))
        t_precompute = measure(lambda i: pk.obfuscator(rng))
        t_step = measure(
            lambda i: pow(ciphertexts[i], 0xDEADBEEF, pk.nsquare) * ciphertexts[i]
            % pk.nsquare
        )
    t_add = measure(lambda i: ciphertexts[i] * ciphertexts[-1 - i] % pk.nsquare)
    t_decrypt = measure(lambda i: sk.raw_decrypt(ciphertexts[i]))

    def to_reference(measured: float, op: Op) -> float:
        scaling = (key_bits / REFERENCE_KEY_BITS) ** _KEY_SCALING_EXPONENT[op]
        return measured / scaling

    base = dict(_PENTIUM3_BASE_COSTS)
    base[Op.ENCRYPT] = to_reference(t_encrypt, Op.ENCRYPT)
    base[Op.PRECOMPUTE] = to_reference(t_precompute, Op.PRECOMPUTE)
    base[Op.WEIGHTED_STEP] = to_reference(t_step, Op.WEIGHTED_STEP)
    base[Op.CIPHER_ADD] = to_reference(t_add, Op.CIPHER_ADD)
    base[Op.DECRYPT] = to_reference(t_decrypt, Op.DECRYPT)
    base[Op.POOL_FETCH] = max(t_add / 10.0, 1e-7)
    if any(v <= 0 for v in base.values()):
        raise CalibrationError("non-positive measurement; clock too coarse")
    return HardwareProfile(name=name, base_costs=base)
