"""Cryptographic substrate: number theory, primes, and the cryptosystems.

The package is self-contained — pure Python on built-in big integers, no
``gmpy2``/``phe``/OpenSSL — and provides everything the protocols in
:mod:`repro.spfe` and the Yao baseline in :mod:`repro.yao` need:

* :mod:`repro.crypto.paillier` — the paper's cryptosystem (the default).
* :mod:`repro.crypto.elgamal` — exponential ElGamal, an ablation comparator.
* :mod:`repro.crypto.rsa` — the trapdoor permutation for the Yao
  baseline's oblivious transfer.
* :mod:`repro.crypto.simulated` — the cost-modelled Paillier stand-in.
* :mod:`repro.crypto.multiexp` — batch exponentiation kernels
  (simultaneous multiexp, fixed-base byte-digit tables).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.crypto.damgard_jurik import DamgardJurikScheme, generate_dj_keypair
    from repro.crypto.multiexp import FixedBaseTable, multi_exponent
    from repro.crypto.paillier import (
        EncryptedNumber,
        PaillierPrivateKey,
        PaillierPublicKey,
        PaillierScheme,
        RandomnessPool,
        generate_keypair,
    )
    from repro.crypto.rng import DeterministicRandom, RandomSource, SecureRandom
    from repro.crypto.scheme import AdditiveHomomorphicScheme, SchemeKeyPair
    from repro.crypto.simulated import SimulatedPaillier

__all__ = [
    "AdditiveHomomorphicScheme",
    "DamgardJurikScheme",
    "DeterministicRandom",
    "EncryptedNumber",
    "FixedBaseTable",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "PaillierScheme",
    "RandomSource",
    "RandomnessPool",
    "SchemeKeyPair",
    "SecureRandom",
    "SimulatedPaillier",
    "generate_dj_keypair",
    "generate_keypair",
    "multi_exponent",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.crypto.damgard_jurik": ("DamgardJurikScheme", "generate_dj_keypair"),
    "repro.crypto.multiexp": ("FixedBaseTable", "multi_exponent"),
    "repro.crypto.paillier": (
        "EncryptedNumber",
        "PaillierPrivateKey",
        "PaillierPublicKey",
        "PaillierScheme",
        "RandomnessPool",
        "generate_keypair",
    ),
    "repro.crypto.rng": ("DeterministicRandom", "RandomSource", "SecureRandom"),
    "repro.crypto.scheme": ("AdditiveHomomorphicScheme", "SchemeKeyPair"),
    "repro.crypto.simulated": ("SimulatedPaillier",),
})
