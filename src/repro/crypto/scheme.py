"""Abstract interface for additively homomorphic encryption schemes.

The selected-sum protocol (paper §2) needs exactly the algebra this
interface captures::

    E(a) (*) E(b)  = E(a + b)          -- ciphertext_add
    E(a) ^ c       = E(a * c)          -- ciphertext_scale

Three implementations exist:

* :class:`repro.crypto.paillier.PaillierScheme` — the real cryptosystem
  the paper uses (and the default).
* :class:`repro.crypto.elgamal.ExponentialElGamalScheme` — an ablation
  comparator with discrete-log-limited decryption.
* :class:`repro.crypto.simulated.SimulatedPaillier` — a semantics-
  preserving stand-in with cost accounting, used to run paper-scale
  experiments quickly (see DESIGN.md §3).

Protocols in :mod:`repro.spfe` are written against this interface only,
so any of the three can be swapped in without touching protocol code —
which is precisely how the benches run the same protocol logic at
n = 100,000 that the tests verify with real cryptography at n = 1,000.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.crypto.rng import as_random_source

__all__ = ["AdditiveHomomorphicScheme", "SchemeKeyPair"]


class SchemeKeyPair:
    """A (public, private) key pair produced by a scheme's ``generate``."""

    __slots__ = ("public", "private")

    def __init__(self, public: Any, private: Any) -> None:
        self.public = public
        self.private = private

    def __iter__(self) -> Any:
        return iter((self.public, self.private))

    def __repr__(self) -> str:
        return "SchemeKeyPair(public=%r)" % (self.public,)


class AdditiveHomomorphicScheme:
    """Additively homomorphic public-key encryption, abstractly.

    Concrete schemes expose plain-int ciphertext handles via these hooks
    (the richer :class:`~repro.crypto.paillier.EncryptedNumber` API sits on
    top for library users).  Protocol code uses the hook form because it
    maps one-to-one onto cost-model events.
    """

    #: Short machine-readable scheme name (used in reports and benches).
    name: str = "abstract"

    # -- key management -------------------------------------------------

    def generate(self, bits: int, rng: Any = None) -> SchemeKeyPair:
        """Generate a key pair with a ``bits``-bit modulus."""
        raise NotImplementedError

    def plaintext_modulus(self, public: Any) -> int:
        """The modulus M the plaintext group Z_M lives in (paper's M)."""
        raise NotImplementedError

    def ciphertext_size_bytes(self, public: Any) -> int:
        """Wire size of one ciphertext under ``public``, in bytes."""
        raise NotImplementedError

    # -- core operations -------------------------------------------------

    def encrypt(self, public: Any, plaintext: int, rng: Any = None) -> Any:
        """Encrypt ``plaintext`` (reduced into Z_M) under ``public``."""
        raise NotImplementedError

    def decrypt(self, private: Any, ciphertext: Any) -> int:
        """Decrypt to the representative in ``[0, M)``."""
        raise NotImplementedError

    def ciphertext_add(self, public: Any, a: Any, b: Any) -> Any:
        """Homomorphic addition: a ciphertext of ``D(a) + D(b)``."""
        raise NotImplementedError

    def ciphertext_scale(self, public: Any, a: Any, scalar: int) -> Any:
        """Homomorphic scalar multiply: a ciphertext of ``D(a) * scalar``."""
        raise NotImplementedError

    def identity(self, public: Any) -> Any:
        """A (deterministic) ciphertext of zero — the product identity."""
        raise NotImplementedError

    def rerandomize(self, public: Any, a: Any, rng: Any = None) -> Any:
        """Fresh randomness on an existing ciphertext (same plaintext)."""
        raise NotImplementedError

    # -- convenience -----------------------------------------------------

    def encrypt_vector(
        self, public: Any, plaintexts: Sequence[int], rng: Any = None
    ) -> Tuple[Any, ...]:
        """Encrypt a sequence of plaintexts (the client's index vector).

        A seed ``rng`` is turned into one source for the whole vector,
        so each element draws fresh randomness from it.
        """
        source = as_random_source(rng)
        return tuple(self.encrypt(public, m, source) for m in plaintexts)

    def weighted_product(
        self,
        public: Any,
        ciphertexts: Sequence[Any],
        weights: Sequence[int],
        initial: Optional[Any] = None,
    ) -> Any:
        """The server-side aggregation of the selected-sum protocol.

        Computes ``prod_i c_i ^ w_i`` — i.e. a ciphertext of
        ``sum_i D(c_i) * w_i`` — skipping zero weights, starting from
        ``initial`` (a running partial product) if given.
        """
        if len(ciphertexts) != len(weights):
            raise ValueError("ciphertext/weight length mismatch")
        acc = self.identity(public) if initial is None else initial
        for c, w in zip(ciphertexts, weights):
            if w == 0:
                continue
            term = c if w == 1 else self.ciphertext_scale(public, c, w)
            acc = self.ciphertext_add(public, acc, term)
        return acc

    def rerandomize_vector(
        self, public: Any, ciphertexts: Sequence[Any], rng: Any = None
    ) -> Tuple[Any, ...]:
        """Refresh the randomness of a ciphertext vector.

        The default is one :meth:`rerandomize` per element, all drawing
        from one source made from ``rng``; Paillier with a
        :class:`~repro.crypto.paillier.RandomnessPool` overrides this
        with a pooled batch path.
        """
        source = as_random_source(rng)
        return tuple(self.rerandomize(public, c, source) for c in ciphertexts)
