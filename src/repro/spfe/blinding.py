"""Statistical blinding of partial sums.

The §3.5 multi-client protocol and the hidden-partials mode of the
multi-database extension hide each partial sum the same way: the
server side adds E(R_i) to partial i, where R_1..R_{k-1} are uniform
mod ``B = 2**(value_bits + bits(n) + sigma)`` and R_k makes the shares
sum to 0 mod ``B``.  ``B`` bounds every honest partial sum (n values of
``value_bits`` bits) with ``sigma`` bits of headroom, so each blinded
partial hides its partial to within 2^-sigma, and reducing the
combined total mod ``B`` unblinds it exactly.  DESIGN.md §3 records
this substitution for the paper's common plaintext modulus.
"""

from __future__ import annotations

from typing import List

from repro.crypto.rng import RandomSource
from repro.datastore.database import ServerDatabase

__all__ = ["DEFAULT_SIGMA", "blinding_modulus", "blinding_shares"]

DEFAULT_SIGMA = 40  # statistical-hiding parameter for the blinding


def blinding_modulus(database: ServerDatabase, sigma: int) -> int:
    """``B = 2**(value_bits + bits(n) + sigma)`` for ``database``."""
    n_bits = max(1, len(database).bit_length())
    return 2 ** (database.value_bits + n_bits + sigma)


def blinding_shares(modulus: int, count: int, rng: RandomSource) -> List[int]:
    """``count`` shares with sum ≡ 0 (mod ``modulus``): ``count - 1``
    uniform draws from ``rng``, in order, then the cancelling one."""
    shares = [rng.randbelow(modulus) for _ in range(count - 1)]
    shares.append(-sum(shares) % modulus)
    return shares
