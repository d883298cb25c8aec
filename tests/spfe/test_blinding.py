"""Tests for the shared statistical blinding of partial sums."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.datastore.database import ServerDatabase
from repro.spfe.blinding import DEFAULT_SIGMA, blinding_modulus, blinding_shares


def test_modulus_leaves_sigma_bits_over_the_largest_sum():
    database = ServerDatabase([1] * 1000, value_bits=32)
    modulus = blinding_modulus(database, DEFAULT_SIGMA)
    assert modulus == 2 ** (32 + 10 + DEFAULT_SIGMA)
    assert len(database) * (2**32 - 1) << DEFAULT_SIGMA < modulus


@pytest.mark.parametrize("count", [1, 2, 3, 7])
def test_shares_cancel_and_draw_in_order(count):
    modulus = 2**50
    shares = blinding_shares(modulus, count, DeterministicRandom("shares"))
    reference = DeterministicRandom("shares")
    drawn = [reference.randbelow(modulus) for _ in range(count - 1)]
    assert len(shares) == count
    assert shares[:-1] == drawn
    assert sum(shares) % modulus == 0
    assert all(0 <= share < modulus for share in shares)
