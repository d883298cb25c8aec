"""Fixtures shared across the test packages."""

import itertools

import pytest

from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
from repro.crypto.primes import random_prime, smooth_factors
from repro.crypto.rng import DeterministicRandom
from repro.crypto.scheme import SchemeKeyPair
from repro.exceptions import KeyGenerationError


def _plain_prime_keypair(bits):
    """A ``bits``-bit key pair from two plain ``random_prime`` primes whose
    ``p - 1`` and ``q - 1`` leave a composite cofactor after trial
    division, so the fixed-base sampler cannot certify a generator."""
    primes = []
    for attempt in itertools.count():
        candidate = random_prime(bits // 2, DeterministicRandom("plain-%d" % attempt))
        try:
            smooth_factors(candidate - 1)
        except KeyGenerationError:
            primes.append(candidate)
            if len(primes) == 2:
                break
    p, q = primes
    public = PaillierPublicKey(p * q)
    return SchemeKeyPair(public, PaillierPrivateKey(public, p, q))


@pytest.fixture()
def plain_prime_keypair():
    """Factory: ``plain_prime_keypair(bits)`` builds an uncertifiable key."""
    return _plain_prime_keypair
