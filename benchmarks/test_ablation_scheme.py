"""Ablation — cryptosystem choice: Paillier vs exponential ElGamal.

Both schemes satisfy the homomorphic identities the protocol needs, but
exponential ElGamal stores the plaintext in an exponent and must solve a
discrete log to decrypt: O(sqrt(S)) group operations for a sum bounded
by S.  For the paper's 32-bit elements, sums reach ~2^49 at n = 100,000
— hopeless — which is why Paillier's full-range decryption is the
enabling choice.  This bench measures the real decryption-cost blowup
at growing sum bounds.
"""

import time

from repro.crypto.elgamal import ExponentialElGamalScheme, generate_elgamal_keypair
from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.experiments.series import ExperimentSeries


def _measure_elgamal_decrypt(bound: int, keypair, rng) -> float:
    scheme = ExponentialElGamalScheme(max_plaintext=bound)
    ciphertext = scheme.encrypt(keypair.public, bound - 1, rng)
    private = keypair.private
    private._bsgs_table = None  # fresh table per bound: measure full cost
    started = time.perf_counter()
    value = scheme.decrypt(private, ciphertext)
    elapsed = time.perf_counter() - started
    assert value == bound - 1
    return elapsed


def test_ablation_scheme_decryption(benchmark, emit):
    rng = DeterministicRandom("scheme-ablation")
    elgamal_keypair = generate_elgamal_keypair(256, rng)
    paillier_keypair = generate_keypair(512, rng)

    def run():
        series = ExperimentSeries(
            experiment_id="ablation-scheme",
            title="Decryption cost vs sum bound: Paillier vs exp-ElGamal",
            x_label="sum bound (bits)",
            unit="ms",
            columns=["paillier_decrypt", "elgamal_decrypt"],
            notes="exp-ElGamal decryption is O(sqrt(bound)); Paillier is flat",
        )
        for bound_bits in (8, 12, 16, 20, 24, 28):
            bound = 1 << bound_bits
            elgamal_ms = 1e3 * _measure_elgamal_decrypt(
                bound, elgamal_keypair, rng
            )
            ciphertext = paillier_keypair.public.encrypt_raw(bound - 1, rng)
            started = time.perf_counter()
            assert paillier_keypair.private.raw_decrypt(ciphertext) == bound - 1
            paillier_ms = 1e3 * (time.perf_counter() - started)
            series.add(
                bound_bits,
                paillier_decrypt=paillier_ms,
                elgamal_decrypt=elgamal_ms,
            )
        return series

    series = benchmark.pedantic(run, iterations=1, rounds=1)
    emit(series)

    small = series.at(8)
    large = series.at(28)
    # ElGamal blows up with the bound; Paillier stays flat.
    assert large.get("elgamal_decrypt") > 20 * small.get("elgamal_decrypt")
    assert large.get("paillier_decrypt") < 10 * max(
        small.get("paillier_decrypt"), 0.1
    )
    # At a 28-bit bound ElGamal already loses to Paillier outright —
    # and the paper's sums reach ~2^49, another 2^10 of sqrt-cost away.
    assert large.get("elgamal_decrypt") > large.get("paillier_decrypt")
