"""Kernel benchmark suite v3: each shipped kernel against its textbook loop.

Measures the crypto kernels over a (key_bits, n) grid and writes the
numbers to ``BENCH_kernels.json`` at the repo root:

* the server aggregate ``prod_i c_i^{w_i} mod n^2`` — the naive
  per-element ``pow()`` fold against
  :func:`~repro.crypto.multiexp.multi_exponent`, which compiles a
  Bos–Coster :func:`~repro.crypto.multiexp.fold_plan` of the weights
  and runs it (``multiexp_s``), and against the run alone of a plan
  compiled beforehand (``fold_run_s``), which is what the deployed
  server pays per query;
* client encryption — textbook ``PaillierPublicKey.encrypt_raw``
  (``r^n mod n^2`` as one full-width ``pow``) against
  ``PaillierPrivateKey.encrypt_raw_crt`` (the per-prime fixed-base
  sampler the deployed client runs, its tables built before timing,
  best of ``TABLE_BUILDS`` builds recorded as ``sampler_tables_s``);
  every ciphertext of both must decrypt to its plaintext;
* the encryption obfuscator ``r^n mod n^2`` — full ``pow()`` against
  the byte-digit :class:`~repro.crypto.multiexp.FixedBaseTable` that
  :class:`~repro.crypto.paillier.RandomnessPool` refills through.

The sides of each comparison run interleaved A/B/A/B, best of
``ROUNDS``, so they see the same machine load.  The fold and table
kernels must return exactly what their textbook loops return; the
encryption sampler draws different (equally distributed) obfuscators,
so it is checked by decryption.

The full run uses the paper's 512-bit keys (plus 256-bit) with n in
{200, 1000}.  Set ``REPRO_KERNEL_SMOKE=1`` for the CI smoke variant:
256-bit keys, n=200, and a 1.0x multiexp and table floor instead of
2.0x.  Speedup assertions run *after* the JSON is written so a
regression still leaves the numbers on disk to inspect.
"""

import json
import math
import os
import time
from pathlib import Path

from repro.crypto.multiexp import FixedBaseTable, fold_plan, multi_exponent
from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom

SMOKE = os.environ.get("REPRO_KERNEL_SMOKE", "") not in ("", "0")
GRID = [(256, 200)] if SMOKE else [(256, 200), (256, 1000), (512, 200), (512, 1000)]
WEIGHT_BITS = 32
ROUNDS = 3  # best-of-3: minimum over rounds rejects scheduler noise
TABLE_BUILDS = 5  # sampler table builds per grid point, best recorded
MIN_SPEEDUP = 1.0 if SMOKE else 2.0
MIN_CRT_SPEEDUP = 1.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def best_of_interleaved(*fns, rounds=ROUNDS):
    """Best-of for each function with rounds interleaved A/B/A/B.

    Comparing separately-taken best-of minima conflates the code under
    test with whatever else the machine was doing during each window;
    interleaving gives every side the same load profile.  Returns one
    ``(best seconds, last result)`` pair per function.
    """
    best = [None] * len(fns)
    results = [None] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            results[i] = fn()
            elapsed = time.perf_counter() - start
            if best[i] is None or elapsed < best[i]:
                best[i] = elapsed
    return list(zip(best, results))


def naive_weighted_product(ciphertexts, weights, modulus, n):
    acc = 1
    for ct, w in zip(ciphertexts, weights):
        acc = acc * pow(ct, w % n, modulus) % modulus
    return acc


def bench_weighted(public, ciphertexts, weights):
    """Naive fold vs ``multi_exponent`` (compile and run) vs the run of a
    precompiled fold plan, at one grid point."""
    n, nsquare = public.n, public.nsquare
    plan = fold_plan([w % n for w in weights])
    (naive_s, expected), (multiexp_s, result), (fold_run_s, folded) = (
        best_of_interleaved(
            lambda: naive_weighted_product(ciphertexts, weights, nsquare, n),
            lambda: multi_exponent(ciphertexts, [w % n for w in weights], nsquare),
            lambda: plan.run(ciphertexts, nsquare),
        )
    )
    assert result == expected and folded == expected
    return {
        "naive_s": naive_s,
        "multiexp_s": multiexp_s,
        "fold_run_s": fold_run_s,
        "speedup_multiexp_vs_naive": naive_s / multiexp_s,
    }


def bench_encrypt(keypair, size):
    """Textbook vs fixed-base sampler encryption of ``size`` plaintexts."""
    public, private = keypair.public, keypair.private
    plaintexts = list(range(size))
    seed = "kernel-bench-encrypt-%d-%d" % (public.bits, size)
    # One build cannot resolve a change below ~1.5x on a loaded host, so
    # the figure is the best of TABLE_BUILDS, each from a key with no
    # tables kept (the encryptions below use the last one).
    tables_s = None
    for _ in range(TABLE_BUILDS):
        private._tables = None
        table_start = time.perf_counter()
        private.sampler_tables()
        elapsed = time.perf_counter() - table_start
        tables_s = elapsed if tables_s is None else min(tables_s, elapsed)

    def textbook():
        rng = DeterministicRandom(seed)
        return [public.encrypt_raw(m, rng) for m in plaintexts]

    def crt():
        rng = DeterministicRandom(seed)
        return [private.encrypt_raw_crt(m, rng) for m in plaintexts]

    (textbook_s, expected), (crt_s, result) = best_of_interleaved(textbook, crt)
    for ciphertexts in (expected, result):
        assert [private.raw_decrypt(c) for c in ciphertexts] == plaintexts
    return {
        "textbook_s": textbook_s,
        "crt_s": crt_s,
        "sampler_tables_s": tables_s,
        "speedup_crt_vs_textbook": textbook_s / crt_s,
    }


def bench_fixed_base(public, rng, count):
    """Full ``pow`` obfuscators vs the fixed-base table, per operation."""
    n, nsquare = public.n, public.nsquare
    h = rng.randrange(2, n)
    xs = [rng.randrange(1, 1 << public.bits) for _ in range(count)]

    build_start = time.perf_counter()
    table = FixedBaseTable(pow(h, n, nsquare), nsquare, public.bits)
    table_build_s = time.perf_counter() - build_start

    (pow_s, pow_result), (table_s, table_result) = best_of_interleaved(
        lambda: [pow(pow(h, x, n), n, nsquare) for x in xs],
        lambda: [table.pow(x) for x in xs],
    )
    assert table_result == pow_result  # (h^x)^n == (h^n)^x mod n^2
    pow_per_op, table_per_op = pow_s / count, table_s / count
    return {
        "key_bits": public.bits,
        "ops": count,
        "pow_per_op_s": pow_per_op,
        "table_per_op_s": table_per_op,
        "table_build_s": table_build_s,
        "speedup_table_vs_pow": pow_per_op / table_per_op,
        "build_amortised_after_ops": (
            table_build_s / max(pow_per_op - table_per_op, 1e-12)
        ),
    }


def test_kernel_benchmarks():
    rng = DeterministicRandom("kernel-bench")
    grid_reports = []
    fb_report = None

    for key_bits, size in GRID:
        keypair = generate_keypair(key_bits, rng)
        public = keypair.public
        n, nsquare = public.n, public.nsquare

        # Random units of Z*_{n^2} stand in for ciphertexts: the fold
        # only sees opaque group elements, and this skips n encryptions.
        ciphertexts = []
        while len(ciphertexts) < size:
            c = rng.randrange(1, nsquare)
            if math.gcd(c, n) == 1:
                ciphertexts.append(c)
        weights = [rng.randrange(0, 1 << WEIGHT_BITS) for _ in range(size)]

        point = {
            "key_bits": key_bits,
            "n": size,
            "weighted": bench_weighted(public, ciphertexts, weights),
            "encrypt": bench_encrypt(keypair, size),
        }
        grid_reports.append(point)
        wp, enc = point["weighted"], point["encrypt"]
        print(
            "\nkernel bench (%d-bit, n=%d): naive=%.3fs multiexp=%.3fs (%.2fx) "
            "fold run=%.3fs encrypt textbook=%.3fs crt=%.3fs (%.2fx)"
            % (key_bits, size, wp["naive_s"], wp["multiexp_s"],
               wp["speedup_multiexp_vs_naive"], wp["fold_run_s"],
               enc["textbook_s"], enc["crt_s"], enc["speedup_crt_vs_textbook"])
        )

        if fb_report is None:  # one representative point
            fb_report = bench_fixed_base(public, rng, max(32, size // 8))

    report = {
        "suite": "benchmarks/test_kernels.py",
        "version": 3,
        "smoke": SMOKE,
        "params": {
            "grid": [list(point) for point in GRID],
            "weight_bits": WEIGHT_BITS,
            "rounds": ROUNDS,
        },
        "grid": grid_reports,
        "fixed_base_obfuscator": fb_report,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    for point in grid_reports:
        wp, enc = point["weighted"], point["encrypt"]
        label = "(%d-bit, n=%d)" % (point["key_bits"], point["n"])
        assert wp["speedup_multiexp_vs_naive"] >= MIN_SPEEDUP, (
            "multiexp kernel regressed at %s: %.2fx vs required %.1fx (see %s)"
            % (label, wp["speedup_multiexp_vs_naive"], MIN_SPEEDUP, RESULT_PATH)
        )
        assert enc["speedup_crt_vs_textbook"] >= MIN_CRT_SPEEDUP, (
            "CRT encryption lost to textbook at %s: %.2fx (see %s)"
            % (label, enc["speedup_crt_vs_textbook"], RESULT_PATH)
        )
    assert fb_report["speedup_table_vs_pow"] >= MIN_SPEEDUP, (
        "fixed-base table regressed: %.2fx vs required %.1fx"
        % (fb_report["speedup_table_vs_pow"], MIN_SPEEDUP)
    )
