"""Warm-restart benchmark: what does the durable store actually save?

The paper's §3.3 preprocessing (encryptions of zero, fixed-base
tables) is exactly the state a process loses when it dies.  With
``--state-dir`` the precomputation is journalled, so a restarted server
*restores* its pool instead of re-running the modular exponentiation.
This benchmark measures both paths at the paper's 512-bit key size —

* **cold**: build the fixed-base table and precompute the obfuscator
  pool from scratch;
* **warm**: restore the same pool (table rows + single-use encryptions
  of zero) from the SQLite store;

— plus the per-operation cost of the session-journal write the server
commits once per socket read that folded chunks, timed on the row it
really writes (an in-progress chunk-8 session carrying its 217
digit-plane buckets), and writes the numbers to
``BENCH_store_warmstart.json`` at the repo root.

The only hard assertion is ``speedup >= 1``: restoring bytes must beat
re-deriving them cryptographically.  In practice the gap is orders of
magnitude; asserting the loose bound keeps slow CI runners green.
"""

import json
import time
from pathlib import Path

from repro.crypto.multiexp import PLANE_DIGITS, PLANE_WINDOW
from repro.crypto.paillier import RandomnessPool, generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.obs.registry import MetricsRegistry
from repro.store.state import SessionRecord, StateStore

KEY_BITS = 512  # the paper's deployment size
VALUE_BITS = 32  # the paper's value width
POOL_SIZE = 128
JOURNAL_OPS = 500
#: buckets of an in-progress session: one per nonzero digit of each
#: digit plane of a 32-bit weight (7 planes x 31 digits = 217)
JOURNAL_BUCKETS = -(-VALUE_BITS // PLANE_WINDOW) * PLANE_DIGITS  # ceil

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store_warmstart.json"


def test_warm_restart_beats_cold_precomputation(tmp_path):
    keypair = generate_keypair(KEY_BITS, DeterministicRandom("warmstart"))
    public = keypair.public
    metrics = MetricsRegistry()

    with StateStore(str(tmp_path / "bench.sqlite"), metrics=metrics) as store:
        # -- cold: table build + pool precompute, from nothing ----------
        started = time.perf_counter()
        cold = RandomnessPool(
            public, rng=DeterministicRandom("cold"), fixed_base=True
        )
        cold.precompute(POOL_SIZE)
        cold_s = time.perf_counter() - started

        store.save_randomness_pool(cold)

        # -- warm: the same pool, restored from journalled bytes --------
        started = time.perf_counter()
        warm = store.load_randomness_pool(
            public, rng=DeterministicRandom("warm")
        )
        warm_s = time.perf_counter() - started
        assert warm.restored == POOL_SIZE
        assert warm.export_table() is not None

        # restored obfuscators are the real thing: encryptions of zero
        ciphertext = public.raw_encrypt(0, warm.take())
        assert keypair.private.raw_decrypt(ciphertext) == 0

        # -- the per-read journal write on the server's hot path --------
        # what ServerSession journals mid-query at chunk 8: aggregate
        # still 1, every bucket a full-width residue mod n^2
        bucket_rng = DeterministicRandom("buckets")
        record = SessionRecord(
            session_id=b"\x42" * 16,
            key_bits=KEY_BITS,
            chunk_size=8,
            public_n=public.n,
            aggregate=1,
            received=400,
            chunks_received=50,
            done=False,
            buckets=tuple(
                bucket_rng.randbelow(public.nsquare)
                for _ in range(JOURNAL_BUCKETS)
            ),
        )
        started = time.perf_counter()
        for _ in range(JOURNAL_OPS):
            store.save_session(record)
        journal_write_us = (time.perf_counter() - started) * 1e6 / JOURNAL_OPS

        started = time.perf_counter()
        for _ in range(JOURNAL_OPS):
            store.load_session(record.session_id)
        journal_read_us = (time.perf_counter() - started) * 1e6 / JOURNAL_OPS

        counters = {
            snap.name: snap.value
            for snap in metrics.collect()
            if snap.kind == "counter"
        }

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    pool_lookups = counters.get("repro_store_pool_hits_total", 0) + counters.get(
        "repro_store_pool_misses_total", 0
    )
    results = {
        "key_bits": KEY_BITS,
        "pool_size": POOL_SIZE,
        "cold_precompute_s": cold_s,
        "warm_restore_s": warm_s,
        "speedup_warm_vs_cold": speedup,
        "obfuscators_restored": counters.get(
            "repro_store_pool_obfuscators_restored_total", 0
        ),
        "pool_hit_rate": (
            counters.get("repro_store_pool_hits_total", 0) / pool_lookups
            if pool_lookups
            else 0.0
        ),
        "table_hits": counters.get("repro_store_table_hits_total", 0),
        "journal_write_us": journal_write_us,
        "journal_read_us": journal_read_us,
        "journal_buckets": JOURNAL_BUCKETS,
        "journal_ops_per_measurement": JOURNAL_OPS,
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(
        "\nwarm restart: %.3fs cold vs %.4fs warm (%.0fx), "
        "journal write %.0f us/op\n"
        % (cold_s, warm_s, speedup, journal_write_us)
    )
    assert speedup >= 1.0, (
        "restoring the pool from the store was slower than re-deriving "
        "it: %r" % results
    )
    assert counters["repro_store_pool_hits_total"] == 1
