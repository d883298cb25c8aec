"""Warm-restart benchmark: what the durable session journal costs.

With ``--state-dir`` the server journals each session once per socket
read that folded chunks, so a restarted process answers RESUME from the
store instead of making the client start over.  This benchmark times
that journal at the paper's 512-bit key size, on the row the server
really writes (an in-progress chunk-8 session whose fold block is half
received, 128 pending ciphertexts, the average over a query):

* **write**: one ``save_session`` upsert, the commit on the server's
  hot path;
* **read**: one ``load_session``, what a warm restart pays per resumed
  session;

and writes the numbers to ``BENCH_store_warmstart.json`` at the repo
root.  Each figure is the median over ``ROUNDS`` rounds of
``JOURNAL_OPS`` operations, write and read rounds interleaved, so one
slow stretch of the host moves one round, not the figure.  The hard
assertions are correctness only (the row round-trips and every
operation is counted); the timings are recorded, not gated.
"""

import json
import statistics
import time
from pathlib import Path

from repro.crypto.multiexp import FOLD_BLOCK
from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.obs.registry import MetricsRegistry
from repro.store.state import SessionRecord, StateStore

KEY_BITS = 512  # the paper's deployment size
JOURNAL_OPS = 200  # operations per timed round
ROUNDS = 9
#: pending ciphertexts of an in-progress session: a block holds 0 to
#: FOLD_BLOCK - 1 of them as it fills, half a block on average
JOURNAL_PENDING = FOLD_BLOCK // 2

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store_warmstart.json"


def test_session_journal_write_and_read_cost(tmp_path):
    public = generate_keypair(KEY_BITS, DeterministicRandom("warmstart")).public
    metrics = MetricsRegistry()

    with StateStore(str(tmp_path / "bench.sqlite"), metrics=metrics) as store:
        # what ServerSession journals mid-query at chunk 8: the
        # aggregate of the blocks folded so far and the ciphertexts of
        # the current block, each a full-width residue mod n^2
        pending_rng = DeterministicRandom("pending")
        record = SessionRecord(
            session_id=b"\x42" * 16,
            key_bits=KEY_BITS,
            chunk_size=8,
            public_n=public.n,
            aggregate=pending_rng.randbelow(public.nsquare),
            received=FOLD_BLOCK + JOURNAL_PENDING,
            chunks_received=(FOLD_BLOCK + JOURNAL_PENDING) // 8,
            done=False,
            pending=tuple(
                pending_rng.randbelow(public.nsquare)
                for _ in range(JOURNAL_PENDING)
            ),
        )
        write_us, read_us = [], []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            for _ in range(JOURNAL_OPS):
                store.save_session(record)
            write_us.append((time.perf_counter() - started) * 1e6 / JOURNAL_OPS)

            started = time.perf_counter()
            for _ in range(JOURNAL_OPS):
                loaded = store.load_session(record.session_id)
            read_us.append((time.perf_counter() - started) * 1e6 / JOURNAL_OPS)
            assert loaded is not None and loaded.pending == record.pending
        journal_write_us = statistics.median(write_us)
        journal_read_us = statistics.median(read_us)

        counters = {
            snap.name: snap.value
            for snap in metrics.collect()
            if snap.kind == "counter"
        }

    results = {
        "key_bits": KEY_BITS,
        "journal_write_us": journal_write_us,
        "journal_read_us": journal_read_us,
        "journal_pending": JOURNAL_PENDING,
        "journal_ops_per_round": JOURNAL_OPS,
        "rounds": ROUNDS,
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(
        "\nsession journal (median of %d rounds): write %.0f us/op"
        " (rounds %.0f-%.0f), read %.0f us/op (rounds %.0f-%.0f)\n"
        % (ROUNDS, journal_write_us, min(write_us), max(write_us),
           journal_read_us, min(read_us), max(read_us))
    )
    assert counters["repro_store_journal_writes_total"] == ROUNDS * JOURNAL_OPS
    assert counters["repro_store_journal_hits_total"] == ROUNDS * JOURNAL_OPS
