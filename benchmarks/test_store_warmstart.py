"""Warm-restart benchmark: what the durable session journal costs.

With ``--state-dir`` the server journals a session when a socket read
folds a fold block, so a restarted process answers RESUME from the
store instead of making the client start over.  At n = 1000 (two
500-row blocks) that is two commits per query: the read that completes
block 0, and the read that completes the query.  Each commit is one
upsert of the session row, whose pending blob holds the rows of that
read after the block's end.  This benchmark times that journal at the
paper's 512-bit key size, for a chunk-8 session of an n = 1000
database:

* **write**: one ``save_session`` commit at the block-0 boundary of a
  session that has no row yet, carrying ``JOURNAL_PENDING`` ciphertexts
  (a read of seven chunk-8 frames, the first of which completes the
  block), the commit on the server's hot path;
* **read**: one ``load_session`` of such a row, what a warm restart
  pays per resumed session;

and writes the numbers to ``BENCH_store_warmstart.json`` at the repo
root.  Each figure is the median over ``ROUNDS`` rounds of
``JOURNAL_OPS`` operations, write and read rounds interleaved, so one
slow stretch of the host moves one round, not the figure.  The hard
assertions are correctness only (the rows round-trip and every
operation is counted); the timings are recorded, not gated.
"""

import json
import statistics
import time
from pathlib import Path

from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.obs.registry import MetricsRegistry
from repro.store.state import SessionRecord, StateStore

KEY_BITS = 512  # the paper's deployment size
JOURNAL_OPS = 192  # operations per timed round
ROUNDS = 9
#: block 0 of an n = 1000 database ends at row 500; a read of the seven
#: chunk-8 frames of rows 496-551 folds it and leaves rows 500-551
JOURNAL_RECEIVED = 552
JOURNAL_PENDING = 52

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store_warmstart.json"


def test_session_journal_write_and_read_cost(tmp_path):
    public = generate_keypair(KEY_BITS, DeterministicRandom("warmstart")).public
    metrics = MetricsRegistry()
    rng = DeterministicRandom("pending")

    def record(index):
        """What ServerSession journals for session ``index`` when block
        0 folds: the block's product and the read's later rows, each a
        full-width residue mod n^2."""
        return SessionRecord(
            session_id=index.to_bytes(16, "big"),
            key_bits=KEY_BITS,
            chunk_size=8,
            public_n=public.n,
            aggregate=rng.randbelow(public.nsquare),
            received=JOURNAL_RECEIVED,
            chunks_received=JOURNAL_RECEIVED // 8,
            done=False,
            pending=tuple(
                rng.randbelow(public.nsquare) for _ in range(JOURNAL_PENDING)
            ),
        )

    records = [record(index) for index in range(JOURNAL_OPS)]
    writes = reads = 0
    with StateStore(str(tmp_path / "bench.sqlite"), metrics=metrics) as store:
        write_us, read_us = [], []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            for fresh in records:
                store.save_session(fresh)
            write_us.append((time.perf_counter() - started) * 1e6 / JOURNAL_OPS)
            writes += JOURNAL_OPS

            started = time.perf_counter()
            for fresh in records:
                loaded = store.load_session(fresh.session_id)
            read_us.append((time.perf_counter() - started) * 1e6 / JOURNAL_OPS)
            reads += JOURNAL_OPS
            assert loaded is not None and loaded.pending == records[-1].pending
            # untimed: the next round inserts its rows afresh, as a
            # session's first commit does
            for fresh in records:
                store.delete_session(fresh.session_id)
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
        "\nsession journal (median of %d rounds): block-boundary commit"
        " %.0f us/op (rounds %.0f-%.0f), read %.0f us/op (rounds %.0f-%.0f)\n"
        % (ROUNDS, journal_write_us, min(write_us), max(write_us),
           journal_read_us, min(read_us), max(read_us))
    )
    assert counters["repro_store_journal_writes_total"] == writes
    assert counters["repro_store_journal_hits_total"] == reads
