"""Warm-restart benchmark: what the durable session journal costs.

With ``--state-dir`` the server journals each session once per socket
read that folded chunks, so a restarted process answers RESUME from the
store instead of making the client start over.  Pending ciphertexts are
journalled append-only (schema v9): a commit that folds no block writes
the session row and one pending row with the read's new ciphertexts.
This benchmark times that journal at the paper's 512-bit key size, on
the rows the server really writes for a chunk-8 session of an
n = 1000 database, whose first 500-row fold block fills over the
query:

* **write**: one ``save_session`` commit that appends one read's
  ciphertexts (``JOURNAL_APPEND``, seven chunk-8 frames) to a block
  already partly journalled, the commit on the server's hot path;
* **read**: one ``load_session`` of the session once
  ``JOURNAL_READ_ROWS`` such reads are journalled, what a warm restart
  pays per resumed session;

and writes the numbers to ``BENCH_store_warmstart.json`` at the repo
root.  Each figure is the median over ``ROUNDS`` rounds of about
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
#: ciphertexts one commit appends: a read of seven chunk-8 frames
JOURNAL_APPEND = 56
#: appends journalled before a block folds: 448 of the block's 500
#: rows, so the read loads 448 pending ciphertexts from 8 rows
JOURNAL_READ_ROWS = 8

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store_warmstart.json"


def test_session_journal_write_and_read_cost(tmp_path):
    public = generate_keypair(KEY_BITS, DeterministicRandom("warmstart")).public
    metrics = MetricsRegistry()
    pending_rng = DeterministicRandom("pending")
    ciphertexts = tuple(
        pending_rng.randbelow(public.nsquare)
        for _ in range(JOURNAL_APPEND * JOURNAL_READ_ROWS)
    )
    aggregate = pending_rng.randbelow(public.nsquare)

    def record(appends):
        """What ServerSession journals after ``appends`` reads into the
        block: the aggregate so far and the block's ciphertexts, each a
        full-width residue mod n^2."""
        received = appends * JOURNAL_APPEND
        return SessionRecord(
            session_id=b"\x42" * 16,
            key_bits=KEY_BITS,
            chunk_size=8,
            public_n=public.n,
            aggregate=aggregate,
            received=received,
            chunks_received=received // 8,
            done=False,
            pending=ciphertexts[: appends * JOURNAL_APPEND],
        )

    chain = [record(appends) for appends in range(JOURNAL_READ_ROWS + 1)]
    chains = JOURNAL_OPS // JOURNAL_READ_ROWS
    writes = reads = 0
    with StateStore(str(tmp_path / "bench.sqlite"), metrics=metrics) as store:
        write_us, read_us = [], []
        for _ in range(ROUNDS):
            elapsed = 0.0
            for _ in range(chains):
                store.save_session(chain[0])  # the block before: untimed
                started = time.perf_counter()
                for appended in chain[1:]:
                    store.save_session(appended)
                elapsed += time.perf_counter() - started
                writes += len(chain)
            write_us.append(elapsed * 1e6 / (chains * JOURNAL_READ_ROWS))

            started = time.perf_counter()
            for _ in range(JOURNAL_OPS):
                loaded = store.load_session(chain[-1].session_id)
            read_us.append((time.perf_counter() - started) * 1e6 / JOURNAL_OPS)
            reads += JOURNAL_OPS
            assert loaded is not None and loaded.pending == chain[-1].pending
        (rows,) = store._conn.execute(
            "SELECT COUNT(*) FROM session_pending"
        ).fetchone()
        assert rows == JOURNAL_READ_ROWS  # one row per append
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
        "journal_append": JOURNAL_APPEND,
        "journal_read_rows": JOURNAL_READ_ROWS,
        "journal_read_pending": len(chain[-1].pending),
        "journal_ops_per_round": chains * JOURNAL_READ_ROWS,
        "rounds": ROUNDS,
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(
        "\nsession journal (median of %d rounds): append %.0f us/op"
        " (rounds %.0f-%.0f), read %.0f us/op (rounds %.0f-%.0f)\n"
        % (ROUNDS, journal_write_us, min(write_us), max(write_us),
           journal_read_us, min(read_us), max(read_us))
    )
    assert counters["repro_store_journal_writes_total"] == writes
    assert counters["repro_store_journal_hits_total"] == reads
