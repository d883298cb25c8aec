"""Golden values: every in-process protocol, modelled, pinned exactly.

Each protocol runs once under the short-distance and the wireless
environment, at n = 1000 with fixed seeds, and its result must equal
the values in ``golden_rounds.json`` with ``==``: the sum, the sizes,
the makespan, the byte and message counts, all six timing components
and every metadata entry except the channel objects.  Modelled runs are
deterministic, so any change to a protocol's time accounting (even the
order of its float additions) shows up here.
"""

import json
from pathlib import Path

import pytest

from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator
from repro.experiments.environments import short_distance, wireless
from repro.spfe.baselines import DownloadDatabaseProtocol, NonPrivateIndexProtocol
from repro.spfe.batching import BatchedSelectedSumProtocol
from repro.spfe.combined import CombinedSelectedSumProtocol
from repro.spfe.multiclient import MultiClientSelectedSumProtocol
from repro.spfe.multidatabase import DistributedSelectedSumProtocol
from repro.spfe.pir import SquareRootPIRProtocol
from repro.spfe.preprocessing import PreprocessedSelectedSumProtocol
from repro.spfe.selected_sum import SelectedSumProtocol
from repro.spfe.tradeoff import PartialPrivacySumProtocol

GOLDEN = Path(__file__).with_name("golden_rounds.json")

N = 1000
M = 100
ENVIRONMENTS = {"short": short_distance, "wireless": wireless}
_CHANNEL_KEYS = ("channel", "channels", "ring_channels")
_BREAKDOWN_FIELDS = (
    "client_encrypt_s",
    "server_compute_s",
    "communication_s",
    "client_decrypt_s",
    "offline_precompute_s",
    "combine_s",
)


def _workload():
    generator = WorkloadGenerator("golden-rounds")
    return generator.database(N), generator.random_selection(N, M)


def _partitions(database):
    bounds = (0, 400, 700, N)
    return [
        ServerDatabase(database.values[a:b], value_bits=database.value_bits)
        for a, b in zip(bounds, bounds[1:])
    ]


RUNS = {
    "plain": lambda ctx, db, sel: SelectedSumProtocol(ctx).run(db, sel),
    "batched": lambda ctx, db, sel: BatchedSelectedSumProtocol(ctx).run(db, sel),
    "preprocessed": lambda ctx, db, sel: PreprocessedSelectedSumProtocol(ctx).run(
        db, sel
    ),
    "preprocessed-dry": lambda ctx, db, sel: PreprocessedSelectedSumProtocol(
        ctx, pool_zeros=600, pool_ones=40
    ).run(db, sel),
    "combined": lambda ctx, db, sel: CombinedSelectedSumProtocol(ctx).run(db, sel),
    "combined-dry": lambda ctx, db, sel: CombinedSelectedSumProtocol(
        ctx, batch_size=64, pool_zeros=600, pool_ones=40
    ).run(db, sel),
    "multiclient": lambda ctx, db, sel: MultiClientSelectedSumProtocol(ctx).run(
        db, sel
    ),
    "partial-privacy": lambda ctx, db, sel: PartialPrivacySumProtocol(ctx).run(
        db, sel
    ),
    "send-indices": lambda ctx, db, sel: NonPrivateIndexProtocol(ctx).run(db, sel),
    "download": lambda ctx, db, sel: DownloadDatabaseProtocol(ctx).run(db, sel),
    "pir-sqrt": lambda ctx, db, sel: SquareRootPIRProtocol(ctx).retrieve(db, 417),
    "multidatabase-hidden": lambda ctx, db, sel: DistributedSelectedSumProtocol(
        ctx, hide_partials=True
    ).run_distributed(_partitions(db), sel),
}


def observe(environment: str, protocol: str) -> dict:
    """One protocol run reduced to JSON-comparable values."""
    database, selection = _workload()
    ctx = ENVIRONMENTS[environment].context(seed="golden-%s" % protocol)
    result = RUNS[protocol](ctx, database, selection)
    metadata = {
        key: value
        for key, value in result.metadata.items()
        if key not in _CHANNEL_KEYS
    }
    return json.loads(
        json.dumps(
            {
                "value": result.value,
                "n": result.n,
                "m": result.m,
                "makespan_s": result.makespan_s,
                "bytes_up": result.bytes_up,
                "bytes_down": result.bytes_down,
                "messages": result.messages,
                "breakdown": {
                    name: getattr(result.breakdown, name)
                    for name in _BREAKDOWN_FIELDS
                },
                "metadata": metadata,
            }
        )
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(
        "%s/%s" % (env, proto) for env in ENVIRONMENTS for proto in RUNS
    )


@pytest.mark.parametrize("environment", sorted(ENVIRONMENTS))
@pytest.mark.parametrize("protocol", sorted(RUNS))
def test_run_matches_golden(golden, environment, protocol):
    assert observe(environment, protocol) == golden[
        "%s/%s" % (environment, protocol)
    ]
