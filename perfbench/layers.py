"""Per-layer figures for the traced run, per query, named after the modules.

Client-side spans come from wrappers this module installs in the load
generator; server-side spans come from ``launcher.py``.  Both wrap
public attributes only.  The model residuals set the measured layers
beside ``ProtocolCostEstimator`` under a profile calibrated on this
machine (``calibrate_profile(use_kernels=True)``).
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from spans import SpanRecorder, SpanSummary


def client_recorder() -> SpanRecorder:
    """Wrap the load generator's layer boundaries; caller unwraps."""
    import workloads
    from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
    from repro.net import codec
    from repro.net.transport import SocketTransport

    recorder = SpanRecorder()
    recorder.wrap(PaillierPublicKey, "encrypt_raw", "crypto.encrypt")
    recorder.wrap(PaillierPrivateKey, "raw_decrypt", "crypto.decrypt")
    recorder.wrap(codec, "encode_ciphertext_chunk", "net.codec.encode")
    recorder.wrap(SocketTransport, "send", "client.send")
    recorder.wrap(workloads, "draw_ciphertexts", "client.pool_fetch")
    return recorder


def _model(workload, n: int):
    from repro.spfe.context import ExecutionContext
    from repro.spfe.estimator import ProtocolCostEstimator
    from repro.timing.costmodel import calibrate_profile
    from workloads import KEY_BITS

    profile = calibrate_profile(key_bits=KEY_BITS, use_kernels=True)
    estimator = ProtocolCostEstimator(
        ExecutionContext(
            client_profile=profile, server_profile=profile, key_bits=KEY_BITS
        )
    )
    return estimator.preprocessed(n) if workload.preprocessed else estimator.plain(n)


def layer_metrics(
    workload,
    n: int,
    client_rows: List[list],
    server_dump: dict,
    counters: Dict[str, int],
    tally,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric for one traced server's lifetime."""
    client = SpanSummary(client_rows)
    server = SpanSummary(server_dump["spans"])
    # The traced server's whole life (warm-up included) is divided by
    # its verified queries, which reconcile with its served counter.
    queries = max(tally.verified, 1)
    waits = [
        stamp - tally.connect_stamps[session_id]
        for session_id, stamp in server_dump["admissions"]
        if session_id in tally.connect_stamps
    ]
    figures = {
        "crypto.encrypt_s": client.seconds["crypto.encrypt"],
        "crypto.encrypt_calls": client.calls["crypto.encrypt"],
        "crypto.decrypt_s": client.seconds["crypto.decrypt"],
        "client.pool_fetch_s": client.seconds["client.pool_fetch"],
        "net.codec.encode_s": client.seconds["net.codec.encode"],
        "client.wait_s": client.waits("client.send", "crypto.decrypt"),
        "spfe.session.receive_s": server.seconds["spfe.session.receive"],
        "spfe.session.self_s": server.self_seconds("spfe.session.receive"),
        "crypto.fold_s": server.seconds["crypto.fold"],
        "crypto.fold_calls": server.calls["crypto.fold"],
        "spfe.validation.check_s": server.seconds["spfe.validation.check"],
        "net.codec.decode_s": server.seconds["net.codec.decode"],
        "spfe.session.registry_save_s": server.seconds["spfe.session.registry_save"],
        "store.journal_write_s": server.seconds["store.journal_write"],
        "store.journal_writes": server.calls["store.journal_write"],
        "net.transport.recv_calls": server.calls["net.transport.recv"],
        "net.transport.send_calls": server.calls["net.transport.send"],
    }
    metrics = {name: value / queries for name, value in figures.items()}
    metrics["net.server.admission_wait_s"] = sum(waits) / len(waits) if waits else 0.0
    for name, field in (
        ("sessions_admitted", "sessions_admitted"),
        ("sessions_served", "sessions_served"),
        ("sessions_dropped", "sessions_dropped"),
        ("sessions_rejected", "sessions_rejected"),
        ("busy_shed", "sessions_shed"),
    ):
        metrics["net.server." + name] = counters[field]
    metrics["trace.queries"] = tally.verified
    # Both per-query means over the same queries, so this is a true share
    # (over the median latency it exceeded 1 when the host slowed down).
    metrics["crypto.encrypt_latency_share"] = metrics["crypto.encrypt_s"] / (
        statistics.fmean(tally.latencies)
    )
    metrics["trace.fold_is_largest_child"] = float(
        server.largest_child("spfe.session.receive") == "crypto.fold"
    )

    estimate = _model(workload, n)
    modelled = estimate.breakdown
    # §3.3 replaces online encryption with pool fetches, so a
    # preprocessed client's "encrypt" layer is its pool draw.
    measured_encrypt = metrics[
        "client.pool_fetch_s" if workload.preprocessed else "crypto.encrypt_s"
    ]
    wire = (tally.bytes_sent + tally.bytes_received) / queries
    metrics["model.encrypt_ratio"] = measured_encrypt / modelled.client_encrypt_s
    metrics["model.fold_ratio"] = metrics["crypto.fold_s"] / modelled.server_compute_s
    metrics["model.decrypt_ratio"] = (
        metrics["crypto.decrypt_s"] / modelled.client_decrypt_s
    )
    metrics["model.wire_bytes_ratio"] = wire / estimate.total_bytes
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics
