"""Modern-hardware comparison: the paper's protocol, measured today.

The paper closes: "It remains open to improve the execution times to
scale efficiently to realistically-sized databases."  Two decades of
hardware later, this bench measures the *real* protocol (pure-Python
Paillier at the paper's 512-bit keys) on the current machine, fits a
per-element cost, and extrapolates to the paper's n = 100,000 — the
"what would it cost today" row of EXPERIMENTS.md.

Even in interpreted Python, a modern core runs the 2004 protocol's
dominant operation several times faster than the fitted Pentium-III
model; a C implementation (like the paper's OpenSSL one) would widen
that by another order of magnitude.
"""

from repro.crypto.paillier import PaillierScheme
from repro.datastore.workload import WorkloadGenerator
from repro.experiments.series import ExperimentSeries
from repro.spfe.context import ExecutionContext
from repro.spfe.selected_sum import SelectedSumProtocol
from repro.timing.costmodel import Op, profiles


def run_measured(n, seed="modern"):
    generator = WorkloadGenerator(seed)
    database = generator.database(n)
    selection = generator.random_selection(n, max(1, n // 20))
    ctx = ExecutionContext(
        scheme=PaillierScheme(), key_bits=512, mode="measured", rng=seed
    )
    result = SelectedSumProtocol(ctx).run(database, selection)
    result.verify(database.select_sum(selection))
    return result


def test_modern_hardware_comparison(benchmark, emit):
    def sweep():
        series = ExperimentSeries(
            experiment_id="modern-hardware",
            title="Real 512-bit runs on this machine vs the 2004 model",
            x_label="database size",
            unit="s",
            columns=[
                "measured_encrypt",
                "measured_server",
                "model_2004_encrypt",
                "speedup_vs_2004",
            ],
        )
        for n in (100, 250, 500):
            result = run_measured(n)
            model_encrypt = n * profiles.pentium3_2ghz.cost(Op.ENCRYPT, 512)
            series.add(
                n,
                measured_encrypt=result.breakdown.client_encrypt_s,
                measured_server=result.breakdown.server_compute_s,
                model_2004_encrypt=model_encrypt,
                speedup_vs_2004=model_encrypt
                / max(result.breakdown.client_encrypt_s, 1e-9),
            )
        return series

    series = benchmark.pedantic(sweep, iterations=1, rounds=1)
    emit(series)

    last = series.final()
    # Pure-Python on a modern core still beats the fitted 2004 numbers.
    assert last.get("speedup_vs_2004") > 1.0

    # Extrapolated full paper workload on this machine, today:
    per_element = last.get("measured_encrypt") / last.x
    extrapolated_minutes = per_element * 100_000 / 60
    print(
        "\nextrapolated n=100,000 client encryption on this machine: "
        "%.1f min (paper's 2004 model: 18.0 min)" % extrapolated_minutes
    )
    # Interpreted Python within ~20 min; the paper-era C++ took 18.
    assert extrapolated_minutes < 30
