"""End-to-end benchmark of the deployed ``repro serve`` path.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_1k --seed 1 --seconds 30 --trace 0

The server is ``python -m repro serve`` in its own process; this
process is the load generator (at most two connections, at most two
threads) talking to it over loopback with 512-bit keys and 32-bit
values.  Every decrypted sum is checked against the plaintext
reference, and at the end of each server's life its ``--metrics-json``
counters are reconciled with what the load generator saw.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced half and a traced half (spans recorded around public calls on
both sides, see ``launcher.py``) and prints the per-layer metrics.  The
last line of standard output is one JSON object; the exit code is 0
only when every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("query_1k", "fleet_1k", "fleet_journal_chunk8")
#: cold starts per end-to-end run; ``setup_s`` is their median
SETUP_REPS = 3
#: most of the §3.3 ciphertexts sent that may repeat an earlier one
MAX_REPEAT_SHARE = 0.01


class RunFailed(RuntimeError):
    """The run cannot produce figures; its counts are still reported."""


class Tally:
    """Queries seen by one server (or one measured window)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.verified = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: latency of each verified query, in seconds
        self.latencies: List[float] = []
        self.connect_stamps: Dict[str, float] = {}
        self.errors: List[str] = []

    def add(self, outcome) -> None:
        self.attempted += 1
        self.bytes_sent += outcome.bytes_sent
        self.bytes_received += outcome.bytes_received
        if outcome.ok:
            self.verified += 1
            self.latencies.append(outcome.latency_s)
            self.connect_stamps[outcome.session_id] = outcome.connect_stamp
        else:
            self.errors.append(outcome.error)

    @property
    def failed(self) -> int:
        return self.attempted - self.verified


class Bench:
    """One benchmark run: servers, clients, checks and figures."""

    def __init__(self, workload, seed: int, work: Path, args) -> None:
        from repro.datastore.workload import WorkloadGenerator
        from workloads import full_width_key_seed

        self.workload = workload
        self.work = work
        self.n = args.n or workload.n
        self.tamper = args.tamper_sum
        self.kill_after = args.kill_server_after
        self.db_seed = "perfbench/%s/%d" % (workload.name, seed)
        self.database = WorkloadGenerator(self.db_seed).database(self.n)
        self.key_seed = full_width_key_seed(self.db_seed)
        #: one per server, warm-ups included: the run's query counts
        self.tallies: List[Tally] = []
        self.problems: List[str] = []
        self._indices = itertools.count()
        self._servers = itertools.count()
        self._lock = threading.Lock()
        self._abort = threading.Event()
        work.mkdir(parents=True)
        # Like the paper's two machines: the server gets the last CPU to
        # itself, the load generator the others (on one CPU, both share).
        self.cpus = sorted(os.sched_getaffinity(0))
        self.server_cpus: Optional[set] = None
        self.client_cpus: Optional[set] = None
        if len(self.cpus) > 1:
            self.server_cpus = {self.cpus[-1]}
            self.client_cpus = set(self.cpus[:-1])
            os.sched_setaffinity(0, self.client_cpus)

    @property
    def attempted(self) -> int:
        return sum(tally.attempted for tally in self.tallies)

    @property
    def failed(self) -> int:
        return sum(tally.failed for tally in self.tallies)

    # -- driving connections ------------------------------------------------

    def _drive(self, body: Callable[[int], None]) -> None:
        """Run ``body(connection)`` for each connection, one thread each.

        Connection 0 runs on the calling thread, so the load generator
        never has more threads than connections.
        """
        errors: List[BaseException] = []

        def guarded(connection: int) -> None:
            try:
                body(connection)
            except BaseException as exc:  # re-raised on the calling thread
                self._abort.set()
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(c,))
            for c in range(1, self.workload.connections)
        ]
        for thread in threads:
            thread.start()
        guarded(0)
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def _one(self, client, address, tallies: Tuple[Tally, ...]) -> None:
        from workloads import WrongSum

        try:
            outcome = client.query(next(self._indices), address)
        except WrongSum as exc:
            self._count(exc.outcome, tallies)  # a failed query; the run stops
            raise
        self._count(outcome, tallies)

    def _count(self, outcome, tallies: Tuple[Tally, ...]) -> None:
        with self._lock:
            for tally in tallies:
                tally.add(outcome)

    # -- server lifecycle -----------------------------------------------------

    def set_up(self, traced: bool = False):
        """Cold start to the first verified sum on every connection.

        Launches ``repro serve``, does the client's seeded offline work
        while the server starts, then runs one warm-up query per
        connection.  Returns (server, client, (seconds, monotonic start,
        monotonic end), tally).
        """
        from server import ServerProcess
        from workloads import Client

        started = time.perf_counter()
        stamp = time.monotonic()
        server = ServerProcess(
            ROOT, self.work / ("server%d" % next(self._servers)), self.n,
            self.db_seed, journal=self.workload.journal, traced=traced,
            cpus=self.server_cpus,
        )
        tally = Tally()
        self.tallies.append(tally)
        try:
            client = Client(
                self.workload, self.db_seed, self.key_seed, self.database, self.tamper
            )
            address = server.wait_ready()
            self._drive(lambda _c: self._one(client, address, (tally,)))
        except BaseException:
            server.kill()
            raise
        seconds = time.perf_counter() - started
        return server, client, (seconds, stamp, time.monotonic()), tally

    def measure(self, server, client, tally: Tally, seconds: float) -> dict:
        """Closed-loop queries on every connection for ``seconds``.

        Returns the window's tally, its (monotonic time, server CPU,
        load-generator CPU) at start and end, and the server's peak RSS.
        """
        window = Tally()
        start = (time.monotonic(), server.cpu_seconds(), time.process_time())
        started = time.perf_counter()
        deadline = started + seconds

        def loop(connection: int) -> None:
            while time.perf_counter() < deadline and not self._abort.is_set():
                if (
                    connection == 0
                    and self.kill_after is not None
                    and time.perf_counter() - started > self.kill_after
                    and server.alive()
                ):
                    server.kill()  # self-check: failures must be counted
                self._one(client, server.address, (tally, window))

        try:
            self._drive(loop)
        except BaseException:
            server.kill()
            raise
        if not server.alive():
            self.finish(server, client, tally)
            raise RunFailed("the server died during the measured window")
        end = (time.monotonic(), server.cpu_seconds(), time.process_time())
        return {
            "window": window,
            "span": (start, end),
            "rss_peak_mb": server.rss_peak_mb(),
        }

    def finish(self, server, client, tally: Tally) -> Optional[Dict[str, int]]:
        """Stop the server and reconcile its counters with ``tally``."""
        from server import ServerFailed, reconcile

        if client.repeat_share > MAX_REPEAT_SHARE:
            self.problems.append(
                "%.2f%% of the sent ciphertexts repeat an earlier one"
                % (100 * client.repeat_share)
            )
        for error in tally.errors[:3]:
            sys.stderr.write("query failed: %s\n" % error)
        try:
            counters = server.stop()
        except (ServerFailed, OSError) as exc:
            self.problems.append("server: %s" % exc)
            return None
        self.problems.extend(
            reconcile(counters, tally.verified, tally.bytes_sent, tally.bytes_received)
        )
        return counters

    def _window_times(self, yardstick, span: tuple) -> Tuple[dict, dict]:
        """A window's elapsed time and CPU figures, raw and at reference speed.

        Server CPU is scaled by the speed of the server's CPU over the
        window, load-generator CPU by that of its CPUs, and elapsed time
        by both, weighted by their shares of the window's CPU time.
        Returns (raw, reference) dicts with the keys ``elapsed_s``,
        ``server_cpu_s`` and ``client_cpu_s``; ``reference`` also has
        ``speed``, the scale for the window's elapsed times.
        """
        (t0, server0, client0), (t1, server1, client1) = span
        raw = {
            "elapsed_s": t1 - t0,
            "server_cpu_s": server1 - server0,
            "client_cpu_s": client1 - client0,
        }
        busy = raw["server_cpu_s"] + raw["client_cpu_s"]
        share = raw["server_cpu_s"] / busy if busy > 0 else 0.5
        on_server = yardstick.scale(t0, t1, self.server_cpus)
        on_client = yardstick.scale(t0, t1, self.client_cpus)
        speed = on_server ** share * on_client ** (1.0 - share)
        reference = {
            "elapsed_s": raw["elapsed_s"] * speed,
            "server_cpu_s": raw["server_cpu_s"] * on_server,
            "client_cpu_s": raw["client_cpu_s"] * on_client,
            "speed": speed,
        }
        return raw, reference

    # -- the two kinds of run ---------------------------------------------------

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        from yardstick import Yardstick

        yardstick = Yardstick(self.work, self.cpus)
        setups = []
        try:
            for rep in range(SETUP_REPS):
                server, client, setup, tally = self.set_up()
                setups.append(setup)
                if rep + 1 < SETUP_REPS:
                    self.finish(server, client, tally)
            result = self.measure(server, client, tally, seconds)
            self.finish(server, client, tally)
        finally:
            yardstick.stop()
        window = result["window"]
        queries = max(window.verified, 1)
        # The host's speed drifts by tens of percent over tens of seconds,
        # so timings are reported at the yardstick's reference speed:
        # each is scaled by the speed of the CPUs it ran on while it ran
        # (README.md, "Reported at reference machine speed").  The raw
        # figures go to stderr.
        raw_times, reference_times = self._window_times(yardstick, result["span"])
        figures = {}
        for label, times, speed, setup_speed in (
            ("raw", raw_times, 1.0, lambda start, end: 1.0),
            ("reference", reference_times, reference_times["speed"], yardstick.scale),
        ):
            p50, p90, beyond = _p50_p90([lat * speed for lat in window.latencies])
            figures[label] = {
                "setup_s": statistics.median(
                    s * setup_speed(start, end) for s, start, end in setups
                ),
                "latency_p50_s": p50,
                "latency_p90_s": p90,
                "throughput_qps": window.verified / times["elapsed_s"],
                "server_cpu_per_query_s": times["server_cpu_s"] / queries,
                "client_cpu_per_query_s": times["client_cpu_s"] / queries,
                "wire_bytes_per_query": (window.bytes_sent + window.bytes_received)
                / queries,
                "server_rss_peak_mb": result["rss_peak_mb"],
            }
        sys.stderr.write(
            "%s: %d verified queries in the window, %d beyond p90%s\n"
            "set-ups (raw s): %s\nrepeated ciphertexts: %d of %d\nraw: %s\n"
            % (self.workload.name, window.verified, beyond,
               "" if beyond >= 10 else " (fewer than ten: read p90 as near-max)",
               ", ".join("%.3f" % s for s, _, _ in setups),
               client.sent - len(client.sent_hashes), client.sent,
               json.dumps(figures["raw"]))
        )
        return figures["reference"]

    def per_layer(self, seconds: float) -> Dict[str, float]:
        from layers import client_recorder, layer_metrics
        from yardstick import Yardstick

        half = seconds / 2.0
        yardstick = Yardstick(self.work, self.cpus)
        try:
            server, client, _, tally = self.set_up()
            untraced = self.measure(server, client, tally, half)
            self.finish(server, client, tally)

            recorder = client_recorder()
            try:
                server, client, _, tally = self.set_up(traced=True)
                traced = self.measure(server, client, tally, half)
                counters = self.finish(server, client, tally)
            finally:
                recorder.unwrap_all()
        finally:
            yardstick.stop()
        if counters is None:
            raise RunFailed("the traced server did not stop cleanly")

        def reference_qps(result: dict) -> float:
            _, reference = self._window_times(yardstick, result["span"])
            return result["window"].verified / reference["elapsed_s"]

        return layer_metrics(
            self.workload,
            self.n,
            recorder.rows(),
            server.spans(),
            counters,
            tally,
            overhead_ratio=reference_qps(traced) / reference_qps(untraced),
        )


def _p50_p90(latencies: List[float]) -> Tuple[float, float, int]:
    """Median, 90th percentile, and the number of samples beyond it."""
    if len(latencies) < 2:
        value = latencies[0] if latencies else float("nan")
        return value, value, 0
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return statistics.median(latencies), p90, sum(1 for x in latencies if x > p90)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check hooks (perfbench/selfcheck.py); defaults are the benchmark.
    parser.add_argument("--n", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--tamper-sum", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument(
        "--kill-server-after", type=float, default=None, help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like an error, so its servers and
    # samplers are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            "perfbench: no program to measure (src/repro missing under %s)\n" % ROOT
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, WrongSum

    work = ROOT / ".perfbench_work" / ("%d" % os.getpid())
    bench = Bench(WORKLOADS[args.workload], args.seed, work, args)
    metrics: Dict[str, float] = {}
    try:
        if args.trace:
            metrics = bench.per_layer(args.seconds)
        else:
            metrics = bench.end_to_end(args.seconds)
    except WrongSum as exc:
        bench.problems.append("wrong sum: %s" % exc)
    except RunFailed as exc:
        bench.problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run shares the directory, or it is already gone
    if not bench.attempted:
        bench.problems.append("no query was attempted")
    for problem in bench.problems:
        sys.stderr.write("CHECK FAILED: %s\n" % problem)
    correct = not bench.problems
    units = _units()
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _units() -> Dict[str, str]:
    """Metric units, from BENCHMARK.json when it is present."""
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
