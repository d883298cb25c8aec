"""The server under test, run as its own process: ``python -m repro serve``.

:class:`ServerProcess` launches the deployed entry point with only the
options every version of it takes (``--random``, ``--seed``, an
ephemeral ``--port``, ``--queries 0``, ``--metrics-json`` and, for the
journal workload, ``--state-dir``), reads its CPU time and peak RSS from
``/proc`` while it runs, stops it with SIGTERM (the server drains and
writes its counters), and reconciles those counters with what the load
generator saw.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_SERVING = re.compile(r"serving \d+ rows on ([0-9.]+):(\d+)")
_LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

#: server counters the benchmark reads, by ``ServerStats`` field name
COUNTERS = (
    "sessions_admitted",
    "sessions_served",
    "sessions_dropped",
    "sessions_rejected",
    "sessions_shed",
    "bytes_in",
    "bytes_out",
)


def _process_cpu_clock(pid: int) -> int:
    """The clock id ``clock_getcpuclockid(pid)`` returns on Linux."""
    return ((~pid) << 3) | 2  # CPUCLOCK_SCHED, whole thread group


class ServerFailed(RuntimeError):
    """The server did not start, stop, or account as expected."""


class ServerProcess:
    """One ``repro serve`` process serving a seeded random database."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        n: int,
        db_seed: str,
        journal: bool = False,
        traced: bool = False,
        cpus: Optional[set] = None,
    ) -> None:
        workdir.mkdir(parents=True)
        self.log_path = workdir / "server.log"
        self.metrics_path = workdir / "metrics.json"
        self.spans_path = workdir / "spans.json" if traced else None
        serve = [
            "serve", "--random", str(n), "--seed", db_seed,
            "--port", "0", "--queries", "0",
            "--metrics-json", str(self.metrics_path),
        ]
        if journal:
            serve += ["--state-dir", str(workdir / "state")]
        if traced:
            command = [sys.executable, "-u", str(_LAUNCHER), str(self.spans_path)]
        else:
            command = [sys.executable, "-u", "-m", "repro"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command + serve, cwd=str(root), env=env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.address: Optional[tuple] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout_s: float = 60.0) -> tuple:
        """Block until the server prints its listening address."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _SERVING.search(self.log_path.read_text())
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return self.address
            if self.proc.poll() is not None:
                raise ServerFailed(
                    "server exited with %s before listening:\n%s"
                    % (self.proc.returncode, self.log_path.read_text()[-2000:])
                )
            time.sleep(0.002)
        raise ServerFailed("server not listening after %.0fs" % timeout_s)

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process so far (all threads).

        This is ``utime + stime`` of ``/proc/<pid>/stat``, read through
        the process CPU clock (``clock_getcpuclockid``) because the
        ``/proc`` figures come in 10 ms ticks sampled by the scheduler
        tick, which is ~10% noise on a window where a server spends
        well under a second of CPU.
        """
        return time.clock_gettime(_process_cpu_clock(self.pid))

    def rss_peak_mb(self) -> float:
        """``VmHWM``: the server's peak resident set, in MiB."""
        with open("/proc/%d/status" % self.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerFailed("no VmHWM for pid %d" % self.pid)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL and reap (used by the self-check and on errors)."""
        if self.alive():
            self.proc.kill()
        self.proc.wait()

    def stop(self, timeout_s: float = 60.0) -> Dict[str, int]:
        """SIGTERM, wait for the drain, and return the final counters."""
        if not self.alive():
            raise ServerFailed("server died (exit %s)" % self.proc.returncode)
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerFailed("server did not drain within %.0fs" % timeout_s)
        if code != 0:
            raise ServerFailed("server exited with %d" % code)
        return self.counters()

    def counters(self) -> Dict[str, int]:
        """The ``repro_server_*_total`` counters from ``--metrics-json``."""
        with open(self.metrics_path) as handle:
            metrics = json.load(handle)["metrics"]
        values = {m["name"]: m.get("value") for m in metrics}
        return {
            field: int(values.get("repro_server_%s_total" % field, 0))
            for field in COUNTERS
        }

    def spans(self) -> dict:
        """The launcher's dump: span rows and HELLO arrival stamps."""
        if self.spans_path is None:
            raise ServerFailed("server was not traced")
        with open(self.spans_path) as handle:
            return json.load(handle)


def reconcile(
    counters: Dict[str, int], verified: int, bytes_sent: int, bytes_received: int
) -> List[str]:
    """Mismatches between the server's counters and the client's view."""
    problems = []
    if counters["sessions_served"] != verified:
        problems.append(
            "server served %d, client verified %d"
            % (counters["sessions_served"], verified)
        )
    outcomes = (
        counters["sessions_served"]
        + counters["sessions_dropped"]
        + counters["sessions_rejected"]
    )
    if outcomes != counters["sessions_admitted"]:
        problems.append(
            "served + dropped + rejected = %d, admitted = %d"
            % (outcomes, counters["sessions_admitted"])
        )
    if counters["bytes_in"] != bytes_sent:
        problems.append(
            "server bytes in %d, client sent %d" % (counters["bytes_in"], bytes_sent)
        )
    if counters["bytes_out"] != bytes_received:
        problems.append(
            "server bytes out %d, client received %d"
            % (counters["bytes_out"], bytes_received)
        )
    return problems
