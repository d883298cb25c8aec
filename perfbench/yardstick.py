"""Machine-speed yardstick, run as small processes beside the benchmark.

Usage::

    python3 perfbench/yardstick.py SAMPLES.json CPU

Pinned to ``CPU``, every :data:`PERIOD_S` it times one fixed burst of
work of the kind the program does (one 1024-bit modular exponentiation
with a 512-bit exponent, ~2.2 ms) and keeps
``[monotonic_stamp, seconds, cpu]``.  On SIGTERM it writes the samples
to ``SAMPLES.json`` and exits.  The mean burst time on a CPU over an
interval says how fast that CPU was then, and ``run.py`` scales its
timings by it.  The mean, not the median: burst times spread widely
and the median jumps between their modes, while the program's figures
are means over many operations.

The burst is timed in the sampler's own thread CPU time, not wall-clock
time: the server or the load generator shares the sampler's CPU, and
time the scheduler gives them during a burst must not count, or a
change that made the program busier would shrink its own figures.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Set

PERIOD_S = 0.1
WARMUP_S = 0.5
#: mean burst time on the reference machine (2 vCPUs at 2.1 GHz, quiet);
#: ``run.py`` reports timings as if every burst had taken this long
REFERENCE_BURST_S = 0.0022
#: fixed operands of the shape of a Paillier obfuscator at 512-bit keys:
#: a 1024-bit odd modulus, a 1020-bit base, a 512-bit exponent
_MODULUS = (1 << 1024) - 105
_BASE = (1 << 1019) + 0x5DEECE66D
_EXPONENT = (1 << 511) + 0xB


def burst() -> int:
    return pow(_BASE, _EXPONENT, _MODULUS)


class Yardstick:
    """One sampler process per CPU, started and stopped by the load generator.

    Each sampler stays pinned to its CPU: a sampler that moved between
    CPUs would time its own cache misses, which depend on how the host
    placed the CPUs, not on how fast they run.
    """

    def __init__(self, workdir: Path, cpus: List[int]) -> None:
        self.paths = [workdir / ("yardstick-cpu%d.json" % cpu) for cpu in cpus]
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(path), str(cpu)]
            )
            for path, cpu in zip(self.paths, cpus)
        ]
        #: ``[monotonic stamp, burst seconds, cpu]`` in time order
        self.samples: List[list] = []
        self._stamps: List[float] = []
        # let the samplers' interpreters start before anything is timed
        time.sleep(WARMUP_S)

    def stop(self) -> None:
        """SIGTERM the samplers and read their samples."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            proc.wait()
        for path in self.paths:
            if os.path.exists(path):
                with open(path) as handle:
                    self.samples.extend(json.load(handle))
        self.samples.sort()
        self._stamps = [sample[0] for sample in self.samples]

    def scale(self, start: float, end: float, cpus: Optional[Set[int]] = None) -> float:
        """Reference over mean burst time in a CLOCK_MONOTONIC interval.

        Only bursts on ``cpus`` count when given.  Multiply a duration
        measured in the interval (on those CPUs) by this to get the
        duration at reference speed; 1.0 when no burst fell inside.
        """
        inside = [
            seconds
            for _, seconds, cpu in self.samples[
                bisect.bisect_left(self._stamps, start)
                : bisect.bisect_right(self._stamps, end)
            ]
            if cpus is None or cpu in cpus
        ]
        return REFERENCE_BURST_S / statistics.fmean(inside) if inside else 1.0


def main(argv: List[str]) -> int:
    path, cpu = argv[0], int(argv[1])
    os.sched_setaffinity(0, {cpu})
    samples: List[list] = []
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    while not stopping:
        started = time.thread_time()
        burst()
        seconds = time.thread_time() - started
        samples.append([time.monotonic(), seconds, cpu])
        time.sleep(PERIOD_S)
    with open(path, "w") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
