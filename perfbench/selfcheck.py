"""The benchmark's own checks, on tiny configurations (about half a minute).

Run from the repository root::

    python3 perfbench/selfcheck.py

It asserts that

* every workload, untraced and traced, exits 0 with ``correct: true``,
  no failed queries, and exactly the metrics ``BENCHMARK.json`` names;
* a tampered expected sum fails the run (exit 1, ``correct: false``);
* a server killed mid-run yields counted failures, not a hang;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--n", "64"]


def run(args: List[str], cwd: Path = ROOT, timeout: float = 120.0) -> Tuple[int, str, float]:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=str(cwd), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr[-3000:])
    return proc.returncode, proc.stdout, time.monotonic() - started


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit("selfcheck FAILED: " + message)
    print("ok  " + message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out, _ = run(
                ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)] + TINY
            )
            data = result(out)
            label = "%s --trace %d" % (workload, trace)
            check(code == 0 and data["correct"], label + " passes its checks")
            check(data["failed"] == 0 and data["attempted"] >= 1,
                  label + " reports attempted queries and no failures")
            check(set(data["metrics"]) == expected[trace],
                  label + " emits every named metric")

    code, out, _ = run(
        ["--workload", "fleet_1k", "--seed", "7", "--seconds", "1",
         "--trace", "0", "--tamper-sum", "1"] + TINY
    )
    check(code == 1 and not result(out)["correct"],
          "a tampered expected sum fails the run")

    code, out, elapsed = run(
        ["--workload", "fleet_1k", "--seed", "7", "--seconds", "3",
         "--trace", "0", "--kill-server-after", "0.5"] + TINY,
        timeout=90.0,
    )
    data = result(out)
    check(code == 1 and not data["correct"] and data["failed"] > 0,
          "a killed server yields counted failures (%d of %d failed, %.1fs)"
          % (data["failed"], data["attempted"], elapsed))

    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=str(ROOT)))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
        shutil.copytree(
            ROOT / "perfbench", scratch / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code, out, _ = run(
            ["--workload", "fleet_1k", "--seed", "7", "--seconds", "1",
             "--trace", "0"], cwd=scratch,
        )
        check(code != 0 and not out.strip(),
              "without the program the benchmark fails and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
