"""`ServerSupervisor`: restart the server child when it dies.

Durability (the journal) only pays off if *something* brings the
process back.  The supervisor is that something: it runs the server as
a child process and, whenever the child exits abnormally (SIGKILL, a
crash, an OOM kill), restarts it after a bounded exponential backoff —
so the ``--state-dir`` journal turns ``kill -9`` into a pause, not an
outage.  Clients ride through the gap via
:func:`repro.spfe.session.run_resilient`: their reconnect loop retries
until the replacement child is listening, then RESUMEs from the
journal.

The restart budget is deliberately bounded (a child that dies
``max_restarts`` times within one ``reset_after_s`` window is not
coming back on its own — crash-looping forever just hides the bug),
and a child that stays up long enough earns its budget back, the
classic supervision-tree policy.

Used programmatically by the chaos tests and from the CLI as
``repro supervise -- <serve args>``.
"""

from __future__ import annotations

import subprocess
import threading
import time
from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Union

from repro.exceptions import SupervisorError
from repro.obs.registry import MetricsRegistry
from repro.store.state import STORE_METRIC_HELP

__all__ = ["SupervisorPolicy", "ServerSupervisor"]

@dataclass(frozen=True)
class SupervisorPolicy:
    """Bounded exponential backoff for child restarts.

    Attributes:
        max_restarts: abnormal exits tolerated within one backoff
            window before the supervisor gives up.
        base_delay_s: sleep before the first restart.
        max_delay_s: backoff ceiling.
        multiplier: growth factor per consecutive crash.
        reset_after_s: a child that survives this long earns its full
            restart budget back (the crash streak resets to zero).
    """

    max_restarts: int = 5
    base_delay_s: float = 0.1
    max_delay_s: float = 5.0
    multiplier: float = 2.0
    reset_after_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise SupervisorError("max_restarts must be non-negative")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise SupervisorError(
                "need 0 <= base_delay_s <= max_delay_s, got %r / %r"
                % (self.base_delay_s, self.max_delay_s)
            )
        if self.multiplier < 1.0:
            raise SupervisorError("multiplier must be >= 1")
        if self.reset_after_s <= 0:
            raise SupervisorError("reset_after_s must be positive")

    def delay_s(self, crash_streak: int) -> float:
        """Backoff before restart number ``crash_streak`` (1-based)."""
        if crash_streak < 1:
            return self.base_delay_s
        delay = self.base_delay_s * self.multiplier ** (crash_streak - 1)
        return min(delay, self.max_delay_s)


class ServerSupervisor:
    """Run ``argv`` as a child process; restart it on abnormal exit.

    A monitor thread waits on the child.  Exit code 0 (or a stop
    requested through :meth:`stop`) ends supervision; any other exit —
    including death by signal — triggers a backed-off restart until the
    :class:`SupervisorPolicy` budget runs out.

    Thread-safety: child handle and counters live behind ``_lock``
    (SEC004-guarded); the monitor thread and caller threads both touch
    them.

    Args:
        argv: the child command line, e.g.
            ``[sys.executable, "-m", "repro", "serve", ...]``.
        policy: restart budget and backoff schedule.
        metrics: optional registry for ``repro_store_supervisor_*``.
        stdout/stderr: passed through to :class:`subprocess.Popen`
            (tests capture, the CLI inherits).
    """

    def __init__(
        self,
        argv: Sequence[str],
        policy: Optional[SupervisorPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        stdout: Union[int, IO[bytes], None] = None,
        stderr: Union[int, IO[bytes], None] = None,
    ) -> None:
        if not argv:
            raise SupervisorError("supervisor needs a non-empty command line")
        self.argv: List[str] = list(argv)
        self.policy = policy or SupervisorPolicy()
        self._stdout = stdout
        self._stderr = stderr
        self._lock = threading.Lock()
        self._child: Optional[subprocess.Popen] = None
        self._monitor: Optional[threading.Thread] = None
        self._stopping = False
        self._gave_up = False
        self._restarts = 0
        self._restarts_total = (
            metrics.counter(
                "repro_store_supervisor_restarts_total",
                STORE_METRIC_HELP["repro_store_supervisor_restarts_total"],
            )
            if metrics is not None
            else None
        )
        self._giveups_total = (
            metrics.counter(
                "repro_store_supervisor_giveups_total",
                STORE_METRIC_HELP["repro_store_supervisor_giveups_total"],
            )
            if metrics is not None
            else None
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> int:
        """Spawn the child and the monitor thread; returns the child pid."""
        with self._lock:
            if self._monitor is not None:
                raise SupervisorError("supervisor already started")
            self._stopping = False
            pid = self._spawn_locked()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-supervisor", daemon=True
            )
            self._monitor.start()
        return pid

    def stop(self, timeout_s: float = 10.0) -> None:
        """Terminate the child (TERM, then KILL) and end supervision."""
        with self._lock:
            self._stopping = True
            child = self._child
            monitor = self._monitor
        if child is not None and child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        if monitor is not None:
            monitor.join(timeout=timeout_s)

    def join(self, timeout_s: Optional[float] = None) -> None:
        """Wait for supervision to end (clean exit or budget exhausted)."""
        with self._lock:
            monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=timeout_s)

    # -- introspection ----------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        """Pid of the live child, or None."""
        with self._lock:
            child = self._child
        if child is None or child.poll() is not None:
            return None
        return child.pid

    @property
    def restarts(self) -> int:
        """Abnormal-exit restarts performed so far."""
        with self._lock:
            return self._restarts

    @property
    def gave_up(self) -> bool:
        """True once the restart budget was exhausted."""
        with self._lock:
            return self._gave_up

    # -- internals --------------------------------------------------------

    def _spawn_locked(self) -> int:
        """Start one child; caller holds ``_lock``."""
        try:
            self._child = subprocess.Popen(
                self.argv, stdout=self._stdout, stderr=self._stderr
            )
        except OSError as exc:
            raise SupervisorError(
                "cannot start %r: %s" % (self.argv[0], exc)
            ) from exc
        return self._child.pid

    def _monitor_loop(self) -> None:
        """Wait on the child; restart under the policy until done."""
        crash_streak = 0
        while True:
            with self._lock:
                child = self._child
            if child is None:
                return
            started = time.monotonic()
            returncode = child.wait()
            uptime = time.monotonic() - started
            with self._lock:
                if self._stopping:
                    return
            if returncode == 0:
                return  # clean exit: supervision done
            if uptime >= self.policy.reset_after_s:
                crash_streak = 0  # long-lived child earns its budget back
            crash_streak += 1
            if crash_streak > self.policy.max_restarts:
                with self._lock:
                    self._gave_up = True
                if self._giveups_total is not None:
                    self._giveups_total.inc()
                return
            time.sleep(self.policy.delay_s(crash_streak))
            with self._lock:
                if self._stopping:
                    return
                self._spawn_locked()
                self._restarts += 1
            if self._restarts_total is not None:
                self._restarts_total.inc()

    def __enter__(self) -> "ServerSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
