"""Supervised concurrent server runtime for the selected-sum protocol.

``serve_over_transport`` handles *one* connection; this module is the
deployment wrapper around it that survives the open internet: many
simultaneous clients, admission control, untrusted-input policy, and a
graceful drain on shutdown.  The ROADMAP's north star is heavy traffic,
and related work on private aggregation treats adversarial clients as
the default — so the runtime assumes every peer may be slow, malicious,
or both.

Architecture (all plain threads, no extra dependencies):

* an **accept loop** owns the listening socket.  Accepted connections
  go into a *bounded* queue; when the queue is full — every worker busy
  and the backlog occupied — the connection is *shed* with a typed BUSY
  frame and closed instead of being left to time out.  BUSY is a
  :class:`~repro.exceptions.ServerBusy` (a transient transport error)
  on the client side, so :func:`~repro.spfe.session.run_resilient`
  retries it under its normal backoff policy.  The BUSY send itself
  happens on a dedicated **shed thread** under a small send budget, so
  a peer that never reads can never stall admission of honest clients.
* a **worker pool** of ``max_sessions`` threads runs one
  :class:`~repro.spfe.session.ServerSession` per connection.  Each
  connection gets a per-read deadline *and* an optional total
  wall-clock budget (``connection_deadline_s``) so one slow-loris
  client costs a bounded slice of one worker, never the pool.
* every session is validated against a
  :class:`~repro.spfe.validation.ServerPolicy`; violations answer a
  typed ERROR frame and are counted, and the worker moves on to the
  next connection — one malicious client never stops honest service.
* **drain**: :meth:`SpfeServer.initiate_drain` (wired to SIGINT/SIGTERM
  by :meth:`install_signal_handlers`) stops accepting, sheds anything
  still queued, lets in-flight sessions finish under a drain deadline,
  then force-closes stragglers.
* **accounting**: :class:`ServerAccounting` owns the ``max_queries``
  budget, the in-flight and active-connection gauges, and the one
  classification path that turns a finished connection into exactly
  one of served / dropped / rejected.  Once the server has drained::

      sessions_served + sessions_dropped + sessions_rejected
          == sessions_admitted

  ``sessions_admitted`` counts connections handed to the protocol
  layer; shed connections never enter the invariant.
* **observability**: every counter lives in a
  :class:`~repro.obs.registry.MetricsRegistry` (:class:`ServerStats` is
  a thin view over it), phase latencies flow through a shared
  :class:`~repro.obs.tracing.Tracer`, and ``stats_port=...`` opts into
  a :class:`~repro.obs.http.StatsEndpoint` serving ``/metrics`` and
  ``/healthz`` on a separate listener.
"""

from __future__ import annotations

import queue
import signal
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.datastore.database import ServerDatabase
from repro.exceptions import (
    ParameterError,
    TransportError,
    TransportTimeout,
    ValidationError,
)
from repro.net import codec
from repro.net.transport import DEFAULT_RECV_BYTES, SocketTransport
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.spfe.session import ServerSession, SessionRegistry
from repro.spfe.validation import ServerPolicy

if TYPE_CHECKING:
    from repro.obs.http import StatsEndpoint
    from repro.store.state import StateStore

__all__ = [
    "DEFAULT_DRAIN_DEADLINE_S",
    "ServerAccounting",
    "ServerStats",
    "SpfeServer",
]

DEFAULT_DRAIN_DEADLINE_S = 30.0

#: how often blocking loops wake to check for drain (also the accept poll)
_POLL_S = 0.1

#: per-connection send budget for BUSY frames — small enough that even a
#: flood of never-reading peers drains quickly
_SHED_SEND_BUDGET_S = 0.05

#: prefix turning a ServerStats field into its registry metric name
_METRIC_PREFIX = "repro_server_"

#: built-in counters and their exposition help text
_FIELD_HELP: Dict[str, str] = {
    "connections_accepted": "TCP connections accepted by the listener.",
    "sessions_admitted":
        "Connections that passed admission control and were handed to "
        "the protocol layer (served + dropped + rejected reconcile "
        "against this at drain).",
    "sessions_served": "Protocol runs served to completion.",
    "sessions_dropped":
        "Sessions lost to transport failures, peer disconnects, or "
        "internal errors.",
    "sessions_shed":
        "Connections refused with a typed BUSY frame (admission control).",
    "sessions_rejected": "Sessions answered with a typed ERROR frame.",
    "validation_rejections":
        "Rejected sessions that failed a trust-boundary or policy check.",
    "sessions_errored_internal":
        "Dropped sessions whose cause was a server-side internal error, "
        "not the peer (also counted in sessions_dropped).",
    "bytes_in": "Application bytes received across all sessions.",
    "bytes_out": "Application bytes sent across all sessions.",
}


class ServerStats:
    """Named per-server counters, backed by a metrics registry.

    Each field is a :class:`~repro.obs.registry.MetricsRegistry`
    :class:`~repro.obs.registry.Counter` (one
    ``repro_server_<field>_total`` each), so the same numbers that
    :meth:`snapshot` reports in-process are scraped from ``/metrics``
    without a second bookkeeping path that could drift.  ``add``/``get``
    reject names outside the fixed field set, so accounting typos stay
    loud.

    ``sessions_admitted`` counts connections that passed admission
    control; ``sessions_served`` counts completed protocol runs;
    ``dropped`` is transport-level losses (timeouts, resets, budget
    exhaustion), of which ``sessions_errored_internal`` were the
    server's own fault; ``shed`` is admission-control rejections (BUSY);
    ``rejected`` is sessions answered with a typed ERROR, of which
    ``validation_rejections`` failed a trust-boundary or policy check.
    Byte counters aggregate the per-session accounting.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters: Dict[str, Counter] = {
            name: self.metrics.counter(_METRIC_PREFIX + name + "_total", help_text)
            for name, help_text in _FIELD_HELP.items()
        }

    def add(self, name: str, amount: int = 1) -> int:
        """Bump a counter; returns its new value."""
        counter = self._counters.get(name)
        if counter is None:
            raise ParameterError("unknown counter %r" % name)
        return counter.inc(amount)

    def get(self, name: str) -> int:
        """Read one counter."""
        counter = self._counters.get(name)
        if counter is None:
            raise ParameterError("unknown counter %r" % name)
        return counter.value

    def snapshot(self) -> Dict[str, int]:
        """A copy of all counters (one consistent read per counter)."""
        return {name: counter.value for name, counter in self._counters.items()}

    def summary(self) -> str:
        """Human-readable multi-line summary (printed on shutdown)."""
        snap = self.snapshot()
        return (
            "sessions: %d served, %d dropped (%d internal), %d shed, "
            "%d rejected (%d validation)\n"
            "bytes: %d in, %d out (%d connections)"
            % (
                snap["sessions_served"],
                snap["sessions_dropped"],
                snap["sessions_errored_internal"],
                snap["sessions_shed"],
                snap["sessions_rejected"],
                snap["validation_rejections"],
                snap["bytes_in"],
                snap["bytes_out"],
                snap["connections_accepted"],
            )
        )


class ServerAccounting:
    """The admission, budget, and outcome bookkeeping of one server.

    :class:`SpfeServer` owns sockets and threads; this class owns the
    numbers:

    * the ``max_queries`` budget — :meth:`admit_query_budget`,
      :meth:`release_query_budget`, and the atomic :meth:`retire_session`
      (served-bump and in-flight release under one ``_budget_lock``
      acquisition, so an admission check can never observe a finishing
      session in both totals);
    * the in-flight / active-connection gauges plus a peak-concurrency
      gauge the fleet tests assert ``max_sessions`` bounds against;
    * :meth:`budgeted_timeout`, the per-read deadline under an optional
      total ``connection_deadline_s`` wall-clock budget;
    * :meth:`account_outcome`, the single classification path from a
      finished connection to exactly one of served / dropped / rejected
      (plus the byte totals and the ``sessions_errored_internal`` tag).
    """

    def __init__(
        self,
        stats: ServerStats,
        *,
        metrics: MetricsRegistry,
        max_queries: int = 0,
        note: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.stats = stats
        self.max_queries = max_queries
        self._note = note if note is not None else (lambda message: None)
        self._budget_lock = threading.Lock()
        #: admitted-but-unfinished sessions counted against max_queries
        self._in_flight = 0
        self._in_flight_gauge = metrics.gauge(
            "repro_server_in_flight_sessions",
            "Admitted sessions not yet retired (queued or being served).",
        )
        self._active_gauge = metrics.gauge(
            "repro_server_active_connections",
            "Connections currently attached to a worker.",
        )
        self._peak_lock = threading.Lock()
        self._active_peak = 0
        self._active_peak_gauge = metrics.gauge(
            "repro_server_active_connections_peak",
            "High-water mark of concurrently served connections.",
        )

    # -- query budget -------------------------------------------------------

    def admit_query_budget(self) -> bool:
        """Reserve an in-flight slot; False when max_queries is spent.

        The budget counts served plus in-flight sessions, so admission
        stops as soon as enough work to satisfy the budget has *started*
        — extra clients are shed with BUSY and can retry, and a slot is
        released if its session drops or is rejected.  In-flight is
        tracked (and exported as a gauge) even without a budget.
        """
        with self._budget_lock:
            if self.max_queries:
                served = self.stats.get("sessions_served")
                if served + self._in_flight >= self.max_queries:
                    return False
            self._in_flight += 1
            self._in_flight_gauge.set(self._in_flight)
            return True

    def release_query_budget(self) -> None:
        """Release an admitted slot that never became a served session."""
        with self._budget_lock:
            self._in_flight -= 1
            self._in_flight_gauge.set(self._in_flight)

    def retire_session(self, served: bool) -> bool:
        """Atomically retire one admitted session; True = budget now met.

        The ``sessions_served`` bump and the in-flight release happen
        under the same ``_budget_lock`` acquisition that
        :meth:`admit_query_budget` takes.  When they were two separate
        steps, an admission check running between them saw the finishing
        session counted in *both* ``served`` and in-flight and could
        shed a connection the budget actually allowed (transient
        double-count at the ``max_queries`` boundary).  The caller
        initiates its drain when this returns True — the accounting holds
        no reference to the server.
        """
        with self._budget_lock:
            self._in_flight -= 1
            self._in_flight_gauge.set(self._in_flight)
            if served:
                total = self.stats.add("sessions_served")
                if self.max_queries and total >= self.max_queries:
                    return True
        return False

    def in_flight(self) -> int:
        """The current number of admitted-but-unretired sessions."""
        with self._budget_lock:
            return self._in_flight

    # -- per-connection bookkeeping -----------------------------------------

    def session_admitted(self) -> None:
        """Count one connection handed to the protocol layer."""
        self.stats.add("sessions_admitted")

    def connection_attached(self) -> None:
        """A connection is now actively being served; tracks the peak."""
        active = int(self._active_gauge.inc())
        with self._peak_lock:
            if active > self._active_peak:
                self._active_peak = active
                self._active_peak_gauge.set(active)

    def connection_detached(self) -> None:
        """The active connection's worker let go of it."""
        self._active_gauge.dec()

    @property
    def peak_active(self) -> int:
        """High-water mark of concurrently served connections."""
        with self._peak_lock:
            return self._active_peak

    def budgeted_timeout(
        self,
        started: float,
        read_timeout: Optional[float],
        connection_deadline_s: Optional[float],
    ) -> Optional[float]:
        """The next read's deadline under the connection budget.

        Raises :class:`~repro.exceptions.TransportTimeout` once the
        total wall-clock budget (when configured) is spent.
        """
        if connection_deadline_s is None:
            return read_timeout
        remaining = connection_deadline_s - (time.monotonic() - started)
        if remaining <= 0:
            raise TransportTimeout(
                "connection exceeded its %.1fs budget" % connection_deadline_s
            )
        if read_timeout is None:
            return remaining
        return min(read_timeout, remaining)

    # -- outcome classification ---------------------------------------------

    def account_outcome(
        self, session, outcome: str, peer: Tuple, detail: str
    ) -> bool:
        """Account one finished connection; True when served to completion.

        ``outcome`` is the worker's transport-level verdict:
        ``"detached"`` (the session loop exited on its own terms),
        ``"dropped"`` (a transport error or deadline cut it off), or
        ``"internal"`` (a server-side bug).  Combined with the session's
        own state this yields exactly one of served / dropped / rejected
        — classification order matters:

        1. internal errors are drops the server owns;
        2. an errored session was answered (or at least owed) a typed
           ERROR — it is rejected even if that final send failed;
        3. a transport-level drop is a drop *even when the session
           finished*: a RESULT the peer never received was not served
           (this branch used to be unreachable behind ``finished``, so
           a failed RESULT send vanished from every outcome counter);
        4. a finished session whose transport survived was served;
        5. anything else is a peer that went away mid-run.
        """
        self.stats.add("bytes_in", session.bytes_received)
        self.stats.add("bytes_out", session.bytes_sent)
        if outcome == "internal":
            self.stats.add("sessions_dropped")
            self.stats.add("sessions_errored_internal")
            self._note("dropped %s: internal error: %s" % (peer, detail))
            return False
        if session.errored:
            self.stats.add("sessions_rejected")
            if isinstance(session.last_error, ValidationError):
                self.stats.add("validation_rejections")
            self._note("rejected %s: %s" % (peer, session.last_error))
            return False
        if outcome == "dropped":
            self.stats.add("sessions_dropped")
            if session.finished:
                self._note(
                    "dropped %s: result computed but never delivered: %s"
                    % (peer, detail)
                )
            else:
                self._note("dropped %s: %s" % (peer, detail))
            return False
        if session.finished:
            self._note(
                "served %s: %d bytes in, %d out"
                % (peer, session.bytes_received, session.bytes_sent)
            )
            return True
        # Clean EOF before completion: the peer went away mid-run (it
        # may resume on a later connection).
        self.stats.add("sessions_dropped")
        self._note("dropped %s: peer closed mid-session" % (peer,))
        return False


class SpfeServer:
    """Concurrent selected-sum server with admission control and drain.

    The server leaves the interpreter-wide GIL switch interval alone.
    At CPython's default 5 ms, one session's ~10 ms block fold makes
    every other connection's accept, hand-off and reads wait out a
    whole interval, so a loaded server idles.  ``repro serve`` runs at
    :data:`repro.cli.SERVE_SWITCH_INTERVAL_S` (1 ms); an embedder
    serving several connections should likewise save
    ``sys.getswitchinterval()``, call ``sys.setswitchinterval(0.001)``
    and restore the saved value in a ``finally``.

    Args:
        database: the server-side data; shared read-only by all workers.
        host/port: bind address (port 0 = ephemeral; see :attr:`port`).
        policy: resource limits applied to every session; None installs
            the default :class:`ServerPolicy`.  A policy moves only the
            limits: the key and ciphertext checks run under every policy.
        store: optional :class:`~repro.store.state.StateStore` making
            the server's resume registry a durable journal — sessions
            survive a server *process* restart, not just a dropped
            connection.  The server does not own the store: the caller
            that opened it closes it after :meth:`stop`.
        max_sessions: worker threads = maximum concurrent sessions.
        accept_backlog: bounded queue of accepted-but-unstarted
            connections; beyond it, connections are shed with BUSY.
        read_timeout: per-read deadline for each connection (None = no
            per-read deadline; strongly discouraged outside tests).
        connection_deadline_s: optional total wall-clock budget per
            connection; a client that is merely *slow* is cut off once
            its budget is spent, freeing the worker.
        max_queries: query budget (0 = unlimited).  Admission is gated
            on it — once served + in-flight sessions reach the budget,
            further connections are shed with BUSY, so the server never
            *starts* more work than the budget allows — and the server
            drains once this many sessions have been *served to
            completion*.  Dropped, shed, and rejected sessions release
            their slot instead of consuming the budget, so with
            ``max_queries=1`` the server keeps accepting retries until
            one query actually succeeds (it does not exit after the
            first failed connection, as the pre-concurrency server did).
        busy_retry_ms: retry-after hint carried in BUSY frames.
        metrics: optional shared
            :class:`~repro.obs.registry.MetricsRegistry`; None builds a
            private one.  All counters, gauges, and phase histograms of
            this server live there.
        stats_port: when not None, :meth:`start` also binds a
            :class:`~repro.obs.http.StatsEndpoint` on ``(host,
            stats_port)`` (0 = ephemeral; see :attr:`stats_address`)
            serving ``/metrics``, ``/metrics.json``, and ``/healthz``.
        log: optional callable for one-line progress messages
            (``out.write``-compatible; lines end with ``\\n``).
    """

    def __init__(
        self,
        database: ServerDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        policy: Optional[ServerPolicy] = None,
        store: Optional[StateStore] = None,
        max_sessions: int = 4,
        accept_backlog: int = 8,
        read_timeout: Optional[float] = 30.0,
        connection_deadline_s: Optional[float] = None,
        max_queries: int = 0,
        busy_retry_ms: int = 250,
        metrics: Optional[MetricsRegistry] = None,
        stats_port: Optional[int] = None,
        log: Optional[Callable[[str], object]] = None,
    ) -> None:
        if max_sessions < 1:
            raise ParameterError("max_sessions must be positive")
        if accept_backlog < 1:
            raise ParameterError("accept_backlog must be positive")
        if max_queries < 0:
            raise ParameterError("max_queries must be non-negative")
        if stats_port is not None and stats_port < 0:
            raise ParameterError("stats_port must be non-negative")
        self.database = database
        self.host = host
        self.policy = policy if policy is not None else ServerPolicy()
        self.store = store
        self.registry = SessionRegistry(store=store)
        self.max_sessions = max_sessions
        self.accept_backlog = accept_backlog
        self.read_timeout = read_timeout
        self.connection_deadline_s = connection_deadline_s
        self.max_queries = max_queries
        self.busy_retry_ms = busy_retry_ms
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ServerStats(self.metrics)
        self.tracer = Tracer(registry=self.metrics)
        self.stats_port = stats_port
        self._stats_endpoint: Optional[StatsEndpoint] = None
        self._log = log
        self._core = ServerAccounting(
            self.stats,
            metrics=self.metrics,
            max_queries=max_queries,
            note=self._note,
        )
        self._requested_port = port
        self._listener: Optional[socket.socket] = None
        self._queue: "queue.Queue[Optional[Tuple[socket.socket, Tuple]]]" = (
            queue.Queue(maxsize=accept_backlog)
        )
        #: refused connections awaiting their best-effort BUSY frame;
        #: bounded so a shed flood holds a bounded number of sockets
        self._shed_queue: "queue.Queue[Optional[socket.socket]]" = queue.Queue(
            maxsize=max(32, accept_backlog * 4)
        )
        self._accept_thread: Optional[threading.Thread] = None
        self._shed_thread: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []
        self._active_lock = threading.Lock()
        self._active: Dict[int, SocketTransport] = {}
        self._drain = threading.Event()
        self._stopped = threading.Event()
        self._finalize_lock = threading.Lock()
        self._finalized = False
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SpfeServer":
        """Bind, then launch the accept loop, shed thread, and worker pool.

        Startup is transactional: a failure after the listener is bound
        (the stats endpoint's port being taken is the realistic case)
        unwinds whatever was brought up, closes the listener, and resets
        ``_started`` — so the exception propagates from a server a
        caller can fix and start again.  Before this, a stats-port
        conflict left a bound-but-unserved listener leaking and a retry
        died on "server already started".
        """
        if self._started:
            raise ParameterError("server already started")
        self._started = True
        try:
            self._listener = socket.create_server(
                (self.host, self._requested_port), backlog=self.accept_backlog
            )
            self._listener.settimeout(_POLL_S)
            if self.stats_port is not None:
                # Imported here so that only a server with a stats
                # port loads http.server (and ssl with it).
                from repro.obs.http import StatsEndpoint

                self._stats_endpoint = StatsEndpoint(
                    self.metrics,
                    host=self.host,
                    port=self.stats_port,
                    health=self._health,
                ).start()
            self._shed_thread = threading.Thread(
                target=self._shed_loop, name="spfe-shed", daemon=True
            )
            self._shed_thread.start()
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="spfe-accept", daemon=True
            )
            self._accept_thread.start()
            for index in range(self.max_sessions):
                worker = threading.Thread(
                    target=self._worker_loop, name="spfe-worker-%d" % index,
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        except Exception:
            self._abort_start()
            raise
        return self

    def _abort_start(self) -> None:
        """Unwind a partially started server so ``start`` can be retried."""
        self._drain.set()
        if self._accept_thread is not None:
            # the accept loop observes the drain flag, sheds its queue,
            # and releases the workers and shed thread on its way out
            self._accept_thread.join(timeout=5.0)
        else:
            for _ in self._workers:
                self._queue.put(None)
            try:
                self._shed_queue.put_nowait(None)
            except queue.Full:
                pass
        if self._shed_thread is not None:
            self._shed_thread.join(timeout=5.0)
        for worker in self._workers:
            worker.join(timeout=5.0)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._stats_endpoint is not None:
            self._stats_endpoint.close()
        # fresh runtime state: a corrected retry starts from scratch
        self._listener = None
        self._stats_endpoint = None
        self._accept_thread = None
        self._shed_thread = None
        self._workers = []
        self._queue = queue.Queue(maxsize=self.accept_backlog)
        self._shed_queue = queue.Queue(maxsize=max(32, self.accept_backlog * 4))
        self._drain = threading.Event()
        self._started = False

    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral bind)."""
        if self._listener is None:
            raise ParameterError("server not started")
        return self._listener.getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) pair."""
        if self._listener is None:
            raise ParameterError("server not started")
        return self._listener.getsockname()[:2]

    @property
    def stats_address(self) -> Tuple[str, int]:
        """The stats endpoint's bound (host, port); needs ``stats_port``."""
        if self._stats_endpoint is None:
            raise ParameterError("stats endpoint not enabled (pass stats_port)")
        return self._stats_endpoint.address

    @property
    def draining(self) -> bool:
        """True once drain has been initiated."""
        return self._drain.is_set()

    @property
    def stopped(self) -> bool:
        """True once all threads have exited and sockets are closed."""
        return self._stopped.is_set()

    def initiate_drain(self) -> None:
        """Begin graceful shutdown (non-blocking, signal-handler safe).

        Stops accepting, sheds queued connections with BUSY, and lets
        in-flight sessions run to completion.  Call :meth:`stop` or
        :meth:`wait` to block until the drain finishes.
        """
        self._drain.set()

    def install_signal_handlers(self) -> Callable[[], None]:
        """Wire SIGINT/SIGTERM to :meth:`initiate_drain`.

        Returns a zero-argument callable restoring the previous
        handlers.  Must run on the main thread (a Python constraint).
        """
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(
                signum, lambda _sig, _frame: self.initiate_drain()
            )
        def restore() -> None:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return restore

    def wait(self, drain_deadline_s: Optional[float] = None) -> None:
        """Block until drain is initiated, then finish the shutdown.

        The wait loop wakes periodically so signal handlers installed by
        :meth:`install_signal_handlers` get a chance to run on the main
        thread.
        """
        while not self._drain.wait(_POLL_S):
            pass
        self._finalize(drain_deadline_s)

    def stop(self, drain_deadline_s: Optional[float] = None) -> None:
        """Initiate drain and block until the server is fully stopped."""
        self.initiate_drain()
        self._finalize(drain_deadline_s)

    def __enter__(self) -> "SpfeServer":
        """Context-manager entry: start the server."""
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: drain and stop."""
        self.stop()

    def _health(self) -> Dict[str, Any]:
        """The ``/healthz`` document: status plus liveness details."""
        if self._stopped.is_set():
            status = "stopped"
        elif self._drain.is_set():
            status = "draining"
        else:
            status = "ok"
        return {
            "status": status,
            "in_flight_sessions": self._core.in_flight(),
            "workers_alive": sum(
                1 for worker in self._workers if worker.is_alive()
            ),
            "max_sessions": self.max_sessions,
        }

    def _finalize(self, drain_deadline_s: Optional[float]) -> None:
        """Join threads under the drain deadline; force-close stragglers."""
        with self._finalize_lock:
            if self._finalized:
                return
            deadline = (
                drain_deadline_s
                if drain_deadline_s is not None
                else DEFAULT_DRAIN_DEADLINE_S
            )
            # One cutoff for every thread: the accept loop hands out the
            # workers' stop markers with a blocking put, so it can be
            # waiting on the same busy workers, and a deadline of its own
            # would spend the drain deadline twice.
            cutoff = time.monotonic() + deadline
            threads = self._workers + (
                [self._accept_thread] if self._accept_thread is not None else []
            )
            for thread in threads:
                thread.join(timeout=max(0.0, cutoff - time.monotonic()))
            if any(thread.is_alive() for thread in threads):
                # Drain deadline exceeded: cut the remaining sessions'
                # sockets out from under them; their workers read EOF or
                # a transport error and exit as drops.
                with self._active_lock:
                    for transport in self._active.values():
                        transport.close()
                for thread in threads:
                    thread.join(timeout=5.0)
            if self._shed_thread is not None:
                # The accept loop enqueues the sentinel on its way out; a
                # second one covers the never-accepted edge.  It must be
                # non-blocking: if the shed thread already exited on the
                # first sentinel while a shed flood left the bounded
                # queue full, a blocking put would wedge stop() forever.
                try:
                    self._shed_queue.put_nowait(None)
                except queue.Full:
                    pass
                self._shed_thread.join(timeout=5.0)
            # Anything still queued for a courtesy BUSY never got it —
            # close the sockets instead of leaking them.
            while True:
                try:
                    leftover = self._shed_queue.get_nowait()
                except queue.Empty:
                    break
                if leftover is not None:
                    try:
                        leftover.close()
                    except OSError:
                        pass
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
            if self._stats_endpoint is not None:
                self._stats_endpoint.close()
            self._finalized = True
            self._stopped.set()

    # -- accept loop --------------------------------------------------------

    def _note(self, message: str) -> None:
        if self._log is not None:
            self._log(message + "\n")

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._drain.is_set():
            try:
                connection, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us: treat as drain
            self.stats.add("connections_accepted")
            if self._drain.is_set():
                self._shed(connection, peer, "draining")
                break
            if not self._core.admit_query_budget():
                self._shed(connection, peer, "query budget exhausted")
                continue
            try:
                self._queue.put_nowait((connection, peer))
            except queue.Full:
                self._core.release_query_budget()
                self._shed(connection, peer)
        # Drain: refuse new connections at the TCP level, shed whatever
        # was queued but never started, then release the workers and
        # finally the shed thread (after its last BUSY is enqueued).
        try:
            self._listener.close()
        except OSError:
            pass
        while True:
            try:
                connection, peer = self._queue.get_nowait()  # type: ignore[misc]
            except queue.Empty:
                break
            self._core.release_query_budget()
            self._shed(connection, peer, "draining")
        for _ in self._workers:
            self._queue.put(None)
        # Non-blocking, like _finalize's sentinel: with the shed thread
        # gone and the queue flooded, a blocking put would strand the
        # accept thread here and stop() would burn its whole deadline
        # joining it.  _finalize retries the sentinel and closes any
        # leftovers either way.
        try:
            self._shed_queue.put_nowait(None)
        except queue.Full:
            pass

    def _shed(
        self,
        connection: socket.socket,
        peer: Tuple,
        reason: str = "pool and backlog full",
    ) -> None:
        """Refuse a connection with a typed BUSY frame (best effort).

        Only counts and hands the socket to the shed thread.  The BUSY
        send used to happen inline with a 1-second timeout, which let a
        single peer that never reads stall the *accept loop* — and with
        it all admission — for up to a second per shed connection.  Now
        the accept loop never blocks on a peer: the send runs on the
        shed thread under :data:`_SHED_SEND_BUDGET_S`.
        """
        self.stats.add("sessions_shed")
        self._note("shed %s: %s" % (peer, reason))
        try:
            self._shed_queue.put_nowait(connection)
        except queue.Full:
            # Shed flood: skip the courtesy BUSY rather than block or
            # hold more sockets; the client sees a plain close.
            try:
                connection.close()
            except OSError:
                pass

    def _shed_loop(self) -> None:
        """Dedicated thread sending BUSY frames to refused connections."""
        while True:
            connection = self._shed_queue.get()
            if connection is None:
                return
            self._send_busy(connection)

    def _send_busy(self, connection: socket.socket) -> None:
        """Send one BUSY frame under the shed budget, then close.

        The close is preceded by a half-close and a bounded drain of
        whatever the peer already sent (its HELLO, typically).  Closing
        with unread bytes in the receive buffer degrades to an RST,
        which can destroy the in-flight BUSY frame before the peer
        reads it — the peer then sees a connection reset and retries on
        the (faster) crash schedule instead of the busy one.
        """
        try:
            connection.settimeout(_SHED_SEND_BUDGET_S)
            connection.sendall(codec.encode_busy(self.busy_retry_ms))
            connection.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + _SHED_SEND_BUDGET_S
            while time.monotonic() < deadline:
                if not connection.recv(DEFAULT_RECV_BYTES):
                    break
        except OSError:
            pass
        finally:
            try:
                connection.close()
            except OSError:
                pass

    # -- worker pool --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            connection, peer = item
            # admitted = handed to the protocol layer; from here exactly
            # one of served/dropped/rejected must be counted, even if
            # _serve_connection itself is broken (the catch-all below),
            # so the outcome invariant holds at drain.
            self._core.session_admitted()
            served = False
            try:
                served = self._serve_connection(connection, peer)
            # seclint: disable=SEC005 -- worker threads must survive session bugs
            except Exception as exc:
                # A bug in session handling must cost one connection,
                # never a worker: a silently shrinking pool turns the
                # server into a BUSY-shedding brick while looking
                # healthy from the outside (regression:
                # test_worker_survives_internal_error).
                self.stats.add("sessions_dropped")
                self.stats.add("sessions_errored_internal")
                self._note("dropped %s: internal error: %r" % (peer, exc))
                try:
                    connection.close()
                except OSError:
                    pass
            finally:
                if self._core.retire_session(served):
                    self.initiate_drain()

    def _serve_connection(self, connection: socket.socket, peer: Tuple) -> bool:
        """Run one session on ``connection``; True when served to completion.

        All byte and outcome accounting lives in the ``finally`` block
        and goes through :meth:`ServerAccounting.account_outcome`, which
        classifies every exit path — served, rejected, dropped, internal
        error — exactly once.  In particular a session that *finished*
        but whose final RESULT send failed is a drop, not a serve: the
        old inline classification checked ``session.finished`` first, so
        that session was logged as served while no outcome counter moved
        at all (the vanished-outcome bug).
        """
        session = ServerSession(
            self.database,
            registry=self.registry,
            policy=self.policy,
            tracer=self.tracer,
        )
        transport = SocketTransport(connection, read_timeout=self.read_timeout)
        key = id(transport)
        with self._active_lock:
            self._active[key] = transport
        self._core.connection_attached()
        started = time.monotonic()
        outcome = "detached"
        detail = ""
        served = False
        try:
            while True:
                transport.set_read_timeout(
                    self._core.budgeted_timeout(
                        started, self.read_timeout, self.connection_deadline_s
                    )
                )
                data = transport.recv(DEFAULT_RECV_BYTES)
                if not data:
                    break  # peer closed; a resumable client will reconnect
                reply = session.receive_bytes(data)
                if reply:
                    transport.send(reply)
                if session.errored or session.finished:
                    break
        except TransportError as exc:
            outcome = "dropped"
            detail = str(exc)
        # seclint: disable=SEC005 -- internal bugs must still account the session
        except Exception as exc:
            outcome = "internal"
            detail = repr(exc)
        finally:
            transport.close()
            with self._active_lock:
                self._active.pop(key, None)
            self._core.connection_detached()
            served = self._core.account_outcome(session, outcome, peer, detail)
        return served
