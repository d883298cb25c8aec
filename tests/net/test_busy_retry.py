"""BUSY-shed clients back off on a dedicated (slower) retry schedule.

A BUSY answer is not a broken connection: the server is healthy and
saturated, so re-entering on the crash-retry schedule just re-joins the
stampede.  `RetryPolicy.busy_delay_s` backs off from a larger base and
never sleeps less than the server's ``retry_after_ms`` hint; the
regression half of this module drives a real ``max_queries``-saturated
:class:`~repro.net.server.SpfeServer` and asserts the shed
client re-enters on that schedule and still completes.
"""

import socket
import time

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.datastore.workload import WorkloadGenerator
from repro.net.server import SpfeServer
from repro.net.transport import RetryPolicy, SocketTransport
from repro.spfe.session import ClientSession, run_resilient
from repro.obs.registry import MetricsRegistry

KEY_BITS = 128
N = 12
READ_TIMEOUT = 5.0


@pytest.fixture(scope="module")
def workload():
    generator = WorkloadGenerator("busy-retry")
    database = generator.database(N, value_bits=16)
    selection = generator.random_selection(N, 5)
    return database, selection


class TestBusySchedule:
    def test_busy_schedule_is_separate_and_slower(self):
        policy = RetryPolicy(
            base_delay_s=0.05, busy_base_delay_s=0.4, jitter=0.0
        )
        rng = DeterministicRandom("busy")
        assert policy.delay_s(1, rng) == pytest.approx(0.05)
        assert policy.busy_delay_s(1, rng) == pytest.approx(0.4)
        assert RetryPolicy().busy_base_delay_s > RetryPolicy().base_delay_s

    def test_busy_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            busy_base_delay_s=0.2,
            busy_multiplier=2.0,
            busy_max_delay_s=0.5,
            jitter=0.0,
        )
        rng = DeterministicRandom("busy")
        assert policy.busy_delay_s(1, rng) == pytest.approx(0.2)
        assert policy.busy_delay_s(2, rng) == pytest.approx(0.4)
        assert policy.busy_delay_s(3, rng) == pytest.approx(0.5)  # capped
        with pytest.raises(ValueError):
            policy.busy_delay_s(0, rng)

    def test_server_hint_floors_the_delay(self):
        policy = RetryPolicy(busy_base_delay_s=0.01, jitter=0.0)
        rng = DeterministicRandom("busy")
        # the server asked for 250 ms; the client never undercuts it
        assert policy.busy_delay_s(1, rng, hint_ms=250) == pytest.approx(0.25)
        # a small hint leaves the schedule in charge
        assert policy.busy_delay_s(3, rng, hint_ms=1) == pytest.approx(0.04)

    def test_jitter_stretches_but_respects_the_floor(self):
        policy = RetryPolicy(busy_base_delay_s=0.1, jitter=1.0)
        rng = DeterministicRandom("busy-jitter")
        for retry_index in range(1, 6):
            delay = policy.busy_delay_s(retry_index, rng, hint_ms=90)
            assert delay >= 0.09

    def test_invalid_busy_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(busy_base_delay_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(busy_multiplier=0.5)


class TestBusyRegression:
    def test_shed_client_retries_on_busy_schedule_and_completes(
        self, workload
    ):
        """One budget slot, held by a stalled connection: the second
        client is shed with BUSY, sleeps the busy schedule (floored at
        the server's hint), and wins the freed slot on retry."""
        database, selection = workload
        metrics = MetricsRegistry()
        server = SpfeServer(
            database,
            max_sessions=2,
            max_queries=1,
            busy_retry_ms=40,
            read_timeout=2.0,
        ).start()
        holder = None
        try:
            # Occupy the single budget slot with a connection that
            # says HELLO and then stalls.
            holder = socket.create_connection(("127.0.0.1", server.port))
            probe = ClientSession(
                selection,
                key_bits=KEY_BITS,
                chunk_size=4,
                rng=DeterministicRandom("busy-holder"),
            )
            holder.sendall(next(iter(probe.initial_bytes())))
            deadline = time.monotonic() + READ_TIMEOUT
            while time.monotonic() < deadline:
                if server.stats.get("connections_accepted") >= 1:
                    break
                time.sleep(0.02)
            time.sleep(0.15)  # let the worker admit the holder

            slept = []

            def sleep_and_free(delay):
                slept.append(delay)
                # the stalled client gives up: its slot is released as
                # a drop, *not* consumed from the query budget
                holder.close()
                deadline = time.monotonic() + READ_TIMEOUT
                while time.monotonic() < deadline:
                    if server.stats.get("sessions_dropped") >= 1:
                        break
                    time.sleep(0.02)

            client = ClientSession(
                selection,
                key_bits=KEY_BITS,
                chunk_size=4,
                rng=DeterministicRandom("busy-client"),
            )
            policy = RetryPolicy(
                max_attempts=6,
                base_delay_s=0.01,
                busy_base_delay_s=0.02,
                jitter=0.0,
            )
            value = run_resilient(
                client,
                lambda: SocketTransport.connect(
                    "127.0.0.1",
                    server.port,
                    connect_timeout=READ_TIMEOUT,
                    read_timeout=READ_TIMEOUT,
                ),
                policy=policy,
                sleep=sleep_and_free,
                metrics=metrics,
            )
            assert value == database.select_sum(selection)
            # the first attempt was shed: the recorded sleep is the busy
            # schedule floored at the server's 40 ms hint, not the 20 ms
            # busy base and not the 10 ms crash base
            assert slept
            assert slept[0] == pytest.approx(0.04)
            counters = {
                snap.name: snap.value
                for snap in metrics.collect()
                if snap.kind == "counter"
            }
            assert counters["repro_retry_busy_total"] >= 1
            assert server.stats.get("sessions_shed") >= 1
        finally:
            if holder is not None:
                try:
                    holder.close()
                except OSError:
                    pass
            server.stop(drain_deadline_s=5.0)
