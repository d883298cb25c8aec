"""Analyzer configuration: the secret registry and lock-guard declarations.

The defaults are tuned to *this* codebase — the names below are the
values the paper's privacy argument actually depends on:

* ``p``/``q`` — the Paillier/RSA prime factors (the private key).
* ``_key``/``_value`` — the HMAC-DRBG internal state of
  :class:`~repro.crypto.rng.DeterministicRandom`; leaking either makes
  every past and future draw predictable.
* ``selections`` — the client's 0/1 index vector, the very thing the
  selected-sum protocol hides from the server.
* ``weights`` — the client's private weight vector.
* ``r``/``r_to_n`` — encryption obfuscators; an obfuscator plus its
  ciphertext reveals the plaintext.
* ``seed`` — DRBG seed material.

Tests build custom configs (``AnalysisConfig(secret_names=...)``) so
rules stay unit-testable against synthetic fixtures without touching
the shipped defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = ["AnalysisConfig", "LockGuard", "default_config"]


@dataclass(frozen=True)
class LockGuard:
    """Declares that writes to ``guarded_attrs`` of ``class_name``
    require holding ``with self.<lock_attr>:`` in the same function.

    ``__init__`` is exempt by default (construction happens-before any
    sharing), as is any method whose name ends in ``_locked`` — the
    codebase convention for "caller holds the lock"
    (:meth:`repro.crypto.paillier.RandomnessPool._obfuscator_locked`).
    """

    class_name: str
    lock_attr: str
    guarded_attrs: FrozenSet[str]
    exempt_methods: FrozenSet[str] = frozenset({"__init__"})


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything the rules need to know about the codebase under test."""

    #: names whose values are secret wherever they appear (SEC001)
    secret_names: FrozenSet[str] = frozenset(
        {"p", "q", "_key", "_value", "selections", "weights", "r", "r_to_n", "seed"}
    )
    #: bytes-valued secrets that must be compared constant-time (SEC003)
    secret_bytes_names: FrozenSet[str] = frozenset(
        {"_key", "_value", "seed", "digest", "mac", "tag"}
    )
    #: calls that launder a secret into a non-secret (length, type, ...)
    sanitizer_calls: FrozenSet[str] = frozenset({"len", "type", "bool", "id"})
    #: explicit exception constructor names (suffix match adds the rest)
    exception_names: FrozenSet[str] = frozenset(
        {"PolicyViolation", "ServerBusy", "TransportTimeout", "RetryExhausted"}
    )
    #: callables named ``*<suffix>`` are treated as exception constructors
    exception_name_suffixes: Tuple[str, ...] = ("Error", "Exception", "Warning")
    #: functions allowed to call ``to_bytes`` on secret material
    serializer_functions: FrozenSet[str] = frozenset(
        {"to_bytes", "randbytes", "_seed_to_bytes", "encode_int", "ciphertext_to_bytes"}
    )
    #: modules (path segment tuples) allowed to serialize secrets freely
    serializer_modules: Tuple[Tuple[str, ...], ...] = (
        ("repro", "crypto", "serialization.py"),
    )
    #: path segments under which ``random`` is forbidden (SEC002)
    rng_restricted_parts: Tuple[Tuple[str, ...], ...] = (
        ("repro", "crypto"),
        ("repro", "spfe"),
    )
    #: path segments where broad swallowing excepts are forbidden (SEC005)
    except_restricted_parts: Tuple[Tuple[str, ...], ...] = (
        ("repro", "crypto"),
        ("repro", "net"),
    )
    #: method names that mutate their receiver (SEC004 treats
    #: ``self.<guarded>.append(...)`` as a write)
    mutating_methods: FrozenSet[str] = frozenset(
        {
            "append",
            "extend",
            "insert",
            "remove",
            "pop",
            "popitem",
            "clear",
            "update",
            "setdefault",
            "add",
            "discard",
            "move_to_end",
        }
    )
    #: the lock-guarded shared state added by the concurrent runtime
    lock_guards: Tuple[LockGuard, ...] = (
        LockGuard(
            "SessionRegistry",
            "_lock",
            frozenset({"_states", "resident_bytes", "evictions"}),
        ),
        # the observability instruments every subsystem now shares
        LockGuard("Counter", "_lock", frozenset({"_value"})),
        LockGuard("Gauge", "_lock", frozenset({"_value"})),
        LockGuard(
            "Histogram",
            "_lock",
            frozenset({"_bucket_counts", "_sum_value", "_count"}),
        ),
        LockGuard("MetricsRegistry", "_lock", frozenset({"_metrics", "_kinds"})),
        LockGuard(
            "Tracer", "_lock", frozenset({"_spans", "_totals", "_counts"})
        ),
        LockGuard(
            "RandomnessPool",
            "_lock",
            frozenset({"_pool", "_table", "generated", "misses"}),
        ),
        LockGuard(
            "CryptoEngine",
            "_lock",
            frozenset(
                {
                    "parallel_batches",
                    "serial_batches",
                    "_fixed_base_h",
                    "_closed",
                }
            ),
        ),
        # the v2 engine's warm-pool lifecycle and per-process key cache
        LockGuard(
            "WarmWorkerPool",
            "_lock",
            frozenset({"_executor", "_broken", "_closed", "_primed_key"}),
        ),
        LockGuard("KeyContextCache", "_lock", frozenset({"_contexts"})),
        LockGuard("SpfeServer", "_active_lock", frozenset({"_active"})),
        # the server's admission budget and concurrency high-water mark
        LockGuard("ServerAccounting", "_budget_lock", frozenset({"_in_flight"})),
        LockGuard("ServerAccounting", "_peak_lock", frozenset({"_active_peak"})),
        # the durable-state tier: one SQLite connection behind one lock,
        # and the supervisor's child handle + restart accounting
        LockGuard("StateStore", "_lock", frozenset({"_conn"})),
        LockGuard(
            "ServerSupervisor",
            "_lock",
            frozenset(
                {"_child", "_monitor", "_stopping", "_gave_up", "_restarts"}
            ),
        ),
    )

    def is_exception_name(self, name: str) -> bool:
        """True when ``name`` looks like an exception constructor."""
        return name in self.exception_names or name.endswith(
            self.exception_name_suffixes
        )


def default_config() -> AnalysisConfig:
    """The shipped configuration, tuned to this repository."""
    return AnalysisConfig()
