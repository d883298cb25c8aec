"""``seclint`` — static secret-hygiene and lock-discipline analysis.

The privacy guarantee of the selected-sum protocol rests on invariants
the type system cannot see: the client's 0/1 index vector and the
Paillier factors ``p``/``q`` must never reach exception text, reprs, or
the wire; all randomness in :mod:`repro.crypto` and :mod:`repro.spfe`
must come from :class:`~repro.crypto.rng.SecureRandom` or
:class:`~repro.crypto.rng.DeterministicRandom`; and the shared mutable
state of the concurrent runtime (:class:`~repro.spfe.session.SessionRegistry`,
:class:`~repro.net.server.ServerStats`,
:class:`~repro.crypto.paillier.RandomnessPool`) must only be touched under
its lock.  This package checks those invariants mechanically, over the
:mod:`ast` of every source file, on every PR.

Architecture (see ``docs/static-analysis.md`` for the rule catalogue):

* :mod:`repro.analysis.findings` — the :class:`Finding` record and its
  stable ``file:line:col: RULE message`` rendering.
* :mod:`repro.analysis.config` — :class:`AnalysisConfig`, the secret
  registry and lock-guard declarations tuned to this codebase.
* :mod:`repro.analysis.registry` — the rule registry; rules register
  themselves with :func:`register` and are discovered by id.
* :mod:`repro.analysis.rules` — the shipped rules SEC001–SEC005.
* :mod:`repro.analysis.suppressions` — ``# seclint: disable=SEC0xx --
  justification`` inline suppressions (justification required).
* :mod:`repro.analysis.baseline` — the committed baseline file of
  grandfathered findings.
* :mod:`repro.analysis.engine` — file walking, rule execution,
  suppression and baseline filtering, deterministic ordering.
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` (exits
  non-zero on any new finding; CI runs it as a hard gate).
"""

from repro.analysis.baseline import fingerprint, load_baseline, write_baseline
from repro.analysis.cli import main
from repro.analysis.config import AnalysisConfig, LockGuard
from repro.analysis.engine import AnalysisReport, analyze_paths
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, register, rule_ids

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "Finding",
    "LockGuard",
    "Rule",
    "all_rules",
    "analyze_paths",
    "fingerprint",
    "load_baseline",
    "main",
    "register",
    "rule_ids",
    "write_baseline",
]
