"""SEC004: writes to lock-guarded shared state outside its lock.

PRs 2–3 made the server runtime concurrent, and the correctness of the
shared pieces — :class:`~repro.spfe.session.SessionRegistry`'s LRU map
and byte accounting, :class:`~repro.net.server.ServerStats` counters,
:class:`~repro.crypto.paillier.RandomnessPool`'s pool and RNG,
:class:`~repro.store.state.StateStore`'s connection —
rests on every *write* happening under the object's lock.  A single
unlocked ``self._states.pop(...)`` is a data race that no test reliably
catches; this rule makes the discipline mechanical.

The guarded classes and attributes are declared in
:class:`~repro.analysis.config.AnalysisConfig.lock_guards`.  Within a
declared class, every method is scanned for

* assignments/augmented assignments to ``self.<guarded>`` (including
  subscript writes ``self._counts[k] += 1``), and
* mutating method calls ``self.<guarded>.append/pop/update/...``

that are not lexically inside ``with self.<lock>:``.  Exemptions:
``__init__`` (construction happens-before sharing) and methods whose
name ends in ``_locked`` — the codebase convention for "caller already
holds the lock".
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import FileContext, self_attribute
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

__all__ = ["LockDisciplineRule"]


@register
class LockDisciplineRule(Rule):
    """SEC004: a declared lock-guarded attribute is written outside
    ``with self.<lock>:``."""

    rule_id = "SEC004"
    name = "lock-discipline"
    rationale = (
        "Shared mutable runtime state (session registry, server stats, "
        "randomness pools, engine pool state) is only consistent under "
        "its declared lock; unlocked writes are silent data races."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Find writes to lock-guarded attributes outside the lock."""
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guards = [
                g for g in ctx.config.lock_guards if g.class_name == node.name
            ]
            if not guards:
                continue
            attr_to_lock: Dict[str, str] = {}
            exempt: Set[str] = set()
            lock_names: Set[str] = set()
            for guard in guards:
                for attr in guard.guarded_attrs:
                    attr_to_lock[attr] = guard.lock_attr
                exempt.update(guard.exempt_methods)
                lock_names.add(guard.lock_attr)
            for method in node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name in exempt or method.name.endswith("_locked"):
                    continue
                self._scan_block(
                    ctx, method.body, frozenset(), attr_to_lock,
                    lock_names, method.name, findings,
                )
        return findings

    # -- statement walker -------------------------------------------------

    def _scan_block(
        self,
        ctx: FileContext,
        stmts: Sequence[ast.stmt],
        held: "frozenset[str]",
        attr_to_lock: Dict[str, str],
        lock_names: Set[str],
        method: str,
        findings: List[Finding],
    ) -> None:
        for stmt in stmts:
            self._scan_stmt(
                ctx, stmt, held, attr_to_lock, lock_names, method, findings
            )

    def _scan_stmt(
        self,
        ctx: FileContext,
        stmt: ast.stmt,
        held: "frozenset[str]",
        attr_to_lock: Dict[str, str],
        lock_names: Set[str],
        method: str,
        findings: List[Finding],
    ) -> None:
        scan_block = self._scan_block
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = {
                name
                for item in stmt.items
                for name in [self_attribute(item.context_expr)]
                if name is not None and name in lock_names
            }
            scan_block(
                ctx, stmt.body, held | acquired, attr_to_lock,
                lock_names, method, findings,
            )
        elif isinstance(stmt, (ast.If, ast.While)):
            self._check_expr(ctx, stmt.test, held, attr_to_lock, method, findings)
            scan_block(ctx, stmt.body, held, attr_to_lock, lock_names, method, findings)
            scan_block(ctx, stmt.orelse, held, attr_to_lock, lock_names, method, findings)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(ctx, stmt.iter, held, attr_to_lock, method, findings)
            self._check_write_target(
                ctx, stmt.target, stmt, held, attr_to_lock, method, findings
            )
            scan_block(ctx, stmt.body, held, attr_to_lock, lock_names, method, findings)
            scan_block(ctx, stmt.orelse, held, attr_to_lock, lock_names, method, findings)
        elif isinstance(stmt, ast.Try):
            scan_block(ctx, stmt.body, held, attr_to_lock, lock_names, method, findings)
            for handler in stmt.handlers:
                scan_block(
                    ctx, handler.body, held, attr_to_lock,
                    lock_names, method, findings,
                )
            scan_block(ctx, stmt.orelse, held, attr_to_lock, lock_names, method, findings)
            scan_block(ctx, stmt.finalbody, held, attr_to_lock, lock_names, method, findings)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # nested scopes escape lexical lock analysis; skip conservatively
            return
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._check_write_target(
                    ctx, target, stmt, held, attr_to_lock, method, findings
                )
            value = stmt.value
            if value is not None:
                self._check_expr(ctx, value, held, attr_to_lock, method, findings)
        else:
            self._check_expr(ctx, stmt, held, attr_to_lock, method, findings)

    # -- write detection --------------------------------------------------

    @staticmethod
    def _written_attr(target: ast.AST) -> Optional[Tuple[str, ast.AST]]:
        """``(attr, node)`` when ``target`` writes ``self.<attr>`` or
        ``self.<attr>[...]``."""
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        attr = self_attribute(node)
        if attr is not None:
            return attr, target
        return None

    def _check_write_target(
        self,
        ctx: FileContext,
        target: ast.AST,
        site: ast.stmt,
        held: "frozenset[str]",
        attr_to_lock: Dict[str, str],
        method: str,
        findings: List[Finding],
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_write_target(
                    ctx, element, site, held, attr_to_lock, method, findings
                )
            return
        written = self._written_attr(target)
        if written is None:
            return
        attr, _ = written
        lock = attr_to_lock.get(attr)
        if lock is not None and lock not in held:
            findings.append(
                self.finding(
                    ctx, site.lineno, site.col_offset,
                    "write to lock-guarded self.%s outside 'with "
                    "self.%s:' in %s()" % (attr, lock, method),
                )
            )

    def _check_expr(
        self,
        ctx: FileContext,
        node: ast.AST,
        held: "frozenset[str]",
        attr_to_lock: Dict[str, str],
        method: str,
        findings: List[Finding],
    ) -> None:
        """Flag mutating method calls on guarded attrs inside ``node``."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ctx.config.mutating_methods:
                continue
            receiver = func.value
            if isinstance(receiver, ast.Subscript):
                receiver = receiver.value
            attr = self_attribute(receiver)
            if attr is None:
                continue
            lock = attr_to_lock.get(attr)
            if lock is not None and lock not in held:
                findings.append(
                    self.finding(
                        ctx, sub.lineno, sub.col_offset,
                        "mutating call self.%s.%s() outside 'with "
                        "self.%s:' in %s()" % (attr, func.attr, lock, method),
                    )
                )
