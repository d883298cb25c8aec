"""SEC005: broad exception swallowing in the crypto and network core.

A ``try: ... except Exception: pass`` in :mod:`repro.crypto` or
:mod:`repro.net` converts an invariant violation into silence.  In this
codebase that is doubly dangerous: a swallowed
:class:`~repro.exceptions.ValidationError` means a trust-boundary check
ran and was ignored, and a swallowed crypto failure can turn a refused
decryption into an attacker-observable behavioural difference.  Broad
handlers must either re-raise (possibly as one of the typed
:mod:`repro.exceptions` errors, which the wire layer converts into
typed ERROR frames) or carry an inline suppression with a written
justification — the server's two sanctioned swallow-alls (the worker
loop and its session accounting) do exactly that.

Narrow handlers (``except OSError: pass`` around a best-effort socket
close) are fine and not this rule's business.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

__all__ = ["ExceptionHygieneRule"]

_BROAD = ("Exception", "BaseException")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    if isinstance(kind, ast.Name) and kind.id in _BROAD:
        return True
    if isinstance(kind, ast.Tuple):
        return any(
            isinstance(element, ast.Name) and element.id in _BROAD
            for element in kind.elts
        )
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


@register
class ExceptionHygieneRule(Rule):
    """SEC005: ``except``/``except Exception`` that swallows without
    re-raising in repro.crypto / repro.net."""

    rule_id = "SEC005"
    name = "exception-hygiene"
    rationale = (
        "Broad handlers that swallow hide trust-boundary failures and "
        "crypto errors; they must re-raise, convert to a typed "
        "repro.exceptions error, or justify themselves inline."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Find broad handlers that swallow without re-raising."""
        if not ctx.in_parts(ctx.config.except_restricted_parts):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if _is_broad(handler) and not _reraises(handler):
                    what = (
                        "bare except"
                        if handler.type is None
                        else "broad except"
                    )
                    findings.append(
                        self.finding(
                            ctx, handler.lineno, handler.col_offset,
                            "%s swallows without re-raise or typed-error "
                            "conversion" % what,
                        )
                    )
        return findings
