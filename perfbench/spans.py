"""In-memory span recording around public calls, for the traced runs.

A :class:`SpanRecorder` replaces an attribute (a module function or a
class method) with a wrapper that records one span per call: name,
start, end, thread, and the span that was open on the same thread when
the call began (its parent).  Spans stay in memory and are written out
once, when the traced process ends.  Nothing here is imported by the
program under test; the benchmark installs the wrappers from outside.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: one dumped span: [name, start_s, end_s, thread_ident, parent_index or -1]
SpanRow = List[Any]


class SpanRecorder:
    """Wraps attributes so every call leaves a span in :attr:`spans`."""

    def __init__(self) -> None:
        #: open and closed spans as ``[name, start, end, thread, parent]``;
        #: ``parent`` is the parent's own record (or None) until :meth:`rows`
        self.spans: List[list] = []
        self._local = threading.local()
        self._installed: List[Tuple[object, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``before``, if given, is called with the call's arguments before
        the span opens (outside the measured interval).
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            stack = stack_of()
            record = [name, clock(), 0.0, ident(), stack[-1] if stack else None]
            spans.append(record)
            stack.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def rows(self) -> List[SpanRow]:
        """Closed spans as plain lists, parents turned into indices."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [
            [name, start, end, thread, -1 if parent is None else index[id(parent)]]
            for name, start, end, thread, parent in self.spans
        ]


class SpanSummary:
    """Totals over dumped span rows: time, calls, and time in children."""

    def __init__(self, rows: Iterable[SpanRow]) -> None:
        rows = list(rows)
        self.rows = rows
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: per parent name, seconds covered by its direct child spans
        self.child_seconds: Dict[str, float] = defaultdict(float)
        for name, start, end, _thread, parent in rows:
            duration = end - start
            self.seconds[name] += duration
            self.calls[name] += 1
            if parent >= 0:
                self.child_seconds[rows[parent][0]] += duration

    def self_seconds(self, name: str) -> float:
        """Time in ``name`` spans minus the time their children cover."""
        return self.seconds[name] - self.child_seconds[name]

    def largest_child(self, name: str) -> Optional[str]:
        """The child span name with the most time under ``name`` spans."""
        totals: Dict[str, float] = defaultdict(float)
        for child, start, end, _thread, parent in self.rows:
            if parent >= 0 and self.rows[parent][0] == name:
                totals[child] += end - start
        return max(totals, key=totals.__getitem__) if totals else None

    def waits(self, sent: str, received: str) -> float:
        """Sum over ``received`` spans of the gap since the thread's last ``sent`` end.

        Used for the client's wait: last byte handed to the socket until
        the RESULT is being decrypted.
        """
        total = 0.0
        last_sent: Dict[int, float] = {}
        for name, start, end, thread, _parent in sorted(self.rows, key=lambda r: r[1]):
            if name == sent:
                last_sent[thread] = end
            elif name == received and thread in last_sent:
                total += start - last_sent.pop(thread)
        return total
