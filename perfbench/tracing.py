"""Outside-in span recording for the traced benchmark run.

The tracer wraps public entry points of each layer from outside the
program (module attributes, class methods or instance attributes) and
records one span per call: name, start, end, parent span, workload and
repetition. Spans are kept in memory; ``bench.py`` writes them out once
at the end. Nothing inside ``src/`` is modified: every patch made on a module
or class is undone by :meth:`Tracer.restore`.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Span record: [name, start, end, parent index (-1 for a root), workload, rep].
Span = list


class Tracer:
    """Records nested spans around wrapped calls (single-threaded)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rep = 0
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        #: Every span name a wrapper was installed for, in install order.
        self.installed: List[str] = []

    def begin(self, name: str) -> Span:
        """Open a span called ``name`` under the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.workload, self.rep]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: Span) -> None:
        """Close the innermost open span ``rec``."""
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the body of a ``with`` statement as a span called ``name``."""
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(rec)

        if name not in self.installed:
            self.installed.append(name)
        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module or class) by a traced wrapper."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        """Undo every module and class patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def has_ancestor(spans: Sequence[Span], index: int, name: str) -> bool:
    """Whether some span above span ``index`` is called ``name``."""
    index = spans[index][3]
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total time and self time."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for rec, own in zip(spans, selfs):
        row = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += rec[2] - rec[1]
        row["self_s"] += own
    return out
