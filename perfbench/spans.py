"""In-memory spans recorded by the benchmark around calls into the program.

A span is ``(name, start_ns, end_ns, parent)``; ``parent`` is the index
of the enclosing span or ``None``.  Spans stay in memory during a run
and are written out once, at the end (:meth:`Spans.dump`).  A layer's
self time is its span's duration minus the part covered by its child
spans (:meth:`Spans.self_ms`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Spans:
    def __init__(self) -> None:
        #: recording switch: a disabled recorder runs the wrapped calls
        #: and records nothing (the untraced passes of a traced run)
        self.enabled = True
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        idx = len(self.records)
        parent: Optional[int] = self._stack[-1] if self._stack else None
        self.records.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[idx][2] = time.perf_counter_ns()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as span ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def self_ms(self, start: int = 0) -> Dict[str, float]:
        """Self time per span name over ``records[start:]``, in ms."""
        totals: Dict[str, float] = {}
        recs = self.records
        for i in range(start, len(recs)):
            name, t0, t1, parent = recs[i]
            dur = (t1 - t0) / 1e6
            totals[name] = totals.get(name, 0.0) + dur
            if parent is not None and parent >= start:
                pname = recs[parent][0]
                totals[pname] = totals.get(pname, 0.0) - dur
        return totals

    def dump(self, path: str, **labels) -> None:
        """Write one JSON line per span: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.records):
                fh.write(json.dumps(dict(labels, id=i, name=name, start_ns=t0,
                                         end_ns=t1, parent=parent)) + "\n")
