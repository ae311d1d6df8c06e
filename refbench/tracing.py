"""Span tracing for the per-layer (``--trace 1``) run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.install`
replaces one attribute of one *instance* (or one module function) that
the workload reaches with a wrapper that records a span around the
original call.  Nothing is wrapped in an untraced run.  A span is
``(op, span, parent, name, start, end)``; spans of one operation share
``op``.  They are kept in memory and written out when the run ends.

A layer's self time is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        # One entry per finished span, column-wise to keep millions of
        # spans small: op id, span id, parent span id (-1 for a root),
        # index into ``names``, start and end (perf_counter seconds).
        self.ops = array("q")
        self.ids = array("q")
        self.parents = array("q")
        self.name_ids = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.names: List[str] = []
        self.stack: List[int] = []
        self.next_id = 0
        self.op = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self._installed: List[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _record(self, span: int, parent: int, name_id: int, start: float, end: float) -> None:
        self.ops.append(self.op)
        self.ids.append(span)
        self.parents.append(parent)
        self.name_ids.append(name_id)
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name`` around every call.

        ``on_result(result)`` (optional) runs after the call, outside the
        span, to count work the call reports (records moved, ...).
        """
        stack, clock, record = self.stack, time.perf_counter, self._record
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            span = self.next_id
            self.next_id = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(span, parent, name_id, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, owner, attribute: str, name: str, on_result=None, root=False) -> None:
        """Wrap ``owner.attribute`` (an instance or module) in place.

        A ``root`` span starts a new operation.
        """
        original = getattr(owner, attribute)
        shadowed = attribute in vars(owner)
        traced = self.wrap(name, original, on_result)
        if root:
            inner = traced

            def traced(*args, **kwargs):
                self.op += 1
                return inner(*args, **kwargs)

        self._installed.append((owner, attribute, shadowed, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        """Remove every wrapper :meth:`install` put in place."""
        for owner, attribute, shadowed, original in reversed(self._installed):
            if shadowed:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._installed.clear()

    def begin(self, name: str, root: bool = False) -> tuple:
        """Open a span by hand (for spans no single call delimits)."""
        if root:
            self.op += 1
        span = self.next_id
        self.next_id = span + 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(span)
        return (span, parent, self._name_id(name), time.perf_counter())

    def end(self, opened: tuple) -> None:
        end = time.perf_counter()
        span, parent, name_id, start = opened
        self.stack.pop()
        self._record(span, parent, name_id, start, end)

    def count(self, name: str):
        """An ``on_result`` callback adding each result to ``counts[name]``."""

        def add(result) -> None:
            self.counts[name] += result

        return add

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``."""
        child_time: Dict[int, float] = defaultdict(float)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for span, name_id, start, end in zip(self.ids, self.name_ids, self.starts, self.ends):
            calls[name_id] += 1
            total[name_id] += end - start
            own[name_id] += end - start - child_time.get(span, 0.0)
        return {
            name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names) if calls[i]
        }

    def install_transaction(self, owner) -> None:
        """Trace ``owner.transaction()`` blocks as whole operations.

        The block is a root span ``durable.txn``; its exit, where the
        group commit runs, is the child span ``persistent.commit``.
        """
        tracer = self
        factory = owner.transaction

        class Block:
            def __init__(self) -> None:
                self.inner = factory()

            def __enter__(self):
                self.opened = tracer.begin("durable.txn", root=True)
                return self.inner.__enter__()

            def __exit__(self, *exc):
                commit = tracer.begin("persistent.commit")
                try:
                    return self.inner.__exit__(*exc)
                finally:
                    tracer.end(commit)
                    tracer.end(self.opened)

        self._installed.append((owner, "transaction", "transaction" in vars(owner), factory))
        owner.transaction = Block

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        names = self.names
        with open(path, "w") as handle:
            handle.write("op\tspan\tparent\tname\tstart\tend\n")
            for op, span, parent, name_id, start, end in zip(
                self.ops, self.ids, self.parents, self.name_ids, self.starts, self.ends
            ):
                handle.write(f"{op}\t{span}\t{parent}\t{names[name_id]}\t{start:.9f}\t{end:.9f}\n")
