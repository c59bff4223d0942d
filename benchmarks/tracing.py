"""In-memory span tracer that wraps the package's module attributes.

The tracer replaces attributes such as ``leodoppler.montecarlo.ks_distance``
with a wrapper that records one span per call: its name, start, end, parent
span and op id. Callers look these names up at call time, so wrapping the
attribute a caller uses captures the call without changing the package.
Spans are kept in compact arrays and written out once, when the run ends.
A name that no longer exists is recorded as absent instead of failing.
"""
from __future__ import annotations

import os
import threading
import time
from array import array

import numpy as np


class Tracer:
    """Records spans and counters for wrapped callables.

    Each wrapped name gets an optional ``count`` callback ``(args, kwargs,
    result) -> dict`` whose values are added to the named counters and to
    the span's own ``amount`` (the value of its ``"amount"`` key).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.amount = array("d")
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.op_id = -1
        self.paused = False
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, name: str, count=None, static: bool = False) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``static`` re-installs the wrapper as a staticmethod, for classmethods
        looked up on a class. A missing owner or attribute is recorded in
        ``absent``; ``names`` lists the names wrapped at least once.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            stack = tracer._stack()
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.amount.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    if key == "amount":
                        tracer.amount[idx] = value
                    else:
                        tracer.counters[key] = tracer.counters.get(key, 0.0) + value
            return result

        wrapper.__wrapped__ = original
        self._restore.append((owner, attr, owner.__dict__[attr] if static else original))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def unwrap(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """Span columns as arrays, plus each span's self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        # Children of one span run one after another in the parent's thread,
        # so the time they cover is the sum of their durations.
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64),
            "amount": np.frombuffer(self.amount, dtype=float),
            "duration": duration,
            "self": duration - child_time,
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name call count, total time, self time and amount."""
        cols = self.spans()
        out = {}
        for nid, name in enumerate(self.names):
            mask = cols["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(cols["duration"][mask].sum()),
                "self_s": float(cols["self"][mask].sum()),
                "amount": float(cols["amount"][mask].sum()),
            }
        return out

    def children(self, parent_name: str, child_name: str) -> tuple[np.ndarray, np.ndarray]:
        """Direct ``child_name`` children of ``parent_name`` spans.

        Returns the child spans' amounts and the number of such children of
        each ``parent_name`` span.
        """
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        cols = self.spans()
        is_parent = cols["name_id"] == self._name_ids[parent_name]
        parent = cols["parent"]
        kids = (cols["name_id"] == self._name_ids[child_name]) & (parent >= 0)
        kids[kids] = is_parent[parent[kids]]
        counts = np.bincount(parent[kids], minlength=parent.size)
        return cols["amount"][kids], counts[is_parent]

    def write(self, path: str) -> None:
        """Write every span to a compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **cols)
