"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, trace id).  Spans are recorded by
wrapping a layer's public function at the name its caller looks up (a
class attribute or a module global), so the program's source is never
touched.  Timestamps are integer nanoseconds from
``time.perf_counter_ns``; a span's self time is its duration minus the
durations of its direct children, which in one thread nest strictly
inside it, so self time is exact and never negative.

Spans are kept in flat ``array`` columns (about 30 bytes a span) and
written out once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path


class Tracer:
    """Records spans for the wrappers :meth:`wrap` installs."""

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._ids: "dict[str, int]" = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trace = array("i")
        self.trace_id = 0
        self._stack: "list[int]" = []
        self._undo: "list[tuple[object, str, object]]" = []

    # -- recording -------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trace.append(self.trace_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def traced(self, fn, name: str, trace_of=None, on_result=None):
        """A recording wrapper around ``fn``.

        ``trace_of(args, kwargs)`` may return the trace id the call belongs
        to (restored afterwards); ``on_result(result)`` sees each return
        value, for counters measured where the work happens.
        """
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = self.trace_id
            if trace_of is not None:
                tid = trace_of(args, kwargs)
                if tid is not None:
                    self.trace_id = tid
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
                self.trace_id = saved
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unwrap`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        setattr(owner, attr, value)
        self._undo.append((owner, attr, raw))

    def wrap(self, owner, attr: str, name: str, trace_of=None, on_result=None):
        """Record every call of ``owner.attr`` (a function, method,
        classmethod or staticmethod) as a ``name`` span."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        kind = None
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
        fn = raw.__func__ if kind is not None else raw
        wrapper = self.traced(fn, name, trace_of, on_result)
        self.patch(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def unwrap(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reading ---------------------------------------------------------
    def self_times_ns(self) -> "list[int]":
        """Per-span self time: duration minus direct children's durations."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [
            self.end[i] - self.start[i] - child[i]
            for i in range(len(self.start))
        ]

    def summary(self) -> "dict[str, dict[str, float]]":
        """Name -> ``calls``, ``self_s`` and ``total_s`` (inclusive)."""
        selfs = self.self_times_ns()
        out: "dict[str, dict[str, float]]" = {}
        for i, nid in enumerate(self.name):
            row = out.setdefault(
                self.names[nid], {"calls": 0, "self_ns": 0, "total_ns": 0}
            )
            row["calls"] += 1
            row["self_ns"] += selfs[i]
            if self.parent[i] < 0 or self.name[self.parent[i]] != nid:
                # a recursive call is already inside its caller's total
                row["total_ns"] += self.end[i] - self.start[i]
        return {
            name: {
                "calls": row["calls"],
                "self_s": row["self_ns"] / 1e9,
                "total_s": row["total_ns"] / 1e9,
            }
            for name, row in out.items()
        }

    def mean_ms(self, name: str, traces: "range") -> float:
        """Mean duration (ms) of ``name`` spans whose trace id is in
        ``traces``; 0 when there are none."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        total = n = 0
        for i, sid in enumerate(self.name):
            if sid == nid and self.trace[i] in traces:
                total += self.end[i] - self.start[i]
                n += 1
        return total / n / 1e6 if n else 0.0

    def dump(self, path: "str | Path") -> None:
        """Write every span, one JSON line each, in one pass."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name[i]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.trace[i]}]\n"
                )
