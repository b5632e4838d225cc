"""In-memory span recorder that wraps public functions of the program.

Each wrapped function is replaced at the module (or class) attribute where
its callers look it up, so the program itself is not changed. A span records
name, start, end, parent span, op id and thread. Self time is the span's
duration minus the time its child spans on the same thread cover. Spans stay
in memory (up to a cap) and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # frames: [span_id, name_id, start_ns, child_ns, op]
        # name -> [calls, total_ns, self_ns, raised]
        self.agg: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self.counters: dict[str, float] = defaultdict(float)


class Tracer:
    """Install with wrap(); read results with totals() and counter()."""

    def __init__(self, max_spans: int = 100_000):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self.dropped = 0
        self.installed: set[str] = set()
        self.op_roots: set[str] = set()
        self.current_op = -1  # op id for spans that start with no parent span
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, on_result=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; on_result(tracer_state,
        args, kwargs, result, duration_ns) may add counters."""
        st = self._state()
        nid = self._name_id(name)
        sid = next(self._ids)
        stack = st.stack
        if name in self.op_roots:
            op = sid
        elif stack:
            op = stack[-1][4]
        else:
            op = self.current_op
        parent = stack[-1][0] if stack else -1
        frame = [sid, nid, 0, 0, op]
        stack.append(frame)
        frame[2] = start = time.perf_counter_ns()
        raised = 0
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            raised = 1
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][3] += dur
            a = st.agg[name]
            a[0] += 1
            a[1] += dur
            a[2] += dur - frame[3]
            a[3] += raised
            if len(self.spans) < self.max_spans:
                self.spans.append((sid, nid, start, end, parent, op, threading.get_ident()))
            else:
                self.dropped += 1
        if on_result is not None:
            on_result(st.counters, args, kwargs, result, dur)
        return result

    def wrap(self, owner, attr: str, name: str, on_result=None) -> bool:
        """Replace owner.attr by a recording wrapper; a missing attribute
        (renamed or removed function) is skipped, not an error."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            return False
        tracer = self
        self._name_id(name)  # register before worker threads can race on it

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.span(name, original, *args, on_result=on_result, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self.installed.add(name)
        return True

    def install(self, targets) -> None:
        """wrap() every (owner, attribute, span name, result hook)."""
        for owner, attr, name, hook in targets:
            self.wrap(owner, attr, name, hook)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float, int]]:
        """name -> (calls, total seconds, self seconds, calls that raised)."""
        out: dict[str, list] = {}
        for st in self._threads:
            for name, (calls, total, self_ns, raised) in st.agg.items():
                acc = out.setdefault(name, [0, 0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_ns
                acc[3] += raised
        return {n: (c, t / 1e9, s / 1e9, r) for n, (c, t, s, r) in out.items()}

    def counter(self, key: str) -> float:
        return sum(st.counters.get(key, 0.0) for st in self._threads)

    def write_csv(self, path) -> int:
        """Write the recorded spans; returns the number written."""
        with open(path, "w") as handle:
            handle.write(f"# spans={len(self.spans)} dropped={self.dropped}\n")
            handle.write("id,name,start_ns,end_ns,parent,op,thread\n")
            for sid, nid, start, end, parent, op, thread in self.spans:
                handle.write(f"{sid},{self.names[nid]},{start},{end},{parent},{op},{thread}\n")
        return len(self.spans)
