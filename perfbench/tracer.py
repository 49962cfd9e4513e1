"""Span recording from outside the program, and self-time arithmetic.

A Tracer replaces chosen functions with wrappers that record one span per
call: name, start, end, the span that caused it, and for engine ops the
bytes of the computed output.  The wrapper is installed in every module
namespace that holds the original function, so calls through a module
attribute (``ad.backward``), through a name imported with ``from x import
f`` and through a module's own globals are all seen.

Spans stay in memory, in per-thread arrays, and are written out once when
the traced process ends.  A span opened in a worker thread whose stack is
empty takes as its parent the innermost open span of the thread that made
the Tracer (in the traced CLI that thread is waiting on the workers).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array

import numpy as np


class _Buffer:
    """Spans finished by one thread, plus that thread's open-span stack."""

    def __init__(self):
        self.stack = []
        self.idx = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nbytes = array("q")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.records: dict[str, list] = {}
        self._ids: dict[str, int] = {}
        self._next = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def peak(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), int(value))

    def record(self, key: str, value) -> None:
        self.records.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, size=None, before=None, probe=None):
        """Traced stand-in for `fn`.  size(result) gives the span's bytes;
        before(args, kwargs) runs before the span opens and
        probe(args, kwargs, result) after it closes."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        local, main, new_index = self._local, self._main, self._next

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            buf = getattr(local, "buf", None) or self._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main.stack[-1] if main.stack else -1)
            idx = next(new_index)
            stack.append(idx)
            out, done = None, False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stack.pop()
                buf.idx.append(idx)
                buf.name.append(nid)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.parent.append(parent)
                buf.nbytes.append(size(out) if done and size is not None else 0)
            if probe is not None:
                probe(args, kwargs, out)
            return out

        return traced

    def install(self, modules, targets) -> int:
        """Wrap each (module, function name, span name, hooks) of `targets`,
        hooks being keyword arguments of `wrap`, and rebind the wrapper
        wherever `modules` hold the original.  Returns the number of
        bindings replaced."""
        replaced = 0
        for home, fname, span, hooks in targets:
            original = getattr(home, fname)
            wrapper = self.wrap(span, original, **hooks)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced += 1
        return replaced

    def columns(self) -> dict:
        """Span columns (name, start, end, parent, nbytes) indexed by span id."""
        cols = {key: np.concatenate([np.frombuffer(getattr(b, key), dtype=t)
                                     for b in self._buffers])
                for key, t in (("idx", np.int64), ("name", np.int32),
                               ("start", np.float64), ("end", np.float64),
                               ("parent", np.int64), ("nbytes", np.int64))}
        order = np.argsort(cols.pop("idx"), kind="stable")
        return {k: v[order] for k, v in cols.items()}

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 extra=np.array(json.dumps({"counters": self.counters,
                                            "records": self.records})),
                 **self.columns())


def load(path) -> dict:
    """A dumped trace: span columns indexed by span id, names, extras."""
    with np.load(path, allow_pickle=False) as z:
        out = {k: z[k] for k in ("name", "start", "end", "parent", "nbytes")}
        out["names"] = [str(n) for n in z["names"]]
        out.update(json.loads(str(z["extra"])))
    return out


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one parent may overlap (spans from worker threads), so the
    covered part is the length of the union of the children's intervals,
    clipped to the parent's interval."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size)
    order = np.lexsort((start, parent))
    order = order[parent[order] >= 0].tolist()
    s, e, p = start.tolist(), end.tolist(), parent.tolist()
    current, reach, lo, hi, total = -1, 0.0, 0.0, 0.0, 0.0
    for i in order:
        if p[i] != current:
            if current >= 0:
                covered[current] = total
            current, total = p[i], 0.0
            lo, hi = s[current], e[current]
            reach = lo
        a, b = max(s[i], reach), min(e[i], hi)
        if b > a:
            total += b - a
            reach = b
    if current >= 0:
        covered[current] = total
    return (end - start) - covered
