"""In-memory spans recorded around calls into the package's public functions.

A span has a name, a start, an end and the span that was open when it began.
Spans are kept in a list and written out by the caller when the run ends.
Only the thread that owns the tracer records; calls made from worker threads
inside a traced call are part of that call's span.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []          # dicts: id, name, start, end, parent
        self._stack = []
        self._owner = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name):
        if threading.get_ident() != self._owner:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def instrument(self, module, names):
        """Record a span for every call through module.<name> while open.

        The span is named after the module that defines the function, e.g.
        ``csvio.write_manifest`` for the name ``write_manifest`` that
        ``stochbgk.cli`` imported from ``stochbgk.csvio``.
        """
        saved = []
        try:
            for attr in names:
                fn = getattr(module, attr)
                saved.append((attr, fn))
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(fn, f"{layer}.{fn.__name__}"))
            yield
        finally:
            for attr, fn in reversed(saved):
                setattr(module, attr, fn)


def self_times(spans):
    """Map span id to its duration minus the part covered by its children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def subtree(spans, root_id):
    """The spans under root_id, root included."""
    keep = {root_id}
    out = []
    for s in spans:                      # parents are recorded before children
        if s["id"] == root_id or s["parent"] in keep:
            keep.add(s["id"])
            out.append(s)
    return out


def self_time_by_name(spans):
    """Total self time per span name."""
    st = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + st[s["id"]]
    return out
