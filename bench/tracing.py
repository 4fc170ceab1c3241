"""Spans around calls into the solver's layers, recorded from outside.

``patched`` swaps a wrapper in for a function at every module binding
inside the ``miblp`` package (several modules import functions by name, so
patching only the defining module would miss calls) and restores the
originals afterwards.  ``Tracer`` builds span-recording wrappers: each span
holds a name, start, end, parent and a small outcome tag, and self time is
a span's duration minus the time covered by its children.  Spans stay in
memory and are written as JSON lines once the run is over.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict


@contextlib.contextmanager
def patched(replacements: dict):
    """Install ``{original: wrapper}`` at every binding in ``miblp.*``."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "miblp" or name.startswith("miblp."))]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            for original, wrapper in replacements.items():
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    try:
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.spans = []                   # [id, name, start, end, parent, tag, count]
        self._stack = []                  # [span id, start, child time]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.tags = defaultdict(Counter)  # name -> outcome tag -> calls
        self.counts = Counter()           # name -> summed count (pivots, nodes)
        self._origin = time.perf_counter()

    def enter(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        start = time.perf_counter()
        self.spans.append([sid, name, start, None, parent, None, 0])
        self._stack.append([sid, start, 0.0])
        return sid

    def exit(self, sid: int, tag: str = "ok", count: int = 0):
        end = time.perf_counter()
        top, start, child = self._stack.pop()
        if top != sid:
            raise RuntimeError("span stack out of order")
        span = self.spans[sid]
        span[3], span[5], span[6] = end, tag, count
        dur = end - start
        name = span[1]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.tags[name][tag] += 1
        self.counts[name] += count
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.enter(name)
        try:
            yield
        finally:
            self.exit(sid)

    def wrap(self, name: str, fn, classify=None):
        """Wrapper recording one span per call of ``fn``.

        ``classify(result)`` returns (tag, count) for a normal return; an
        exception is tagged with its class name and re-raised.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(sid, type(exc).__name__)
                raise
            tag, count = classify(result) if classify else ("ok", 0)
            self.exit(sid, tag, count)
            return result
        return wrapper

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, tag, count in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent,
                    "start": round(start - self._origin, 9),
                    "end": round(end - self._origin, 9),
                    "tag": tag, "count": count}) + "\n")
