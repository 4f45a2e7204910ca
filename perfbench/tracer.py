"""In-memory span tracer for the benchmark's traced run.

Each traced function is wrapped where its callers look it up: on its class
for methods, and in every ``gammaclutter`` module namespace that binds the
function object (``detector`` imports ``compound_survival`` by name, while
``texture`` calls ``saddlepoint.survival_sdp`` through the module, so both
kinds of lookup see the wrapper).  A call records one span (name, start,
end, parent, error flag, note) and nothing else; the originals are put back
when the tracer exits.

Self time of a span is its duration minus the durations of its direct child
spans.  The run is single-threaded, so children nest inside their parent
and the self times of all spans add up to at most the traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "gammaclutter"

class Target:
    """A function to trace: ``owner.attr`` under the metric name ``name``.

    ``note(*args, **kwargs)`` optionally extracts one value per call (a
    hashable key or an amount) for the derived per-layer metrics.
    """

    def __init__(self, name, owner, attr, note=None):
        self.name = name
        self.owner = owner
        self.attr = attr
        self.note = note


class Tracer:
    """Context manager that patches the targets and records spans."""

    def __init__(self, targets):
        self.targets = list(targets)
        # span: [target index, start, end, parent span index, error, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        try:
            for i, t in enumerate(self.targets):
                original = t.owner.__dict__[t.attr]
                wrapper = self._wrap(i, original, t.note)
                sites = [t.owner] if isinstance(t.owner, type) else [
                    m for m in modules if vars(m).get(t.attr) is original]
                for site in sites:
                    self._saved.append((site, t.attr, original))
                    setattr(site, t.attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)

    def _wrap(self, index, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1, False,
                    note(*args, **kwargs) if note else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def summary(self) -> dict:
        """Per-target calls, self time, inclusive time, errors and notes."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {t.name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                        "errors": 0, "notes": []} for t in self.targets}
        for s, c in zip(self.spans, child):
            row = out[self.targets[s[0]].name]
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += (s[2] - s[1]) - c
            row["errors"] += int(s[4])
            if s[5] is not None:
                row["notes"].append(s[5])
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a
        ``parent_name`` span."""
        names = [t.name for t in self.targets]
        return sum(1 for s in self.spans
                   if s[3] >= 0 and names[s[0]] == child_name
                   and names[self.spans[s[3]][0]] == parent_name)

    def dump(self, path, t_origin: float, extra: dict | None = None):
        """Write spans (times relative to ``t_origin``) and ``extra``."""
        payload = dict(extra or {})
        payload["names"] = [t.name for t in self.targets]
        payload["span_fields"] = ["name", "start_s", "end_s", "parent",
                                  "error"]
        payload["spans"] = [[s[0], s[1] - t_origin, s[2] - t_origin, s[3],
                             int(s[4])] for s in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)
