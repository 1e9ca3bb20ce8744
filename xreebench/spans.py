"""In-memory spans around the calls into each xree module.

The tracer replaces a public function at every module attribute its
callers look up (for example `xree.ree.min_eig_pt`, bound by
`from .qmath import min_eig_pt`) with a wrapper that records a span:
name, parent span, start and end in perf_counter nanoseconds, and an
optional tag taken from the call's arguments and result. The benchmark
opens one root span per operation, so every span belongs to one
operation. Nothing inside the package is edited; `uninstall` puts the
original functions back.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

NAME, PARENT, START, END, TAG = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, tag=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if tag is not None:
                    rec[TAG] = tag(args, kwargs, out)
                return out
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def install(self, package, targets) -> None:
        """Wrap each (span name, module, attribute, tag) target.

        The function is replaced in every loaded submodule of `package`
        (and the package itself) that binds it under the same attribute
        name. A classmethod is wrapped on its class.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for name, owner, attr, tag in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                wrapped = classmethod(self.wrap(name, original.__func__, tag))
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self.wrap(name, fn, tag)
            for module in modules:
                if getattr(module, attr, None) is fn:
                    self._installed.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    @contextlib.contextmanager
    def installed(self, package, targets):
        self.install(package, targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -------------------------------------------------------

    def roots(self) -> list[int]:
        """Index of each span's root (operation) span; parents precede children."""
        out = []
        for rec in self.spans:
            out.append(len(out) if rec[PARENT] < 0 else out[rec[PARENT]])
        return out

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def by_op(self) -> dict[tuple[str, str], list[int]]:
        """Span indices grouped by (operation name, span name)."""
        groups = defaultdict(list)
        for i, root in enumerate(self.roots()):
            groups[(self.spans[root][NAME], self.spans[i][NAME])].append(i)
        return groups

    def durations_ns(self, indices) -> list[int]:
        return [self.spans[i][END] - self.spans[i][START] for i in indices]

    def summary(self) -> dict:
        """Calls, total and median inclusive and self time per span name (ns)."""
        own = self.self_ns()
        groups = defaultdict(list)
        for i, rec in enumerate(self.spans):
            groups[rec[NAME]].append(i)
        out = {}
        for name, idx in sorted(groups.items()):
            incl = self.durations_ns(idx)
            selfs = [own[i] for i in idx]
            out[name] = {
                "calls": len(idx),
                "total_ns": sum(incl),
                "self_total_ns": sum(selfs),
                "median_ns": statistics.median(incl),
                "self_median_ns": statistics.median(selfs),
            }
        return out

    def write(self, path) -> None:
        """Write the summary and every span as JSON."""
        doc = {
            "fields": ["name", "parent", "start_ns", "end_ns", "tag"],
            "summary": self.summary(),
            "spans": [[r[NAME], r[PARENT], r[START], r[END], _jsonable(r[TAG])] for r in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _jsonable(tag):
    if tag is None or isinstance(tag, (str, int, float, bool)):
        return tag
    return list(tag)
