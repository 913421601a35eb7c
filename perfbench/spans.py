"""In-memory call spans around the program's layer functions.

The tracer replaces selected functions by wrappers under the names
their callers look up (module globals and one class attribute), records
one span per call, and puts the originals back on `uninstall`.  Nothing
in the program is edited.

Spans are stored column-wise (name id, parent index, instance id, start,
end) so that a million oracle calls cost tens of megabytes, not
hundreds.  Self time, a span's duration minus the durations of its
children, is summed per (root label, layer function) as calls return;
the runs are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans of one traced run; `label` and `instance` describe the open root span."""

    def __init__(self):
        self.t0 = perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_instance = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.label = ""
        self.instance = -1
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.root_s: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int) -> int:
        """Open a span; returns the parent's span index (-1 for a root)."""
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.span_name), 0.0])
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        return parent

    def _exit(self) -> None:
        end = perf_counter()
        idx, children = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        key = (self.label, self.names[self.span_name[idx]])
        self.self_s[key] += duration - children
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s[self.label] += duration

    @contextmanager
    def root(self, label: str, name: str, instance: int):
        """Span around one call the benchmark makes into the program."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self.label, self.instance = label, instance
        self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._exit()

    def root_index(self) -> int:
        return self._stack[0][0] if self._stack else -1

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Trace calls through owner.attr under the layer name `name`.

        observe(args, kwargs, result, parent_index) runs after each call
        that returns, for counts derived from arguments and results.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            if observe is not None:
                observe(args, kwargs, result, parent)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped function back, newest wrapper first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as gzipped TSV; times in nanoseconds since the tracer was made."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tinstance\tstart_ns\tend_ns\n")
            names, t0 = self.names, self.t0
            for i in range(len(self.span_name)):
                start = round((self.span_start[i] - t0) * 1e9)
                end = round((self.span_end[i] - t0) * 1e9)
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_instance[i]}\t{start}\t{end}\n"
                )
