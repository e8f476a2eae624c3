"""In-memory spans around calls into trialbet's public functions.

A traced pass swaps each listed function for a wrapper that records the
span's name, start, end and parent, runs the work through the same entry
points as the untraced pass, and puts the originals back.  Nothing in
``src/`` changes: the wrappers live on the module or class attribute the
program already looks up at call time.

Spans are kept in flat ``array`` columns (a traced monitor pass records about
400,000 of them) and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np


class Tracer:
    """Single-threaded span recorder; a span's id is its start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.open = -1

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records one span called ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(self.open)
            ends.append(0)
            self.open = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self.open = parents[idx]

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Wrap ``(owner, attribute, span name)`` targets for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanTable:
    """Columns of a finished trace, with self time and root span per span.

    Self time is a span's duration minus the durations of its direct
    children; spans never overlap their siblings because the program is
    single-threaded.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.int64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.int64).copy()
        self.dur = (self.end - self.start).astype(float)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=self.name.size)
        self.self_time = self.dur - child_time
        self.root = np.arange(self.name.size)
        while True:
            up = self.parent[self.root]
            climbing = up >= 0
            if not climbing.any():
                break
            self.root[climbing] = up[climbing]

    def is_named(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def under(self, root_name: str) -> np.ndarray:
        """Spans whose outermost ancestor (or themselves) is called ``root_name``."""
        return self.is_named(root_name)[self.root]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name, parent=self.parent,
                 start=self.start, end=self.end)
