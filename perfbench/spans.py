"""In-memory span log and the hook patching that feeds it.

A span is one call of a wrapped entry point: its name, start, end, the
span that was open when it began (its parent) and the request it serves.
Spans go into flat arrays while the traced pass runs and are written out
once it ends. The package under test is never edited: entry points are
replaced on their module or class for the traced pass only, then
restored.
"""

import functools
import importlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


class SpanLog:
    """Flat span arrays plus named counters for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.counters = defaultdict(float)
        self._open = []

    def begin(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx):
        self.end[idx] = self.clock()
        self._open.pop()

    def current(self):
        """Name of the innermost open span, or None."""
        return self.names[self.name[self._open[-1]]] if self._open else None

    def count(self, key, amount=1):
        self.counters[key] += amount

    def clear(self):
        """Drop every span and counter so far; call with no span open."""
        for column in (self.name, self.start, self.end, self.parent, self.request):
            del column[:]
        self.counters.clear()

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )


def span_totals(log):
    """{name: (total_s, self_s, calls)} over every span in the log.

    Self time is a span's duration minus the part of it its children
    cover. Children of one span never overlap each other (one thread, so
    calls nest), so the covered part is the sum of each child's interval
    clipped to its parent.
    """
    if not len(log.start):
        return {}
    start = np.frombuffer(log.start, dtype=np.float64)
    end = np.frombuffer(log.end, dtype=np.float64)
    parent = np.frombuffer(log.parent, dtype=np.int32)
    name = np.frombuffer(log.name, dtype=np.int32)
    duration = end - start
    covered = np.zeros(len(start))
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    overlap = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    np.add.at(covered, p, np.maximum(overlap, 0.0))
    self_time = duration - covered
    n = len(log.names)
    total = np.bincount(name, weights=duration, minlength=n)
    own = np.bincount(name, weights=self_time, minlength=n)
    calls = np.bincount(name, minlength=n)
    return {
        log.names[i]: (float(total[i]), float(own[i]), int(calls[i]))
        for i in range(n)
    }


@dataclass
class Hook:
    """One entry point to wrap for the traced pass.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``, naming the
    place the caller looks the function up. ``span`` is the span name, a
    callable taking the call's positional arguments and returning one, or
    None for a hook that only observes results. ``on_result(log, args,
    result)`` runs after the call. A hook whose target no longer exists
    nulls its layer.
    """

    layer: str
    target: str
    span: object = None
    on_result: object = None


def _resolve(target):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def _wrap(log, fn, span, on_result):
    if span is None:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(log, args, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            idx = log.begin(span(args) if callable(span) else span)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.finish(idx)
            if on_result is not None:
                on_result(log, args, result)
            return result
    return functools.wraps(fn)(wrapper)


class Instrumented:
    """Context manager: patch every hook that resolves, restore on exit.

    After entry, ``missing_layers`` holds the layers with a hook that no
    longer resolves and ``notes`` says which targets were missing.
    """

    def __init__(self, log, hooks):
        self.log = log
        self.hooks = hooks
        self.missing_layers = set()
        self.notes = []
        self._saved = []

    def __enter__(self):
        for hook in self.hooks:
            owner, attr = _resolve(hook.target)
            if owner is None:
                self.missing_layers.add(hook.layer)
                self.notes.append(f"{hook.layer}: entry point {hook.target} not found")
                continue
            self._saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, _wrap(self.log, getattr(owner, attr), hook.span,
                                       hook.on_result))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:  # inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        return False
