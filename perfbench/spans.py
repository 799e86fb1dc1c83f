"""Minimal span recorder for the traced run.

The traced run measures the repository's layers from outside: it
replaces a layer's public entry points (module functions, class
methods) with thin wrappers that time each call, and restores them
afterwards.  Nothing inside ``src/`` is edited.

A span is ``(id, name, parent, start, end, phase)``.  Spans are kept in
memory and written as JSON lines when the run ends.  Only calls on the
thread that created the recorder are timed; calls made by server or
pool threads pass straight through, so every recorded span nests
cleanly under an ``op`` root span on one thread.

Roll-up: a span's *self time* is its duration minus the durations of its
direct children.  Per phase, each layer metric is the summed self time
of the spans carrying that layer's name, divided by the number of ``op``
roots in the phase (so values are per operation).  The self time of the
``op`` roots themselves is the ``unattributed_s`` remainder, and
``coverage`` is the share of op wall time the layer spans account for.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

PHASES = ("cold", "warm")


class NullRecorder:
    """Recorder used for the end-to-end runs: records nothing."""

    enabled = False

    def op(self, phase: str):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()


class Recorder:
    """Span recorder with patching of layer entry points."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._phase: Optional[str] = None
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._thread:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, parent, time.perf_counter(), None, self._phase]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    @contextlib.contextmanager
    def op(self, phase: str):
        """A root span: one user-visible operation in ``phase``."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        if self._stack:
            raise RuntimeError("op spans are roots; one is already open")
        self._phase = phase
        try:
            with self.span("op"):
                yield
        finally:
            self._phase = None

    # -- patching -------------------------------------------------------
    def patch(
        self,
        owner,
        attr: str,
        name: Optional[str],
        on_call: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``
        (no span when ``name`` is None).

        ``owner`` is a module or a class that defines ``attr`` itself.
        ``on_call(args, result)`` sees each call made on the recording
        thread (for counters).
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        original = vars(owner)[attr]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                with self.span(name):
                    result = original(*args, **kwargs)
            if on_call is not None and threading.get_ident() == self._thread:
                on_call(args, result)
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------
    def rollup(self, layer_names) -> Dict[str, float]:
        """Per-phase, per-op self time of each layer span name, plus
        ``unattributed_s`` and ``coverage`` (see the module docstring)."""
        child_time: Dict[int, float] = defaultdict(float)
        for sid, _, parent, start, end, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        self_time: Dict[tuple, float] = defaultdict(float)
        ops: Dict[str, int] = defaultdict(int)
        op_wall: Dict[str, float] = defaultdict(float)
        for sid, name, _, start, end, phase in self.spans:
            if end is None or phase is None:
                continue
            self_time[(phase, name)] += (end - start) - child_time[sid]
            if name == "op":
                ops[phase] += 1
                op_wall[phase] += end - start
        out: Dict[str, float] = {}
        for phase in PHASES:
            n = ops[phase]
            for layer in layer_names:
                out[f"{phase}.{layer}_s"] = (
                    self_time[(phase, layer)] / n if n else 0.0
                )
            unattributed = self_time[(phase, "op")]
            out[f"{phase}.unattributed_s"] = unattributed / n if n else 0.0
            out[f"{phase}.coverage"] = (
                1.0 - unattributed / op_wall[phase] if op_wall[phase] else 0.0
            )
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for sid, name, parent, start, end, phase in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "parent": parent,
                    "start": start, "end": end, "phase": phase,
                }) + "\n")
