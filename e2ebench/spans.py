"""Outside-in span tracing of the ``repro`` layers.

The tracer never edits the package: it replaces public entry points with
thin wrappers at the attribute each caller actually resolves (a method
on its class, or a function in the namespace of the module that imported
it) and restores the originals on :meth:`Tracer.uninstall`.  Each call
becomes one :class:`Span` -- name, start, end, parent -- kept in memory
until the run ends.  A span's self time is its duration minus the union
of the intervals its children cover.
"""

from __future__ import annotations

import gc
import importlib
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "units")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.units = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, result, index: int = 0) -> int:
    value = args[index] if len(args) > index else None
    return len(value) if value is not None else 0


# (span name, import path of the owner, attribute, units counter).
# Units count the work a call did: rows, candidates or requests.
WRAPPED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("crp.take", "repro.crp.challenges:ChallengeStream", "take",
     lambda a, k, r: int(a[1])),
    ("crp.feature_cache", "repro.crp.transform:ParityFeatureCache", "features",
     lambda a, k, r: _rows(a, k, r, 1)),
    # The feature cache resolves parity_features in repro.crp.transform;
    # an uncached selector in repro.core.selection; engine chunks in
    # repro.engine.worker.  The device model's own parity pass stays
    # inside silicon.read.
    ("crp.parity", "repro.crp.transform", "parity_features", _rows),
    ("crp.parity", "repro.core.selection", "parity_features", _rows),
    ("crp.parity", "repro.engine.worker", "parity_features", _rows),
    ("model.predict", "repro.core.model:XorPufModel",
     "predict_individual_soft_from_features", lambda a, k, r: _rows(a, k, r, 1)),
    ("thresholds.classify", "repro.core.selection", "classify_predictions", _rows),
    ("selection.select", "repro.core.selection:ChallengeSelector", "select",
     lambda a, k, r: len(r[0])),
    ("silicon.read", "repro.silicon.chip:PufChip", "xor_response",
     lambda a, k, r: _rows(a, k, r, 1)),
    ("service.authenticate", "repro.service.service:AuthenticationService",
     "authenticate", None),
    ("service.authenticate_batch", "repro.service.service:AuthenticationService",
     "authenticate_batch", lambda a, k, r: len(r)),
    ("service.identify_many", "repro.service.service:AuthenticationService",
     "identify_many", lambda a, k, r: len(r)),
    ("service.admission", "repro.core.server:AuthenticationServer", "record", None),
    ("service.admission", "repro.core.server:AuthenticationServer", "revocation", None),
    ("service.admission", "repro.service.resilience:RateLimiter", "allow", None),
    ("service.admission", "repro.service.resilience:RateLimiter",
     "record_admitted", None),
    ("service.admission", "repro.service.resilience:CircuitBreaker", "allow", None),
    ("service.digest", "repro.service.service", "challenge_digests", _rows),
    ("service.audit", "repro.service.events:AuditLog", "append", None),
    ("server.identify", "repro.core.server:AuthenticationServer", "identify_many",
     lambda a, k, r: len(r)),
    ("server.codebook", "repro.core.server:AuthenticationServer", "codebook", None),
    ("codebook.pack", "repro.core.server", "pack_responses", _rows),
    ("codebook.match", "repro.core.codebook:IdentificationCodebook", "match_packed",
     lambda a, k, r: _rows(a, k, r, 1)),
    ("codebook.build", "repro.core.codebook:IdentificationCodebook", "sync",
     lambda a, k, r: int(r)),
    ("engine.soft_counts", "repro.engine.engine:EvaluationEngine", "soft_counts",
     lambda a, k, r: int(r.size)),
    # Worker processes import evaluate_chunk by name, so this wrapper is
    # only valid for in-process (jobs=1) sweeps.
    ("engine.chunk", "repro.engine.engine", "evaluate_chunk",
     lambda a, k, r: _rows(a, k, r, 1)),
)

#: Spans that start a unit of serving work on their thread.  Their self
#: time is what no named layer accounts for.
SERVING_ROOTS = (
    "service.authenticate",
    "service.authenticate_batch",
    "service.identify_many",
    "engine.soft_counts",
)


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        self.gc_pauses: List[Tuple[float, float, int]] = []
        self._gc_start: Dict[int, float] = {}

    # -- span recording ------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def root_start(self) -> Optional[float]:
        """Start of the outermost open span on the calling thread."""
        stack = self._stack()
        return stack[0].start if stack else None

    def wrapper(self, name: str, original: Callable, units: Optional[Callable]):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(name, clock(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if units is not None:
                span.units = units(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for name, owner_path, attr, units in WRAPPED:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrapper(name, original, units))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        generation = info.get("generation", 0)
        if phase == "start":
            self._gc_start[generation] = now
        elif generation in self._gc_start:
            self.gc_pauses.append((self._gc_start.pop(generation), now, generation))

    def span_cost(self, calls: int = 100_000) -> float:
        """Seconds one wrapped call adds over a bare call (calibrated)."""

        def bare(x):
            return x

        probe = Tracer()
        traced = probe.wrapper("calibration", bare, None)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for i in range(calls):
                bare(i)
            plain = time.perf_counter() - start
            start = time.perf_counter()
            for i in range(calls):
                traced(i)
            best = min(best, time.perf_counter() - start - plain)
            probe.spans.clear()
        return max(best, 0.0) / calls


class SpanIndex:
    """Queries over the spans of one time window."""

    def __init__(self, spans: Iterable[Span], start: float, end: float) -> None:
        self.spans = [s for s in spans if s.start >= start and s.end <= end]
        self._children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                self._children.setdefault(id(span.parent), []).append(span)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def units(self, name: str) -> int:
        return sum(s.units for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def children(self, span: Span) -> List[Span]:
        return self._children.get(id(span), [])

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the intervals its children cover."""
        intervals = sorted((c.start, c.end) for c in self.children(span))
        covered = 0.0
        cursor = span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def descendants(self, span: Span, name: str) -> List[Span]:
        found = []
        pending = list(self.children(span))
        while pending:
            child = pending.pop()
            if child.name == name:
                found.append(child)
            pending.extend(self.children(child))
        return found

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.name in SERVING_ROOTS and
                (s.parent is None or s.parent.name not in SERVING_ROOTS)]


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
