"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the program: it replaces public entry points
of each layer with wrappers that record a span (name, start, end,
parent, operation id) or bump a counter, and puts the originals back
when the run ends.  Spans live in flat arrays in memory and are written
out once, after the last round.

Only the main thread records spans.  Other threads (the process
backend's dispatcher threads) and forked pool children call straight
through, so spans inside forked children are not visible from here.
Counters and per-call hooks only count while a ``bench.round`` span —
the timed section of a round — is open.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The span around each timed section.
ROUND = "bench.round"

#: Span names the benchmark itself owns.  Their self time is the part
#: of a timed section that no product layer accounts for.
BENCH_SPANS = (ROUND, "bench.op")


class SpanRecorder:
    """Flat in-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")
        self.ops: List[str] = [""]
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self.in_round = False
        self._current_op = 0
        self._local = threading.local()
        self._local.stack = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn: Callable, name: str, *,
             on_result: Optional[Callable] = None,
             op_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``op_of(*args)`` names a new operation that this span and its
        descendants belong to; ``on_result(recorder, args, result)``
        runs after the span closes, inside timed sections only.
        """
        nid = self._name_id(name)
        local, clock = self._local, time.perf_counter_ns
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op
        is_round = name == ROUND

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:                   # not the main thread
                return fn(*args, **kwargs)
            saved_op = self._current_op
            if op_of is not None:
                self._current_op = len(self.ops)
                self.ops.append(str(op_of(*args)))
            if is_round:
                self.in_round = True
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._current_op)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                self._current_op = saved_op
                if is_round:
                    self.in_round = False
            if on_result is not None and self.in_round:
                on_result(self, args, result)
            return result
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped to count its calls inside timed sections."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if self.in_round:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ------------------------------------------------------------

    def patch(self, target: str, name: str, *, count_only: bool = False,
              replace: Optional[Callable] = None, **span_kw) -> None:
        """Wrap ``module:Class.attr`` or ``module:function`` in place.

        ``replace(original)`` substitutes a new callable before the
        span wrapper goes on.  A target the program no longer has is
        listed in :attr:`missing` and skipped, so a refactor degrades
        the trace instead of breaking the benchmark.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        fn = replace(original) if replace is not None else original
        wrapped = (self.counted(fn, name) if count_only
                   else self.span(fn, name, **span_kw))
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def round_spans(self, first: int, last: int) -> List[int]:
        """Indices in ``[first, last)`` of spans inside a timed section
        (a ``bench.round`` span or one of its descendants)."""
        round_id = self._name_ids.get(ROUND)
        inside = {}
        out = []
        for i in range(first, last):
            p = self.parent[i]
            if self.name[i] == round_id or inside.get(p, False):
                inside[i] = True
                out.append(i)
        return out

    def self_times(self, spans: List[int]) -> Dict[str, float]:
        """Seconds of self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; main-thread spans nest strictly, so children never
        overlap each other.
        """
        starts, ends, parents = self.start, self.end, self.parent
        child: Dict[int, int] = {}
        for i in spans:
            p = parents[i]
            child[p] = child.get(p, 0) + ends[i] - starts[i]
        out: Dict[str, float] = {}
        for i in spans:
            name = self.names[self.name[i]]
            own = ends[i] - starts[i] - child.get(i, 0)
            out[name] = out.get(name, 0.0) + own / 1e9
        return out

    def span_counts(self, spans: List[int]) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for i in spans:
            name = self.names[self.name[i]]
            out[name] = out.get(name, 0) + 1
        return out

    def total(self, name: str) -> float:
        """Summed duration in seconds of every span called ``name``."""
        nid = self._name_ids.get(name)
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.name))
                   if self.name[i] == nid) / 1e9

    def dump(self, path) -> None:
        """Write every span as columnar JSON."""
        doc = {"schema": "perfbench.spans/1", "names": self.names,
               "ops": self.ops, "name": self.name.tolist(),
               "start_ns": self.start.tolist(),
               "end_ns": self.end.tolist(),
               "parent": self.parent.tolist(), "op": self.op.tolist(),
               "missing": self.missing}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
