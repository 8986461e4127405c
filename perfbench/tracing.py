"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer so every
call records a span: id, parent id, name, start and end.
Spans stay in memory; :meth:`Tracer.write` writes them out when the run
ends.  A layer's self time is its span time minus the time its child
spans cover.  The benchmark drives the program from one thread, so one
parent stack suffices.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Set, Tuple

Span = Tuple[int, int, str, float, float]  # id, parent, name, start, end


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = False
        #: Span names of every boundary wrapped with this tracer.
        self.boundaries: Set[str] = set()
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self
        self.boundaries.add(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        """Write the spans as gzip'd CSV: id,parent,name,start_s,end_s."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for span in self.spans:
                handle.write("%d,%d,%s,%.9f,%.9f\n" % span)


def _count(key: str, value: Callable[[tuple, object], float]):
    def hook(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.counts[key] += value(args, result)

    return hook


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    from repro.algorithms import mcf_ltc
    from repro.algorithms.session import _SolverSession
    from repro.core.candidate_engine.engine import CandidateEngine
    from repro.core.candidates import CandidateFinder
    from repro.service.dispatcher import LTCDispatcher
    from repro.service.recovery import ArrivalJournal
    from repro.service.sharding.dispatcher import ShardedDispatcher

    tracer.wrap(LTCDispatcher, "feed_worker", "dispatcher.feed")
    for method in ("submit_instance", "submit_tasks", "expire_tasks", "close"):
        tracer.wrap(LTCDispatcher, method, "dispatcher.writes")
    tracer.wrap(
        CandidateFinder, "has_candidates", "candidates.probe",
        _count("probe_hits", lambda args, hit: 1.0 if hit else 0.0),
    )
    tracer.wrap(CandidateFinder, "__init__", "candidates.build")
    # topk_acc_star delegates to topk, so wrapping topk counts each once.
    tracer.wrap(CandidateEngine, "topk", "candidates.topk")
    tracer.wrap(CandidateEngine, "add_tasks", "candidates.writes")
    tracer.wrap(CandidateEngine, "retire_tasks", "candidates.writes")
    tracer.wrap(
        _SolverSession, "on_worker", "solver.on_worker",
        _count("assignments", lambda args, made: float(len(made))),
    )
    tracer.wrap(mcf_ltc.MCFLTCSolver, "solve", "mcf")
    tracer.wrap(
        mcf_ltc, "solve_mcf", "flow.solve_mcf",
        _count("arcs", lambda args, result: float(args[0].num_arcs)),
    )
    tracer.wrap(ShardedDispatcher, "feed_worker", "router.feed")
    tracer.wrap(ShardedDispatcher, "drain", "router.drain")
    for method in ("submit_instance", "submit_tasks", "expire_tasks", "close"):
        tracer.wrap(ShardedDispatcher, method, "router.writes")
    for method in ("record_open", "record_tasks", "record_expire",
                   "record_worker", "record_close"):
        tracer.wrap(ArrivalJournal, method, "journal.append")


def install_transport(tracer: Tracer) -> None:
    """Wrap the process executor's shared-memory task export."""
    from repro.service.sharding import process_executor

    def snapshot_bytes(args: tuple, exported: tuple) -> float:
        handle, block = exported
        return float((block.shm.size if block is not None else 0) + len(handle.sidecar or b""))

    tracer.wrap(
        process_executor, "export_tasks", "transport.export_tasks",
        _count("snapshot_bytes", snapshot_bytes),
    )


def layer_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, _name, start, end in spans:
        if parent:
            child_time[parent] += end - start
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "total": 0.0, "self": 0.0}
    )
    for span_id, _parent, name, start, end in spans:
        entry = layers[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[span_id]
    return layers


def accounting_gap(spans: List[Span], wall: float) -> float:
    """Share of ``wall`` that the spans' self times do not account for.

    Self times tile the top-level spans exactly, so the sum of self times
    plus this gap is the traced wall time.  A large gap means work ran
    outside every top-level boundary; a bypassed inner boundary moves its
    time into its parent's self time instead, which :func:`silent` shows.
    A negative self time (a child span outside its parent) is returned as
    a gap too.
    """
    layers = layer_times(spans)
    covered = sum(entry["self"] for entry in layers.values())
    worst = min((entry["self"] for entry in layers.values()), default=0.0)
    return max(abs(wall - covered), -min(worst, 0.0)) / wall


def silent(spans: List[Span], expected: Set[str]) -> List[str]:
    """The ``expected`` boundaries that recorded no call in ``spans``."""
    called = {span[2] for span in spans}
    return sorted(expected - called)
