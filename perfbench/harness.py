"""Passes over the program, and the open loop computed from them.

A pass builds a fresh serving target (the set-up the ``setup_s`` metric
times), feeds one :class:`~workloads.Script` through it as fast as it
goes (closed loop), and closes every session.  It records each arrival's
service time: the thread CPU time of its control operations and its
``feed_worker`` call.  It also times the host's reference job
(:mod:`hostspeed`) before set-up and after every tenth of the stream;
set-up and service times are scaled by the host speed around them.

The open loop is computed, not slept: the dispatcher serves arrivals one
at a time in stream order, so an arrival due at ``d_i`` starts when it is
due or when its predecessor is done, whichever is later, and is done one
service time after that (the Lindley recursion).  Due times follow the
loadgen arrival clock scaled to the workload's rate, which keeps its
diurnal and burst shape.  A sleeping generator on a shared host wakes
late by milliseconds and loses the CPU to other tenants, so a slept open
loop measures the host; this one cannot fall behind, and CPU time leaves
out the time the host takes the CPU away.

"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import hostspeed
from repro.service import LTCDispatcher, ShardedDispatcher, ShardPlan
from repro.service.recovery import RecoveryPolicy

#: Bound on waiting for the shards to finish their backlog.
DRAIN_TIMEOUT_S = 30.0
#: Lossless queues: no arrival is ever shed.
QUEUE_CAPACITY = 1 << 16


class Wedged(RuntimeError):
    """A bounded wait on the program ran out."""


@dataclass
class Pass:
    """What one pass measured and produced."""

    #: Thread CPU seconds of set-up, at the reference host speed.
    setup_s: float
    loop_start: float = 0.0
    wall_s: float = 0.0
    #: Thread CPU seconds spent on each arrival, its control ops included.
    service: List[float] = field(default_factory=list)
    #: Reference job times (ms) before set-up and after each tenth.
    marks: List[float] = field(default_factory=list)
    results: Dict[str, object] = field(default_factory=dict)
    streams: Optional[Dict[str, list]] = None
    #: Open sessions at the end of each tenth of the stream.
    open_sessions: List[int] = field(default_factory=list)
    router: Dict[str, float] = field(default_factory=dict)

    @property
    def arrivals(self) -> int:
        return len(self.service)

    @property
    def scaled_service(self) -> List[float]:
        """Service times at the reference host speed."""
        tenth = max(1, self.arrivals // 10)
        factors = [hostspeed.factor(a, b) for a, b in zip(self.marks, self.marks[1:])]
        last = len(factors) - 1
        return [spent * factors[min(i // tenth, last)] for i, spent in enumerate(self.service)]

    @property
    def capacity(self) -> float:
        """Arrivals per thread CPU second, at the reference host speed."""
        return self.arrivals / sum(self.scaled_service)


def open_single(script, keep_streams: bool = False) -> LTCDispatcher:
    dispatcher = LTCDispatcher(keep_streams=keep_streams)
    for session_id, instance, solver in script.initial:
        dispatcher.submit_instance(instance, solver, session_id)
    return dispatcher


def open_sharded(script, shards: int, executor: str = "serial") -> ShardedDispatcher:
    plan = ShardPlan.for_region(script.region, cols=shards, rows=1)
    dispatcher = ShardedDispatcher(
        plan,
        executor=executor,
        queue_capacity=QUEUE_CAPACITY,
        queue_policy="block",
        recovery=RecoveryPolicy(on_shard_failure="restart"),
        record_latencies=executor == "process",
    )
    for session_id, instance, solver in script.initial:
        dispatcher.submit_instance(instance, solver, session_id)
    if any(plan.cell(dispatcher.shard_of(sid)) is None for sid in dispatcher.session_ids):
        raise RuntimeError("a campaign landed on the overflow shard")
    return dispatcher


def setup(script, shards: Optional[int], executor: str = "serial", keep_streams: bool = False):
    if shards:
        return open_sharded(script, shards, executor)
    return open_single(script, keep_streams)


def _apply(target, op, results, streams) -> None:
    kind, session_id = op[0], op[1]
    if kind == "open":
        target.submit_instance(op[2], op[3], session_id)
    elif kind == "tasks":
        target.submit_tasks(session_id, op[2])
    elif kind == "expire":
        target.expire_tasks(session_id, op[2])
    else:  # retire: the TTL sweep, then close
        target.expire_tasks(session_id, op[2])
        if streams is not None:
            streams[session_id] = target.routed_stream(session_id)
        results[session_id] = target.close(session_id)


def _drain(target) -> None:
    if not target.drain(timeout=DRAIN_TIMEOUT_S):
        raise Wedged(f"shards did not drain within {DRAIN_TIMEOUT_S:.0f} s")


def close(target, shards: Optional[int], results, streams) -> None:
    """Close every session still open (and stop a sharded runtime)."""
    if shards:
        _drain(target)
        target.stop(drain=False)
    elif streams is not None:
        for session_id in target.session_ids:
            streams[session_id] = target.routed_stream(session_id)
    results.update(target.close_all())


def setup_only(script, shards: Optional[int]) -> float:
    """Time one set-up, then tear the target down untimed."""
    gc.collect()
    mark = hostspeed.job_ms()
    started = time.thread_time()
    target = setup(script, shards)
    elapsed = time.thread_time() - started
    close(target, shards, {}, None)
    return elapsed * hostspeed.factor(mark)


def run_pass(
    script,
    shards: Optional[int] = None,
    progress: Optional[Callable[[int], None]] = None,
    executor: str = "serial",
    keep_streams: bool = False,
) -> Pass:
    """Feed ``script`` through a fresh target in closed loop.

    ``shards`` selects a :class:`ShardedDispatcher` with that many geo
    shards (lossless queues, journaled restart recovery) run by
    ``executor``; ``None`` the single-process :class:`LTCDispatcher`,
    which keeps every session's routed stream in ``Pass.streams`` when
    ``keep_streams`` is set.  ``progress`` is told the number of arrivals
    done after each tenth of the stream.
    """
    # The previous pass's garbage is collected here, not inside this one.
    gc.collect()
    marks = [hostspeed.job_ms()]
    started = time.thread_time()
    target = setup(script, shards, executor, keep_streams)
    result = Pass(setup_s=(time.thread_time() - started) * hostspeed.factor(marks[0]))
    result.marks = marks
    workers, ops = script.workers, script.ops
    service = [0.0] * len(workers)
    streams = {} if keep_streams and not shards else None
    results: Dict[str, object] = {}
    tenth = max(1, len(workers) // 10)
    cpu = time.thread_time
    # Control ops reach asynchronous shards at the same stream position
    # as inline ones only once the shards have caught up.
    catch_up = bool(shards) and executor != "serial"
    result.loop_start = time.perf_counter()
    try:
        for index, worker in enumerate(workers):
            begun = cpu()
            due = ops.get(index)
            if due:
                if catch_up:
                    _drain(target)
                for op in due:
                    _apply(target, op, results, streams)
            target.feed_worker(worker)
            service[index] = cpu() - begun
            if (index + 1) % tenth == 0:
                marks.append(hostspeed.job_ms())
                result.open_sessions.append(len(target.session_ids))
                if progress is not None:
                    progress(index + 1)
        if shards:
            _drain(target)
    except Wedged:
        target.stop(drain=False)
        raise
    result.wall_s = time.perf_counter() - result.loop_start
    result.service = service
    if shards:
        result.router = router_stats(target)
    close(target, shards, results, streams)
    result.results = results
    result.streams = streams
    return result


def open_loop(service: List[float], clock: List[float], seconds_per_tick: float) -> List[float]:
    """Due-to-done seconds of each arrival of a FIFO server (Lindley)."""
    first = clock[0]
    done = 0.0
    latencies = []
    for spent, tick in zip(service, clock):
        due = (tick - first) * seconds_per_tick
        done = max(done, due) + spent
        latencies.append(done - due)
    return latencies


def router_stats(target) -> Dict[str, float]:
    """Router, queue and journal counters of a drained sharded runtime."""
    statuses = target.shard_status()
    geo = [status.arrivals_processed for status in statuses if status.cell is not None]
    offered = target.arrivals_offered
    stats = {
        "fanout": sum(status.arrivals_accepted for status in statuses) / offered,
        "skew": max(geo) / (sum(geo) / len(geo)),
        "shed": float(target.shed_total),
        "discarded": float(target.discarded_total),
        "journal_entries": float(sum(status.journal_entries for status in statuses)),
    }
    if target.executor == "process":
        waits = sorted(
            wait for samples in target.routing_latencies().values() for wait in samples
        )
        stats["queue_wait_p50"] = percentile(waits, 0.50)
        stats["queue_wait_p99"] = percentile(waits, 0.99)
    return stats


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of sorted ``values``."""
    return values[max(0, math.ceil(q * len(values)) - 1)]
