"""The repository benchmark: one command per workload, end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload city_churn --seed 2018 --seconds 22 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
passes and one more with the layer boundaries wrapped (see ``tracing.py``)
and prints the per-layer metrics instead.  Both check the program's
outputs: every pass must end in the same arrangements, every assignment
must respect worker capacity and eligibility, the sharded runtime must
match a single-process dispatcher, and the arrangement fingerprint must
match the one recorded for the seed in ``fingerprints.json``, if any.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the checks pass, 1 when they fail or the program wedged, and 2
when the program cannot be found.

Workload parameters, rates and seeds, and the end-to-end metric each
per-layer metric should move, are recorded in ``config.json``.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "config.json").read_text())
BENCHMARK = ROOT / "BENCHMARK.json"
FINGERPRINTS = HERE / "fingerprints.json"
#: A run still going after this long is ended as a failed run.
WATCHDOG_S = 160.0
#: Set-up is timed at least this many times per run.
MIN_SETUPS = 15
#: A traced run fails when the layer self-times plus harness time miss
#: the traced wall time by more than this share.
TRACE_SLACK = 0.05


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="store this seed's arrangement fingerprint in fingerprints.json",
    )
    return parser.parse_args(argv)


def ms(seconds: float) -> float:
    return seconds * 1000.0


class Run:
    """Measurements and check outcomes of one benchmark run."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.spec = CONFIG["workloads"][name]
        #: Workloads that replay another workload's script share its
        #: inputs, and so its recorded fingerprints.
        self.script_name = self.spec.get("script_of", name)
        self.script_spec = CONFIG["workloads"][self.script_name]
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.fingerprint: Optional[str] = None

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    def check_fingerprints(self, digests: List[str]) -> None:
        self.check(len(set(digests)) == 1, f"passes ended in different arrangements: {digests}")
        self.fingerprint = digests[0]
        expected = recorded_fingerprints().get(self.script_name, {}).get(str(self.seed))
        self.check(
            expected is None or expected == self.fingerprint,
            f"fingerprint {self.fingerprint} drifted from {expected} "
            f"recorded for seed {self.seed}",
        )


def recorded_fingerprints() -> Dict[str, Dict[str, str]]:
    if FINGERPRINTS.exists():
        return json.loads(FINGERPRINTS.read_text())
    return {}


class Watchdog:
    """Ends a wedged run as a failed run instead of letting it hang.

    After ``limit_s`` it dumps every thread's stack, prints the result line
    with every unfinished arrival (or solve) counted as failed, and exits 1.
    """

    def __init__(self, limit_s: float) -> None:
        self.planned = 0
        self.finished = 0
        self._base = 0
        self._stop = threading.Event()
        #: Held by whichever ends the run: the watchdog, or ``stop``.
        self._ending = threading.Lock()
        self._thread = threading.Thread(
            target=self._watch, args=(limit_s,), name="perfbench-watchdog", daemon=True
        )
        self._thread.start()

    def expect(self, count: int) -> None:
        """A pass of ``count`` arrivals (or solves) starts."""
        self._base = self.finished
        self.planned += count

    def advance(self, done: int) -> None:
        """``done`` arrivals (or solves) of the current pass have finished."""
        self.finished = self._base + done

    def stop(self) -> None:
        """Stand down; if the watchdog has already fired, wait for its exit."""
        self._ending.acquire()
        self._stop.set()

    def _watch(self, limit_s: float) -> None:
        if self._stop.wait(limit_s):
            return
        self._ending.acquire()
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        stop_children()
        print(json.dumps({
            "correct": False,
            "attempted": max(1, self.planned),
            "failed": max(1, self.planned - self.finished),
            "metrics": {},
        }), flush=True)
        os._exit(1)


def stop_children(timeout_s: float = 5.0) -> None:
    """Kill any shard worker process still alive, and wait for it.

    No process starts after this: when the watchdog calls it while the
    program still runs, restart recovery would otherwise replace the
    killed shards with new processes that outlive the run.  Then stop the
    resource tracker that ``multiprocessing`` starts for the shared-memory
    snapshots; left alone, it outlives the run until it notices its parent
    is gone.
    """
    import multiprocessing
    from multiprocessing.process import BaseProcess

    BaseProcess.start = _refuse_start
    deadline = time.monotonic() + timeout_s
    quiet = 0
    # Twice in a row with none alive: a start already under way when
    # starts were refused has registered its process by then.
    while quiet < 2 and time.monotonic() < deadline:
        children = multiprocessing.active_children()
        quiet = 0 if children else quiet + 1
        for child in children:
            child.kill()
            child.join(max(0.0, deadline - time.monotonic()))
        if quiet:
            time.sleep(0.05)
    stop_resource_tracker(timeout_s)


def _refuse_start(process) -> None:
    raise RuntimeError(f"the benchmark is stopping; {process.name} was not started")


def stop_resource_tracker(timeout_s: float) -> None:
    """Close the tracker's pipe and wait, at most ``timeout_s``, for it to exit.

    On end of file the tracker unlinks any segment still registered and
    exits; one that does not within the timeout is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if not tracker._lock.acquire(timeout=timeout_s):
        return
    try:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
        # A later register or unregister would start a new tracker.
        tracker.ensure_running = lambda: None
        tracker._send = lambda *args: None
    finally:
        tracker._lock.release()
    if fd is None:
        return
    os.close(fd)
    deadline = time.monotonic() + timeout_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle_inputs() -> None:
    """Keep the generated inputs out of the program's garbage collections.

    Without this, every full collection during a pass also traverses the
    benchmark's own input objects, and those pauses dominate the latency
    tail and vary with the seed.
    """
    gc.collect()
    gc.freeze()


def repeat(seconds: float, one_pass) -> list:
    """Whole passes while ``seconds`` lasts (at least one).

    Each metric is then a median over passes spread across the run, which
    a minority of passes slowed by other tenants of the host does not move.
    """
    started = time.perf_counter()
    passes = [one_pass()]
    while (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(one_pass())
    return passes


def measure_online(run: Run, seconds: float, tracer, watchdog: Watchdog) -> None:
    import checks
    import harness
    import workloads

    spec = run.spec
    script = getattr(workloads, run.script_spec["generator"])(
        run.seed, run.script_spec["params"]
    )
    settle_inputs()
    shards = spec.get("shards")
    rate = spec["rate_per_s"]
    tick = script.seconds_per_tick(rate)

    fingerprints: List[str] = []
    outcome: Dict[str, float] = {}

    def one_pass() -> harness.Pass:
        watchdog.expect(len(script.workers))
        done = harness.run_pass(script, shards, progress=watchdog.advance)
        watchdog.advance(done.arrivals)
        run.attempted += done.arrivals
        fingerprints.append(checks.fingerprint(done.results))
        if not outcome:
            results = done.results.values()
            outcome["max_latency"] = max(r.max_latency for r in results)
            outcome["completed"] = sum(
                r.arrangement.summary()["tasks_completed"] for r in results
            )
        # Fingerprinted: drop the arrangements, so that later passes' garbage
        # collections only traverse the program's own live objects.
        done.results = {}
        return done

    measured = repeat(seconds, one_pass)
    setups = [p.setup_s for p in measured]
    while len(setups) < MIN_SETUPS:
        setups.append(harness.setup_only(script, shards))
    # Before the untimed checking passes, which keep more than serving does.
    rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.enabled = True
        traced = one_pass()
        tracer.enabled = False

    run.check_fingerprints(fingerprints)
    if tracer is not None and shards:
        transport = process_pass(run, script, shards, watchdog)
    # Untimed: a single-process dispatcher that keeps the routed streams,
    # which the feasibility check needs and the timed passes do not keep.
    reference = harness.run_pass(script, None, keep_streams=True)
    run.check(
        checks.fingerprint(reference.results) == run.fingerprint,
        "the sharded runtime differs from a single-process LTCDispatcher "
        "on the same inputs" if shards else
        "a dispatcher that keeps its streams ends in other arrangements",
    )
    violations = checks.online_violations(
        reference.results, reference.streams,
        checks.session_tasks(script), checks.session_instances(script),
    )
    run.check(not violations, f"infeasible arrangements: {violations[:5]}")

    # Each arrival's service time is its median over the passes, as each
    # offline instance's solve time is, so that a blip of the host in one
    # pass does not reach the latency tail.
    service = [statistics.median(times) for times in zip(*(p.scaled_service for p in measured))]
    tenth = len(service) // 10
    costs = [sum(service[i:i + tenth]) / tenth for i in range(0, 10 * tenth, tenth)]
    print(f"{run.name}: CPU ms per arrival in each tenth of the stream: "
          + ", ".join(f"{ms(cost):.3f}" for cost in costs), file=sys.stderr)
    print(f"{run.name}: open sessions after each tenth: {measured[0].open_sessions}",
          file=sys.stderr)
    capacity = statistics.median(p.capacity for p in measured)
    if tracer is None:
        latencies = sorted(harness.open_loop(service, script.clock, tick))
        run.metrics.update({
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setups),
            "capacity_per_s": capacity,
            "latency_p50_ms": ms(harness.percentile(latencies, 0.50)),
            "latency_p99_ms": ms(harness.percentile(latencies, 0.99)),
            "max_latency_arrivals": float(outcome["max_latency"]),
            "tasks_completed_share": outcome["completed"] / script.tasks_posted,
        })
        return
    import tracing

    loop_end = traced.loop_start + traced.wall_s
    gap = tracing.accounting_gap(
        [span for span in tracer.spans
         if traced.loop_start <= span[3] and span[4] <= loop_end],
        traced.wall_s,
    )
    router = traced.router
    run.metrics.update(layer_metrics(tracer, traced.arrivals))
    run.metrics.update(transport_metrics(transport if shards else None))
    run.metrics.update({
        "router.fanout": router.get("fanout", 0.0),
        "router.shard_skew": router.get("skew", 0.0),
        "router.shed": router.get("shed", 0.0),
        "router.discarded": router.get("discarded", 0.0),
        "journal.entries_per_arrival": router.get("journal_entries", 0.0) / traced.arrivals,
        "openloop.utilization": rate * statistics.fmean(service),
        "trace.overhead_ratio": traced.capacity / capacity,
        "trace.unaccounted_share": gap,
        "stream.tenth_cost_ratio": max(costs[1:]) / min(costs[1:]),
    })
    check_accounting(run, gap)
    if shards:
        check_boundaries(run, tracer.spans + transport.spans,
                         tracer.boundaries | transport.boundaries)
    else:
        check_boundaries(run, tracer.spans, tracer.boundaries)


def process_pass(run: Run, script, shards: int, watchdog: Watchdog):
    """One untimed pass through process shards with the shm export traced.

    Returns the transport tracer, with the router's queue waits in its
    ``counts``.  The process runtime must end in the same arrangements as
    every other pass.
    """
    import checks
    import harness
    import tracing

    transport = tracing.Tracer()
    tracing.install_transport(transport)
    transport.enabled = True
    watchdog.expect(len(script.workers))
    done = harness.run_pass(script, shards, progress=watchdog.advance, executor="process")
    transport.enabled = False
    run.check(
        checks.fingerprint(done.results) == run.fingerprint,
        "the process shard runtime differs from the serial one on the same inputs",
    )
    transport.counts["queue_wait_p50"] = done.router["queue_wait_p50"]
    transport.counts["queue_wait_p99"] = done.router["queue_wait_p99"]
    return transport


TRANSPORT_METRICS = (
    "transport.export_tasks.calls",
    "transport.export_tasks.ms",
    "transport.snapshot_bytes",
    "router.queue_wait_ms_p50",
    "router.queue_wait_ms_p99",
)


def transport_metrics(transport) -> Dict[str, float]:
    """Process-executor transport metrics (0 without a process pass)."""
    if transport is None:
        return dict.fromkeys(TRANSPORT_METRICS, 0.0)
    import tracing

    export = tracing.layer_times(transport.spans)["transport.export_tasks"]
    return {
        "transport.export_tasks.calls": export["calls"],
        "transport.export_tasks.ms": ms(export["total"]),
        "transport.snapshot_bytes": transport.counts["snapshot_bytes"],
        "router.queue_wait_ms_p50": ms(transport.counts["queue_wait_p50"]),
        "router.queue_wait_ms_p99": ms(transport.counts["queue_wait_p99"]),
    }


def measure_offline(run: Run, seconds: float, tracer, watchdog: Watchdog) -> None:
    import checks
    import harness
    import hostspeed
    import workloads
    from repro.algorithms.registry import build_solver
    from repro.core.instance import LTCInstance
    from repro.datagen.synthetic import generate_synthetic_instance

    inputs = [
        generate_synthetic_instance(config)
        for config in workloads.offline_instances(run.seed, run.spec["params"])
    ]
    settle_inputs()

    fingerprints: List[str] = []

    def one_pass() -> Dict[str, dict]:
        watchdog.expect(len(inputs))
        solves: Dict[str, dict] = {}
        results: Dict[str, object] = {}
        mark = hostspeed.job_ms()
        for number, generated in enumerate(inputs):
            started = time.thread_time()
            instance = LTCInstance(
                tasks=generated.tasks,
                workers=generated.workers,
                error_rate=generated.error_rate,
                accuracy_model=generated.accuracy_model,
                name=generated.name,
            )
            solver = build_solver("MCF-LTC")
            built = time.thread_time()
            begun = time.perf_counter()
            result = solver.solve(instance)
            solved = time.thread_time()
            wall_s = time.perf_counter() - begun
            after = hostspeed.job_ms()
            scale = hostspeed.factor(mark, after)
            mark = after
            if not fingerprints:
                violations = checks.offline_violations(result, instance)
                run.check(not violations, f"infeasible arrangements: {violations[:5]}")
            results[instance.name] = result
            # Only numbers are kept, so that later solves' garbage
            # collections only traverse the program's own live objects.
            solves[instance.name] = {
                "setup_s": (built - started) * scale,
                "solve_s": (solved - built) * scale,
                "wall_s": wall_s,
                "consumed": result.workers_observed,
                "max_latency": result.max_latency,
                "completed": result.arrangement.summary()["tasks_completed"],
                "tasks": instance.num_tasks,
            }
            watchdog.advance(number + 1)
        run.attempted += len(solves)
        fingerprints.append(checks.fingerprint(results))
        return solves

    measured = repeat(seconds, one_pass)
    rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.enabled = True
        traced = one_pass()
        tracer.enabled = False
    run.check_fingerprints(fingerprints)
    first = measured[0]

    # Each instance's solve time is its median over the passes.
    solve_s = {name: statistics.median(p[name]["solve_s"] for p in measured) for name in first}
    consumed = sum(solve["consumed"] for solve in first.values())
    capacity = consumed / sum(solve_s.values())
    if tracer is None:
        typical = sorted(solve_s.values())
        run.metrics.update({
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(
                solve["setup_s"] for p in measured for solve in p.values()
            ),
            "capacity_per_s": capacity,
            "latency_p50_ms": ms(harness.percentile(typical, 0.50)),
            "latency_p99_ms": ms(harness.percentile(typical, 0.99)),
            # The worst of a dozen instances swings with the seed; the
            # median instance does not.
            "max_latency_arrivals": float(statistics.median(
                solve["max_latency"] for solve in first.values()
            )),
            "tasks_completed_share": sum(solve["completed"] for solve in first.values())
            / sum(solve["tasks"] for solve in first.values()),
        })
        return
    import tracing

    # Instance and solver construction is harness time outside every
    # span, so the traced wall time is the time spent in solve().
    gap = tracing.accounting_gap(
        tracer.spans, sum(solve["wall_s"] for solve in traced.values())
    )
    run.metrics.update(layer_metrics(tracer, consumed))
    run.metrics.update({
        "router.fanout": 0.0,
        "router.shard_skew": 0.0,
        "router.shed": 0.0,
        "router.discarded": 0.0,
        "journal.entries_per_arrival": 0.0,
        "openloop.utilization": 0.0,
        "trace.overhead_ratio": consumed
        / sum(solve["solve_s"] for solve in traced.values()) / capacity,
        "trace.unaccounted_share": gap,
        "stream.tenth_cost_ratio": 0.0,
    })
    run.metrics.update(transport_metrics(None))
    check_accounting(run, gap)
    check_boundaries(run, tracer.spans, tracer.boundaries)


def check_accounting(run: Run, gap: float) -> None:
    run.check(
        gap <= TRACE_SLACK,
        f"layer self-times plus harness time miss the traced wall time by {gap:.1%}",
    )


def check_boundaries(run: Run, spans, boundaries) -> None:
    """Fail when a layer this workload is meant to move recorded no call.

    A per-layer metric named ``<boundary>.<stat>`` and assigned to this
    workload (or to all) in ``config.json`` needs calls on that boundary;
    none means the program went round it, and its time went unseen into
    another layer's self time.
    """
    import tracing

    expected = {
        name.rsplit(".", 1)[0]
        for name, layer in CONFIG["per_layer"].items()
        if layer["workload"] in (run.name, "all")
    } & boundaries
    silent = tracing.silent(spans, expected)
    run.check(not silent, f"traced layers recorded no call: {silent}")


def layer_metrics(tracer, arrivals: int) -> Dict[str, float]:
    """Per-layer metrics derived from the traced pass's spans and counts."""
    import tracing

    layers = tracing.layer_times(tracer.spans)
    counts = tracer.counts

    def get(name: str, key: str) -> float:
        return layers[name][key] if name in layers else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    probes = get("candidates.probe", "calls")
    on_worker = get("solver.on_worker", "calls")
    solves = get("flow.solve_mcf", "calls")
    return {
        "dispatcher.feed.self_ms": ms(get("dispatcher.feed", "self")),
        "dispatcher.probes_per_arrival": probes / arrivals,
        "dispatcher.probe_hit_ratio": ratio(counts["probe_hits"], probes),
        "dispatcher.writes.ms": ms(get("dispatcher.writes", "total")),
        "candidates.probe.ms": ms(get("candidates.probe", "total")),
        "candidates.topk.calls": get("candidates.topk", "calls"),
        "candidates.topk.ms": ms(get("candidates.topk", "total")),
        "candidates.writes.ms": ms(get("candidates.writes", "total")),
        "candidates.build.ms": ms(get("candidates.build", "total")),
        "solver.on_worker.calls": on_worker,
        "solver.on_worker.self_ms": ms(get("solver.on_worker", "self")),
        "solver.assign_ratio": ratio(counts["assignments"], on_worker),
        "flow.solve_mcf.calls": solves,
        "flow.solve_mcf.ms": ms(get("flow.solve_mcf", "total")),
        "flow.arcs_per_call": ratio(counts["arcs"], solves),
        "mcf.self_ms": ms(get("mcf", "self")),
        "router.feed.self_ms": ms(get("router.feed", "self")),
        "journal.append.ms": ms(get("journal.append", "total")),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if not BENCHMARK.is_file():
        print(f"perfbench: {BENCHMARK} is missing", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Last resort if the watchdog thread itself cannot run.
    faulthandler.dump_traceback_later(WATCHDOG_S + 15.0, exit=True)
    watchdog = Watchdog(WATCHDOG_S)
    import harness

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = Run(args.workload, args.seed)
    offline = run.script_spec["generator"] == "offline_instances"
    measure = measure_offline if offline else measure_online
    try:
        measure(run, args.seconds, tracer, watchdog)
    except harness.Wedged as wedged:
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        run.attempted = max(1, watchdog.planned)
        run.failed = max(1, watchdog.planned - watchdog.finished)
        run.problems.append(f"wedged: {wedged}")
    finally:
        watchdog.stop()
        stop_children()
    if tracer is not None:
        tracer.write(str(HERE / "out" / f"trace-{run.name}-seed{run.seed}.csv.gz"))
    if not run.problems:
        run.check(
            set(run.metrics) == set(units),
            f"metrics {sorted(set(run.metrics) ^ set(units))} differ from BENCHMARK.json",
        )
    if args.record and not run.problems:
        recorded = recorded_fingerprints()
        recorded.setdefault(run.script_name, {})[str(run.seed)] = run.fingerprint
        FINGERPRINTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    for name, value in run.metrics.items():
        print(f"{run.name}  {name:<32} {value:>14.6g} {units.get(name, '?')}")
    for problem in run.problems:
        print(f"CHECK FAILED {run.name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in run.metrics.items()
            if name in units
        },
    }))
    faulthandler.cancel_dump_traceback_later()
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
