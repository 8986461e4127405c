"""Seeded input generation for the benchmark workloads.

Every workload is generated from ``--seed`` alone, with the program's own
generators (:mod:`repro.service.loadgen` for worker streams and campaign
task sets, :mod:`repro.datagen.synthetic` for offline instances).  The
program only ever receives the generated objects.

An online workload is a :class:`Script`: sessions opened before the stream
starts, the merged worker stream, and the control operations (campaign
opens, mid-stream task posts, TTL retirements) scheduled before given
arrivals.  The same script drives every pass of a run, so every pass must
end in the same arrangements.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.distributions import NormalAccuracy
from repro.datagen.rng import derive_seed
from repro.datagen.synthetic import SyntheticConfig
from repro.experiments import configs as paper
from repro.service.loadgen import BurstWindow, ReplayConfig, build_workload

SOLVERS = ("AAM", "LAF")


@dataclass
class Script:
    """One online workload: initial sessions, stream and control ops.

    ``ops[i]`` runs just before arrival ``i`` (0-based) is fed, in list
    order.  Op kinds: ``("open", sid, instance, solver)``, ``("tasks",
    sid, tasks)``, ``("expire", sid, task_ids)`` and ``("retire", sid,
    task_ids)`` -- the TTL sweep followed by ``close``.
    """

    initial: List[Tuple[str, LTCInstance, str]]
    workers: List[Worker]
    ops: Dict[int, List[tuple]]
    region: object
    tasks_posted: int
    #: Arrival clock of the stream (loadgen ``arrival_time``), used to
    #: schedule the open loop with the stream's diurnal and burst shape.
    clock: List[float]

    def seconds_per_tick(self, rate: float) -> float:
        """Scale of the arrival clock that gives a mean of ``rate`` arrivals/s."""
        return (len(self.clock) - 1) / rate / (self.clock[-1] - self.clock[0])


def _campaign(tasks: Sequence[Task], template: LTCInstance, name: str) -> LTCInstance:
    return LTCInstance(
        tasks=list(tasks),
        workers=list(template.workers),
        error_rate=template.error_rate,
        name=name,
    )


def city_churn(seed: int, params: dict) -> Script:
    """Multi-city campaigns on a fixed posting schedule with a TTL.

    A campaign opens every ``period`` arrivals and retires ``open_sessions
    * period`` arrivals later, so ``open_sessions`` campaigns are open at
    every point of the stream.  The campaigns open at set-up carry
    staggered remaining lifetimes, as if posted one ``period`` apart
    before the stream began.  Each campaign receives ``extra_tasks`` more
    tasks at half its lifetime.
    """
    period = params["period"]
    live = params["open_sessions"]
    arrivals = params["arrivals"]
    base, extra = params["tasks_per_campaign"], params["extra_tasks"]
    ttl = period * live
    total = live + arrivals // period
    cities = params["city_cols"] * params["city_rows"]
    config = ReplayConfig(
        seed=seed,
        city_cols=params["city_cols"],
        city_rows=params["city_rows"],
        city_spacing=1000.0,
        city_radius=50.0,
        campaigns_per_city=math.ceil(total / cities),
        tasks_per_campaign=base + extra,
        num_workers=arrivals,
        worker_spread=1.4,
        diurnal_amplitude=0.3,
        bursts=(BurstWindow(0.45, 0.55, hot_city=2, intensity=1.5, city_bias=2.0),),
        error_rate=params["error_rate"],
        capacity=params["capacity"],
    )
    generated = build_workload(config)
    rng = random.Random(f"{seed}-schedule")
    pool = list(generated.campaigns)
    rng.shuffle(pool)

    ops: Dict[int, List[tuple]] = {}
    initial: List[Tuple[str, LTCInstance, str]] = []
    posted = 0

    def at(index: int, op: tuple) -> None:
        if index < arrivals:
            ops.setdefault(index, []).append(op)

    for number in range(total):
        source = pool[number]
        sid = f"c{number:04d}"
        solver = rng.choice(SOLVERS)
        opened = (number - live + 1) * period  # negative: before the stream
        if opened >= arrivals:
            continue
        submit_at = opened + ttl // 2
        first = list(source.tasks[:base])
        later = list(source.tasks[base:])
        if submit_at < 0:
            first, later = first + later, []
        instance = _campaign(first, source, sid)
        if opened <= 0:
            initial.append((sid, instance, solver))
        else:
            at(opened, ("open", sid, instance, solver))
        posted += len(first)
        if later and submit_at < arrivals:
            at(submit_at, ("tasks", sid, later))
            posted += len(later)
            first = first + later
        at(opened + ttl, ("retire", sid, [task.task_id for task in first]))
    for index in ops:
        # Retire before open before post, so the live count never overshoots.
        ops[index].sort(key=lambda op: ("retire", "open", "tasks").index(op[0]))
    workers = generated.workers()
    return Script(
        initial=initial,
        workers=workers,
        ops=ops,
        region=config.bounds,
        tasks_posted=posted,
        clock=[worker.arrival_time for worker in workers],
    )


def dense_dynamic(seed: int, params: dict) -> Script:
    """A few long-lived sessions over one dense city, tasks churning by TTL.

    Every ``period`` arrivals each session receives a batch of
    ``batch_tasks`` tasks (sessions staggered across the period); a batch
    expires ``batches_live * period`` arrivals after it was posted.  The
    sessions open at set-up with ``batches_live`` batches already posted
    at staggered ages, so the live task count is flat from the start.
    """
    sessions = params["sessions"]
    period = params["period"]
    batch = params["batch_tasks"]
    live = params["batches_live"]
    arrivals = params["arrivals"]
    ttl = period * live
    batches = live + arrivals // period
    config = ReplayConfig(
        seed=seed,
        city_cols=1,
        city_rows=1,
        city_spacing=400.0,
        city_radius=params["city_radius"],
        campaigns_per_city=sessions,
        tasks_per_campaign=batches * batch,
        num_workers=arrivals,
        worker_spread=1.0,
        diurnal_amplitude=0.3,
        bursts=(BurstWindow(0.45, 0.55, hot_city=0, intensity=1.5, city_bias=1.0),),
        error_rate=params["error_rate"],
        capacity=params["capacity"],
    )
    generated = build_workload(config)
    ops: Dict[int, List[tuple]] = {}
    initial: List[Tuple[str, LTCInstance, str]] = []
    posted = 0

    def at(index: int, op: tuple) -> None:
        if index < arrivals:
            ops.setdefault(index, []).append(op)

    for number, source in enumerate(generated.campaigns):
        sid = f"d{number}"
        offset = number * period // sessions
        chunks = [source.tasks[b * batch:(b + 1) * batch] for b in range(batches)]
        first: List[Task] = []
        for b, chunk in enumerate(chunks):
            posted_at = (b - live + 1) * period + offset
            if posted_at <= 0:
                first.extend(chunk)
            elif posted_at < arrivals:
                at(posted_at, ("tasks", sid, list(chunk)))
            else:
                continue
            posted += len(chunk)
            at(posted_at + ttl, ("expire", sid, [task.task_id for task in chunk]))
        initial.append((sid, _campaign(first, source, sid), SOLVERS[number % 2]))
    for index in ops:
        ops[index].sort(key=lambda op: ("expire", "tasks").index(op[0]))
    workers = generated.workers()
    return Script(
        initial=initial,
        workers=workers,
        ops=ops,
        region=config.bounds,
        tasks_posted=posted,
        clock=[worker.arrival_time for worker in workers],
    )


def offline_instances(seed: int, params: dict) -> List[SyntheticConfig]:
    """Paper-density synthetic instances (Table IV defaults, scaled).

    Task and worker counts scale by ``scale`` while the region side
    shrinks by ``sqrt(scale)``, which keeps the paper's worker density per
    eligibility disk -- the scaling rule of :mod:`repro.experiments.configs`.
    """
    scale = params["scale"]
    side = max(paper.PAPER_GRID_SIZE * math.sqrt(scale), 3.0 * paper.PAPER_D_MAX)
    return [
        SyntheticConfig(
            num_tasks=max(3, round(paper.PAPER_DEFAULT_TASKS * scale)),
            num_workers=max(20, round(paper.PAPER_DEFAULT_WORKERS * scale)),
            capacity=paper.PAPER_DEFAULT_CAPACITY,
            error_rate=paper.PAPER_DEFAULT_ERROR,
            accuracy_distribution=NormalAccuracy(
                paper.PAPER_DEFAULT_ACCURACY_MEAN, paper.PAPER_ACCURACY_SIGMA
            ),
            grid_size=side,
            d_max=paper.PAPER_D_MAX,
            seed=derive_seed(seed, "offline_mcf", number),
            name=f"offline-{number}",
        )
        for number in range(params["instances"])
    ]
