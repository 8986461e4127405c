"""Arrival-by-arrival online simulation.

:class:`OnlineSimulation` drives an online solver through a worker stream one
arrival at a time, recording what happened at every step.  Like everything
else it drives the solver through its :class:`~repro.core.session.Session`,
but unlike the plain :meth:`Session.drive` loop it keeps a full event log
(per-arrival assignments, completion progress, the exact arrival at which
each task completed) for examples, tests and anyone studying the dynamics of
the online algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.algorithms.base import OnlineSolver, SolveResult
from repro.core.arrangement import Assignment
from repro.core.instance import LTCInstance
from repro.core.stream import WorkerStream
from repro.core.worker import Worker


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    """What happened when one worker arrived."""

    worker_index: int
    assignments: tuple[Assignment, ...]
    tasks_remaining: int
    newly_completed_tasks: tuple[int, ...]

    @property
    def was_used(self) -> bool:
        """Whether the worker received at least one task."""
        return bool(self.assignments)


@dataclass
class SimulationOutcome:
    """Full record of an online simulation run."""

    result: SolveResult
    events: List[ArrivalEvent] = field(default_factory=list)
    completion_arrival_by_task: Dict[int, int] = field(default_factory=dict)

    @property
    def workers_arrived(self) -> int:
        """Total number of arrivals processed."""
        return len(self.events)

    @property
    def workers_skipped(self) -> int:
        """Arrivals that received no assignment."""
        return sum(1 for event in self.events if not event.was_used)


class OnlineSimulation:
    """Drives an :class:`OnlineSolver` and records per-arrival events."""

    def __init__(self, solver: OnlineSolver) -> None:
        if not solver.is_online:
            raise TypeError("OnlineSimulation requires an online solver")
        self._solver = solver

    def run(
        self,
        instance: LTCInstance,
        stream: Optional[WorkerStream] = None,
        stop_when_complete: bool = True,
    ) -> SimulationOutcome:
        """Run the simulation and return its outcome.

        Parameters
        ----------
        instance:
            The LTC instance; its tasks are revealed to the solver up front.
        stream:
            The arrival stream (defaults to the instance's workers in order).
        stop_when_complete:
            Stop at the first arrival after which all tasks are complete
            (the paper's setting).  When false the whole stream is consumed,
            which is useful for studying post-completion behaviour.
        """
        session = self._solver.open_session(instance)
        if stream is None:
            stream = WorkerStream(instance.workers)

        events: List[ArrivalEvent] = []
        completion_arrival: Dict[int, int] = {}
        previously_complete: set[int] = set()

        for worker in stream:
            assignments = session.on_worker(worker)
            arrangement = self._solver.arrangement
            newly_completed = []
            for assignment in assignments:
                task_id = assignment.task_id
                if task_id in previously_complete:
                    continue
                if arrangement.is_task_complete(task_id):
                    previously_complete.add(task_id)
                    completion_arrival[task_id] = worker.index
                    newly_completed.append(task_id)
            events.append(
                ArrivalEvent(
                    worker_index=worker.index,
                    assignments=tuple(assignments),
                    tasks_remaining=arrangement.num_open_tasks,
                    newly_completed_tasks=tuple(newly_completed),
                )
            )
            if stop_when_complete and arrangement.is_complete():
                break

        result = session.result()
        return SimulationOutcome(
            result=result,
            events=events,
            completion_arrival_by_task=completion_arrival,
        )
