"""Output checks: arrangement fingerprints and feasibility."""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, List, Mapping, Sequence

from repro.core.task import Task
from repro.core.worker import Worker

#: Slack on the eligibility threshold, as in ``CandidateFinder.is_eligible``.
EPSILON = 1e-12


def fingerprint(results: Mapping[str, object]) -> str:
    """Digest of every session's final arrangement, in session-id order."""
    digest = hashlib.sha256()
    for session_id in sorted(results):
        digest.update(session_id.encode())
        digest.update(repr(results[session_id].arrangement.assignments).encode())
    return digest.hexdigest()[:24]


def _pair_violations(assignments, workers_by_index, tasks_by_id, model, threshold) -> List[str]:
    violations: List[str] = []
    loads: Counter = Counter()
    for assignment in assignments:
        worker = workers_by_index.get(assignment.worker_index)
        task = tasks_by_id.get(assignment.task_id)
        if worker is None or task is None:
            violations.append(f"unknown pair {assignment.as_tuple()}")
            continue
        loads[assignment.worker_index] += 1
        if model.accuracy(worker, task) < threshold - EPSILON:
            violations.append(f"ineligible pair {assignment.as_tuple()}")
    for index, load in loads.items():
        if load > workers_by_index[index].capacity:
            violations.append(f"worker {index} holds {load} tasks")
    return violations


def online_violations(
    results: Mapping[str, object],
    streams: Mapping[str, Sequence[Worker]],
    tasks: Mapping[str, Mapping[int, Task]],
    instances: Mapping[str, object],
) -> List[str]:
    """Capacity and eligibility of every dispatched session's assignments.

    ``streams`` are the sessions' routed sub-streams (re-indexed from 1),
    ``tasks`` every task posted to each session, ``instances`` the
    instance each session was opened with (accuracy model, threshold).
    """
    violations: List[str] = []
    for session_id, result in results.items():
        stream = streams[session_id]
        if [worker.index for worker in stream] != list(range(1, len(stream) + 1)):
            violations.append(f"{session_id}: routed stream is not re-indexed 1..n")
            continue
        instance = instances[session_id]
        violations.extend(
            f"{session_id}: {violation}"
            for violation in _pair_violations(
                result.arrangement.assignments,
                {worker.index: worker for worker in stream},
                tasks[session_id],
                instance.accuracy_model,
                instance.min_assignable_accuracy,
            )
        )
    return violations


def offline_violations(result, instance) -> List[str]:
    """LTC constraints, eligibility and completion of one offline solve."""
    workers = {worker.index: worker for worker in instance.workers}
    violations = result.arrangement.constraint_violations(workers)
    violations += _pair_violations(
        result.arrangement.assignments,
        workers,
        {task.task_id: task for task in instance.tasks},
        instance.accuracy_model,
        instance.min_assignable_accuracy,
    )
    return [f"{instance.name}: {violation}" for violation in violations]


def session_tasks(script) -> Dict[str, Dict[int, Task]]:
    """Every task posted to each session of a script."""
    posted: Dict[str, Dict[int, Task]] = {}
    for session_id, instance, _solver in script.initial:
        posted[session_id] = {task.task_id: task for task in instance.tasks}
    for index in sorted(script.ops):
        for op in script.ops[index]:
            if op[0] == "open":
                posted[op[1]] = {task.task_id: task for task in op[2].tasks}
            elif op[0] == "tasks":
                posted[op[1]].update((task.task_id, task) for task in op[2])
    return posted


def session_instances(script) -> Dict[str, object]:
    """The instance each session of a script is opened with."""
    opened = {session_id: instance for session_id, instance, _ in script.initial}
    for ops in script.ops.values():
        for op in ops:
            if op[0] == "open":
                opened[op[1]] = op[2]
    return opened
