"""Tests for repro.core.arrangement (constraints, latency, accumulation)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accuracy import ConstantAccuracy, TabularAccuracy
from repro.core.arrangement import Arrangement
from repro.core.exceptions import CapacityExceeded, DuplicateAssignment
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point


def make_arrangement(num_tasks=2, delta=1.0, accuracy=0.9):
    tasks = [Task(task_id=i, location=Point(i, 0)) for i in range(num_tasks)]
    return tasks, Arrangement(tasks, delta, ConstantAccuracy(accuracy))


def worker(index, capacity=2):
    return Worker(index=index, location=Point(0, 0), accuracy=0.9, capacity=capacity)


class TestConstruction:
    def test_rejects_non_positive_delta(self):
        tasks = [Task.at(0, 0, 0)]
        with pytest.raises(ValueError):
            Arrangement(tasks, 0.0, ConstantAccuracy(0.9))

    def test_rejects_duplicate_task_ids(self):
        tasks = [Task.at(0, 0, 0), Task.at(0, 1, 1)]
        with pytest.raises(ValueError):
            Arrangement(tasks, 1.0, ConstantAccuracy(0.9))


class TestAssignment:
    def test_assign_accumulates_acc_star(self):
        tasks, arrangement = make_arrangement(delta=2.0, accuracy=0.9)
        assignment = arrangement.assign(worker(1), tasks[0])
        assert assignment.acc == pytest.approx(0.9)
        assert assignment.acc_star == pytest.approx(0.64)
        assert arrangement.accumulated_of(0) == pytest.approx(0.64)
        assert arrangement.remaining_of(0) == pytest.approx(2.0 - 0.64)

    def test_duplicate_pair_rejected(self):
        tasks, arrangement = make_arrangement()
        arrangement.assign(worker(1), tasks[0])
        with pytest.raises(DuplicateAssignment):
            arrangement.assign(worker(1), tasks[0])

    def test_capacity_enforced(self):
        tasks, arrangement = make_arrangement(num_tasks=3)
        w = worker(1, capacity=2)
        arrangement.assign(w, tasks[0])
        arrangement.assign(w, tasks[1])
        with pytest.raises(CapacityExceeded):
            arrangement.assign(w, tasks[2])

    def test_unknown_task_rejected(self):
        tasks, arrangement = make_arrangement()
        foreign = Task(task_id=99, location=Point(0, 0))
        with pytest.raises(KeyError):
            arrangement.assign(worker(1), foreign)

    def test_can_assign(self):
        tasks, arrangement = make_arrangement()
        w = worker(1, capacity=1)
        assert arrangement.can_assign(w, tasks[0])
        arrangement.assign(w, tasks[0])
        assert not arrangement.can_assign(w, tasks[0])       # duplicate
        assert not arrangement.can_assign(w, tasks[1])       # capacity
        assert not arrangement.can_assign(worker(2), Task(task_id=42, location=Point(0, 0)))

    def test_membership_and_iteration(self):
        tasks, arrangement = make_arrangement()
        arrangement.assign(worker(1), tasks[0])
        assert (1, 0) in arrangement
        assert (1, 1) not in arrangement
        assert len(arrangement) == 1
        assert [a.task_id for a in arrangement] == [0]


class TestCompletionAndLatency:
    def test_completion_threshold(self):
        tasks, arrangement = make_arrangement(num_tasks=1, delta=1.2, accuracy=0.9)
        arrangement.assign(worker(1), tasks[0])
        assert not arrangement.is_task_complete(0)
        arrangement.assign(worker(2), tasks[0])
        assert arrangement.is_task_complete(0)
        assert arrangement.is_complete()
        assert arrangement.uncompleted_tasks() == []

    def test_max_latency_tracks_largest_index_used(self):
        tasks, arrangement = make_arrangement(num_tasks=2, delta=0.5)
        assert arrangement.max_latency == 0
        arrangement.assign(worker(5), tasks[0])
        arrangement.assign(worker(3), tasks[1])
        assert arrangement.max_latency == 5

    def test_task_latency_per_task(self):
        tasks, arrangement = make_arrangement(num_tasks=2, delta=0.5)
        arrangement.assign(worker(4), tasks[0])
        arrangement.assign(worker(7), tasks[1])
        assert arrangement.task_latency(0) == 4
        assert arrangement.task_latency(1) == 7
        assert arrangement.per_task_latencies() == {0: 4, 1: 7}

    def test_task_latency_zero_when_unassigned(self):
        tasks, arrangement = make_arrangement()
        assert arrangement.task_latency(0) == 0

    def test_workers_of_and_load_of(self):
        tasks, arrangement = make_arrangement(num_tasks=2, delta=5.0)
        w = worker(2, capacity=2)
        arrangement.assign(w, tasks[0])
        arrangement.assign(w, tasks[1])
        assert arrangement.workers_of(0) == [2]
        assert arrangement.load_of(2) == 2
        assert arrangement.load_of(99) == 0


class TestValidationAndSummary:
    def test_constraint_violations_empty_for_valid_arrangement(self):
        tasks, arrangement = make_arrangement(num_tasks=1, delta=1.0, accuracy=0.9)
        workers = {i: worker(i) for i in (1, 2)}
        arrangement.assign(workers[1], tasks[0])
        arrangement.assign(workers[2], tasks[0])
        assert arrangement.constraint_violations(workers) == []

    def test_constraint_violations_flag_incomplete_tasks(self):
        tasks, arrangement = make_arrangement(num_tasks=1, delta=5.0)
        workers = {1: worker(1)}
        arrangement.assign(workers[1], tasks[0])
        violations = arrangement.constraint_violations(workers)
        assert any("accumulated" in v for v in violations)

    def test_constraint_violations_flag_unknown_worker(self):
        tasks, arrangement = make_arrangement(num_tasks=1, delta=0.5)
        arrangement.assign(worker(1), tasks[0])
        violations = arrangement.constraint_violations({})
        assert any("unknown worker" in v for v in violations)

    def test_summary(self):
        tasks, arrangement = make_arrangement(num_tasks=2, delta=0.5)
        arrangement.assign(worker(1), tasks[0])
        summary = arrangement.summary()
        assert summary["assignments"] == 1.0
        assert summary["tasks_total"] == 2.0
        assert summary["tasks_completed"] == 1.0
        assert summary["max_latency"] == 1.0

    def test_uses_accuracy_model_per_pair(self):
        """Acc* must be evaluated for the specific (worker, task) pair."""
        tasks = [Task(task_id=0, location=Point(0, 0)), Task(task_id=1, location=Point(1, 0))]
        model = TabularAccuracy({(1, 0): 0.96, (1, 1): 0.7})
        arrangement = Arrangement(tasks, 1.0, model)
        w = worker(1)
        first = arrangement.assign(w, tasks[0])
        second = arrangement.assign(w, tasks[1])
        assert first.acc_star == pytest.approx((2 * 0.96 - 1) ** 2)
        assert second.acc_star == pytest.approx((2 * 0.7 - 1) ** 2)


# One step of an arrangement's life: post new tasks, assign a worker of
# some accuracy to an existing task, or abandon existing task ids (with
# repeats, already-abandoned ids and sometimes an unknown id).
_steps = st.one_of(
    st.tuples(st.just("add"), st.integers(min_value=0, max_value=3)),
    st.tuples(
        st.just("assign"),
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=0.66, max_value=1.0),
    ),
    st.tuples(
        st.just("abandon"),
        st.lists(st.integers(min_value=0, max_value=40), max_size=4),
        st.booleans(),
    ),
)


class TestOpenTaskCount:
    """The O(1) open-task count must agree with the O(T) scan it replaces."""

    @staticmethod
    def _check(arrangement):
        open_ids = arrangement.uncompleted_tasks()
        assert arrangement.num_open_tasks == len(open_ids)
        assert arrangement.is_complete() == (not open_ids)
        assert arrangement.num_abandoned_tasks == len(arrangement.abandoned_tasks)
        summary = arrangement.summary()
        completed = [
            task_id
            for task_id in arrangement.accumulated
            if arrangement.is_task_complete(task_id)
            and not arrangement.is_task_abandoned(task_id)
        ]
        assert summary["tasks_completed"] == float(len(completed))

    @given(
        delta=st.sampled_from([5e-10, 1e-9, 0.3, 1.0, 2.5]),
        initial=st.integers(min_value=0, max_value=3),
        steps=st.lists(_steps, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_count_matches_scan_after_every_step(self, delta, initial, steps):
        # With no table entries the model answers each worker's own
        # historical accuracy, so Acc* varies per assignment.
        next_id = initial
        arrangement = Arrangement(
            [Task.at(i, float(i), 0.0) for i in range(initial)],
            delta,
            TabularAccuracy({}),
        )
        self._check(arrangement)
        next_worker = 1
        for step in steps:
            ids = list(arrangement.accumulated)
            if step[0] == "add":
                arrangement.add_tasks(
                    [Task.at(next_id + i, 0.0, 0.0) for i in range(step[1])]
                )
                next_id += step[1]
            elif step[0] == "assign" and ids:
                task = Task.at(ids[step[1] % len(ids)], 0.0, 0.0)
                new_worker = Worker(
                    index=next_worker,
                    location=Point(0, 0),
                    accuracy=step[2],
                    capacity=1,
                )
                next_worker += 1
                if arrangement.is_task_abandoned(task.task_id):
                    with pytest.raises(KeyError):
                        arrangement.assign(new_worker, task)
                else:
                    # Completed tasks may still be assigned (past delta).
                    arrangement.assign(new_worker, task)
            elif step[0] == "abandon" and ids:
                picked = [ids[i % len(ids)] for i in step[1]]
                # Abandoning a completed task is rejected, as is an unknown id.
                rejected = any(
                    arrangement.is_task_complete(task_id)
                    and not arrangement.is_task_abandoned(task_id)
                    for task_id in picked
                )
                if step[2]:
                    picked.append(next_id + 100)
                before = (arrangement.num_open_tasks, arrangement.abandoned_tasks)
                if rejected or step[2]:
                    with pytest.raises((KeyError, ValueError)):
                        arrangement.abandon_tasks(picked)
                    # Validation runs before any change.
                    after = (arrangement.num_open_tasks, arrangement.abandoned_tasks)
                    assert after == before
                else:
                    arrangement.abandon_tasks(picked)
            self._check(arrangement)

    def test_tiny_delta_tasks_start_complete(self):
        tasks, arrangement = make_arrangement(num_tasks=2, delta=1e-9)
        assert arrangement.num_open_tasks == 0
        assert arrangement.is_complete()
        arrangement.add_tasks([Task.at(5, 0, 0)])
        assert arrangement.num_open_tasks == 0

    def test_a_sum_landing_on_the_limit_completes_the_task(self):
        # delta - 1e-9 is exactly 1.0, the Acc* of an accuracy-1.0 worker.
        tasks, arrangement = make_arrangement(num_tasks=1, delta=1.0 + 1e-9,
                                              accuracy=1.0)
        arrangement.assign(worker(1), tasks[0])
        assert arrangement.uncompleted_tasks() == []
        assert arrangement.num_open_tasks == 0
        assert arrangement.is_complete()

    def test_repeated_and_already_abandoned_ids_count_once(self):
        tasks, arrangement = make_arrangement(num_tasks=3, delta=2.0)
        arrangement.abandon_tasks([1, 1])
        assert arrangement.num_open_tasks == 2
        arrangement.abandon_tasks([1, 2, 2])
        assert arrangement.num_open_tasks == 1
        assert arrangement.uncompleted_tasks() == [0]
