"""Tests for the AAM online solver (Algorithm 3) and its ablation variants."""

from dataclasses import replace

import pytest

from repro.algorithms.aam import AAMSolver, LGFOnlySolver, LRFOnlySolver
from repro.core.accuracy import TabularAccuracy
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point


def tabular_instance(table, num_tasks, num_workers, capacity=2, error_rate=0.2):
    tasks = [Task(task_id=i, location=Point(i, 0)) for i in range(num_tasks)]
    workers = [
        Worker(index=i, location=Point(0, i), accuracy=0.9, capacity=capacity)
        for i in range(1, num_workers + 1)
    ]
    return LTCInstance(tasks=tasks, workers=workers, error_rate=error_rate,
                       accuracy_model=TabularAccuracy(table))


class TestStrategySwitching:
    def test_starts_with_lgf_when_many_tasks_remain(self, tiny_instance):
        solver = AAMSolver()
        solver.start(tiny_instance)
        solver.observe(tiny_instance.worker(1))
        assert solver.diagnostics()["lgf_rounds"] >= 1.0
        assert solver.diagnostics()["lrf_rounds"] == 0.0

    def test_switches_to_lrf_when_single_task_dominates(self):
        # Worker 1 can only perform task 0 (its accuracy for task 1 is below
        # the 0.66 eligibility threshold).  After that arrival the remaining
        # work is {2.37, 3.22}: avg = 5.59 / K = 2.80 < maxRemain = 3.22, so
        # worker 2 must be scored by remaining need (LRF) and pick task 1
        # before task 0.
        table = {(1, 0): 0.96, (1, 1): 0.50, (2, 0): 0.96, (2, 1): 0.96}
        instance = tabular_instance(table, num_tasks=2, num_workers=2, capacity=2)
        solver = AAMSolver()
        solver.start(instance)
        first = solver.observe(instance.worker(1))
        assert [a.task_id for a in first] == [0]
        second = solver.observe(instance.worker(2))
        assert solver.diagnostics()["lrf_rounds"] >= 1.0
        assert [a.task_id for a in second][0] == 1

    def test_lgf_prefers_gain_over_raw_acc_star(self):
        """A nearly-complete task should not monopolise an accurate worker.

        Workers 1-3 can only perform task 0 and bring it to within 0.57 of
        delta.  Worker 4 is equally accurate on both tasks; LAF would give it
        task 0 (ties break towards the first task), but AAM's LGF caps task
        0's gain at its remaining need, so task 1 wins.
        """
        from repro.algorithms.laf import LAFSolver

        table = {
            (1, 0): 0.97, (1, 1): 0.50,
            (2, 0): 0.97, (2, 1): 0.50,
            (3, 0): 0.97, (3, 1): 0.50,
            (4, 0): 0.97, (4, 1): 0.97,
        }
        instance = tabular_instance(table, num_tasks=2, num_workers=4, capacity=1,
                                    error_rate=0.2)

        aam = AAMSolver()
        aam.start(instance)
        for index in (1, 2, 3):
            aam.observe(instance.worker(index))
        assert aam.diagnostics()["lrf_rounds"] == 0.0
        aam_choice = aam.observe(instance.worker(4))
        assert [a.task_id for a in aam_choice] == [1]

        laf = LAFSolver()
        laf.start(instance)
        for index in (1, 2, 3):
            laf.observe(instance.worker(index))
        laf_choice = laf.observe(instance.worker(4))
        assert [a.task_id for a in laf_choice] == [0]


class TestAAMSolve:
    def test_completes_and_respects_constraints(self, small_synthetic_instance):
        result = AAMSolver().solve(small_synthetic_instance)
        assert result.completed
        violations = result.arrangement.constraint_violations(
            small_synthetic_instance.workers_by_index()
        )
        assert violations == []

    def test_never_worse_than_laf_on_running_example(self, running_example):
        from repro.algorithms.laf import LAFSolver

        aam = AAMSolver().solve(running_example)
        laf = LAFSolver().solve(running_example)
        assert aam.max_latency <= laf.max_latency

    def test_observe_before_start_raises(self, tiny_instance):
        solver = AAMSolver()
        with pytest.raises(RuntimeError):
            solver.observe(tiny_instance.worker(1))

    def test_diagnostics_rounds_sum_to_observed_rounds(self, tiny_instance):
        solver = AAMSolver()
        result = solver.solve(tiny_instance)
        diagnostics = result.extra
        # Every arrival with at least one open task triggers exactly one
        # strategy decision.
        assert diagnostics["lgf_rounds"] + diagnostics["lrf_rounds"] >= 1
        assert diagnostics["lgf_rounds"] + diagnostics["lrf_rounds"] <= result.workers_observed


class TestAblationVariants:
    def test_variants_complete(self, small_synthetic_instance):
        for solver_cls in (LGFOnlySolver, LRFOnlySolver):
            result = solver_cls().solve(small_synthetic_instance)
            assert result.completed, solver_cls.name

    def test_variant_names(self):
        assert LGFOnlySolver().name == "LGF-only"
        assert LRFOnlySolver().name == "LRF-only"
        assert AAMSolver().name == "AAM"

    def test_aam_not_worse_than_single_strategy_variants_on_average(
        self, small_synthetic_instance
    ):
        aam = AAMSolver().solve(small_synthetic_instance).max_latency
        lgf = LGFOnlySolver().solve(small_synthetic_instance).max_latency
        lrf = LRFOnlySolver().solve(small_synthetic_instance).max_latency
        # The hybrid should not lose to both of its components at once.
        assert aam <= max(lgf, lrf)


class _UniterableWorkers(list):
    """A worker list that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("instance.workers iterated after start()")


def test_observe_does_not_scan_the_workers(small_synthetic_instance):
    """K is read once per arrival; reading it must not walk every worker."""
    # A private copy: the shared fixture must not be mutated.
    instance = replace(
        small_synthetic_instance,
        tasks=list(small_synthetic_instance.tasks),
        workers=list(small_synthetic_instance.workers),
    )
    stream = list(instance.workers)
    reference = AAMSolver().solve(instance).arrangement.assignments
    solver = AAMSolver()
    solver.start(instance)
    instance.workers = _UniterableWorkers(stream)
    for worker in stream:
        if solver.arrangement.is_complete():
            break
        solver.observe(worker)
    assert solver.arrangement.assignments == reference
