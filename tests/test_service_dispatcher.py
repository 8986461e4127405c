"""Tests for the multi-instance dispatch layer."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import build_solver
from repro.core.accuracy import SigmoidDistanceAccuracy
from repro.core.candidates import sigmoid_eligibility_radius
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point
from repro.service import (
    DuplicateSessionError,
    LTCDispatcher,
    UnknownSessionError,
)

#: Three districts far enough apart that sigmoid eligibility (d_max = 30)
#: partitions a merged stream geographically.
OFFSETS = [(0.0, 0.0), (500.0, 0.0), (0.0, 500.0)]


def district_instance(offset, num_tasks=2, num_workers=14, seed=0):
    """A small deterministic campaign translated into its own district."""
    dx, dy = offset
    tasks = [
        Task(task_id=i, location=Point(dx + 10.0 * i, dy)) for i in range(num_tasks)
    ]
    workers = [
        Worker(
            index=index,
            location=Point(dx + (index % 3) * 5.0, dy + (seed % 2)),
            accuracy=0.9,
            capacity=2,
        )
        for index in range(1, num_workers + 1)
    ]
    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=0.2,
        accuracy_model=SigmoidDistanceAccuracy(d_max=30.0),
        name=f"district@{offset}",
    )


def merged_stream(instances):
    """Round-robin interleave, re-indexed into one global arrival order."""
    queues = [list(instance.workers) for instance in instances]
    merged = []
    while any(queues):
        for queue in queues:
            if queue:
                merged.append(replace(queue.pop(0), index=len(merged) + 1))
    return merged


@pytest.fixture
def three_districts():
    return [
        district_instance(offset, seed=i) for i, offset in enumerate(OFFSETS)
    ]


class TestRouting:
    def test_per_session_latency_matches_standalone_runs(self, three_districts):
        solvers = ["AAM", "LAF", "AAM"]
        dispatcher = LTCDispatcher(keep_streams=True)
        ids = [
            dispatcher.submit_instance(instance, solver=solver)
            for instance, solver in zip(three_districts, solvers)
        ]
        dispatcher.feed_stream(merged_stream(three_districts))
        statuses = dispatcher.poll()
        assert len(statuses) == 3

        for session_id, instance, solver in zip(ids, three_districts, solvers):
            status = statuses[session_id]
            assert status.complete
            partition = dispatcher.routed_stream(session_id)
            standalone = build_solver(solver).open_session(instance).drive(partition)
            assert status.max_latency == standalone.max_latency
            assert status.max_latency > 0

    def test_geographic_partition_of_the_merged_stream(self, three_districts):
        dispatcher = LTCDispatcher(keep_streams=True)
        ids = [dispatcher.submit_instance(inst) for inst in three_districts]
        stream = merged_stream(three_districts)
        dispatcher.feed_stream(stream, stop_when_all_complete=False)

        # Districts are disjoint, so each session's routed sub-stream is its
        # own district's workers (in order, re-indexed 1..n).
        for session_id, instance in zip(ids, three_districts):
            partition = dispatcher.routed_stream(session_id)
            assert [w.index for w in partition] == list(
                range(1, len(partition) + 1)
            )
            assert all(
                w.location.distance_to(instance.tasks[0].location) < 100.0
                for w in partition
            )

    def test_complete_sessions_stop_receiving_workers(self, three_districts):
        instance = three_districts[0]
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(instance, solver="AAM")
        for worker in instance.workers:
            dispatcher.feed_worker(worker)
        status = dispatcher.poll()[session_id]
        assert status.complete
        # Feeding more traffic does not advance a completed session.
        routed_before = status.workers_routed
        dispatcher.feed_worker(replace(instance.workers[0], index=1))
        assert dispatcher.poll()[session_id].workers_routed == routed_before

    def test_unroutable_workers_are_counted(self, three_districts):
        dispatcher = LTCDispatcher()
        dispatcher.submit_instance(three_districts[0])
        faraway = Worker(index=1, location=Point(9000.0, 9000.0),
                         accuracy=0.9, capacity=2)
        assert dispatcher.feed_worker(faraway) == {}
        assert dispatcher.metrics.workers_unrouted == 1
        assert dispatcher.metrics.workers_fed == 1
        assert dispatcher.metrics.routed_fraction == 0.0


class TestLifecycle:
    def test_close_returns_the_solve_result(self, three_districts):
        instance = three_districts[0]
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(instance, solver="LAF")
        for worker in instance.workers:
            dispatcher.feed_worker(worker)
            if dispatcher.all_complete:
                break
        result = dispatcher.close(session_id)
        assert result.algorithm == "LAF"
        assert result.completed
        assert session_id not in dispatcher.session_ids
        assert dispatcher.metrics.sessions_closed == 1

    def test_close_all_in_submission_order(self, three_districts):
        dispatcher = LTCDispatcher()
        ids = [dispatcher.submit_instance(inst) for inst in three_districts]
        results = dispatcher.close_all()
        assert list(results) == ids
        assert dispatcher.session_ids == []

    def test_duplicate_and_unknown_session_ids(self, three_districts):
        dispatcher = LTCDispatcher()
        dispatcher.submit_instance(three_districts[0], session_id="alpha")
        with pytest.raises(DuplicateSessionError):
            dispatcher.submit_instance(three_districts[1], session_id="alpha")
        with pytest.raises(UnknownSessionError):
            dispatcher.close("beta")

    def test_auto_ids_and_default_solver(self, three_districts):
        dispatcher = LTCDispatcher(default_solver="LAF")
        first = dispatcher.submit_instance(three_districts[0])
        second = dispatcher.submit_instance(three_districts[1])
        assert first != second
        assert dispatcher.poll()[first].algorithm == "LAF"

    def test_prebuilt_solver_instances_are_accepted(self, three_districts):
        from repro.algorithms.aam import AAMSolver

        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(
            three_districts[0], solver=AAMSolver()
        )
        assert dispatcher.poll()[session_id].algorithm == "AAM"

    def test_shared_solver_object_rejected_at_submit(self, three_districts):
        from repro.algorithms.aam import AAMSolver

        dispatcher = LTCDispatcher()
        solver = AAMSolver()
        dispatcher.submit_instance(three_districts[0], solver=solver)
        with pytest.raises(ValueError, match="one solver per session"):
            dispatcher.submit_instance(three_districts[1], solver=solver)

    def test_offline_solvers_are_rejected(self, three_districts):
        # A replay session must be fed its instance's own stream, which a
        # dispatcher routing merged live traffic cannot guarantee.
        dispatcher = LTCDispatcher()
        with pytest.raises(ValueError, match="offline"):
            dispatcher.submit_instance(three_districts[0], solver="MCF-LTC")
        with pytest.raises(ValueError, match="offline"):
            LTCDispatcher(default_solver="Base-off").submit_instance(
                three_districts[0]
            )

    def test_routed_streams_need_opt_in(self, three_districts):
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(three_districts[0])
        with pytest.raises(RuntimeError):
            dispatcher.routed_stream(session_id)


class TestMetrics:
    def test_aggregate_counters(self, three_districts):
        dispatcher = LTCDispatcher()
        for instance in three_districts:
            dispatcher.submit_instance(instance)
        consumed = dispatcher.feed_stream(merged_stream(three_districts))
        metrics = dispatcher.metrics
        assert metrics.sessions_opened == 3
        assert metrics.sessions_completed == 3
        assert metrics.workers_fed == consumed
        assert metrics.workers_routed > 0
        assert metrics.assignments_made > 0
        assert metrics.busy_seconds > 0.0
        assert metrics.throughput_per_second > 0.0
        summary = metrics.summary()
        assert summary["workers_fed"] == float(consumed)
        assert 0.0 <= summary["routed_fraction"] <= 1.0


# --------------------------------------------------------------------------
# Reach-box routing: feed_worker skips a grid-mode session whose task box is
# out of the worker's radius before probing it.  Every test below checks the
# deliveries of each arrival against an unindexed oracle that probes
# ``has_candidates`` on every open, incomplete session.


def unindexed_targets(dispatcher, worker):
    """Sessions a dispatcher without the reach-box test would deliver to."""
    return {
        session_id
        for session_id, managed in dispatcher._sessions.items()
        if not managed.complete and managed.candidates.has_candidates(worker)
    }


def feed_checked(dispatcher, worker):
    """Feed one arrival and assert its deliveries match the oracle's."""
    expected = unindexed_targets(dispatcher, worker)
    deliveries = dispatcher.feed_worker(worker)
    assert set(deliveries) == expected
    return deliveries


def campaign(points, first_id=0, d_max=30.0, min_accuracy=0.66, model=None):
    """An instance over tasks at ``points``; the low error rate keeps it open."""
    return LTCInstance(
        tasks=[Task.at(first_id + i, x, y) for i, (x, y) in enumerate(points)],
        workers=[Worker.at(1, 0.0, 0.0, accuracy=0.9, capacity=2)],
        error_rate=0.01,
        accuracy_model=model or SigmoidDistanceAccuracy(d_max=d_max),
        min_assignable_accuracy=min_accuracy,
    )


def arrival(index, x, y, accuracy=0.9):
    return Worker.at(index, x, y, accuracy=accuracy, capacity=2)


class TestReachBoxRouting:
    def test_far_arrivals_are_rejected_without_probing(self, monkeypatch):
        from repro.core.candidates import CandidateFinder

        dispatcher = LTCDispatcher()
        for dx, dy in OFFSETS:
            dispatcher.submit_instance(campaign([(dx, dy), (dx + 10.0, dy)]))
        probes = []
        probe = CandidateFinder.has_candidates
        monkeypatch.setattr(
            CandidateFinder, "has_candidates",
            lambda self, worker: probes.append(worker) or probe(self, worker),
        )
        assert dispatcher.feed_worker(arrival(1, 9000.0, 9000.0)) == {}
        assert probes == []
        # A worker near one district probes that district's session only.
        assert len(dispatcher.feed_worker(arrival(2, 505.0, 0.0))) == 1
        assert len(probes) == 1

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_gap_exactly_at_the_radius_is_not_rejected(self, side):
        radius = sigmoid_eligibility_radius(0.9, 30.0, 0.66)
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(campaign([(0.0, 0.0)]))
        wx = side * radius
        assert (0.0 - wx) ** 2 == radius * radius
        assert session_id in feed_checked(dispatcher, arrival(1, wx, 0.0))
        beyond = math.nextafter(wx, side * math.inf)
        assert feed_checked(dispatcher, arrival(2, beyond, 0.0)) == {}
        assert feed_checked(dispatcher, arrival(3, 0.0, beyond)) == {}

    def test_infinite_radius_reaches_everywhere(self):
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(
            campaign([(0.0, 0.0)], min_accuracy=0.0)
        )
        engine = dispatcher._sessions[session_id].candidates.engine
        assert engine.mode == "grid"
        assert session_id in feed_checked(dispatcher, arrival(1, 1e6, -1e6))

    def test_generic_model_sessions_are_always_probed(self):
        from repro.core.accuracy import ConstantAccuracy

        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(
            campaign([(0.0, 0.0)], model=ConstantAccuracy(0.9))
        )
        assert dispatcher._sessions[session_id].reach_key is None
        assert session_id in feed_checked(dispatcher, arrival(1, 1e6, 1e6))

    def test_unreachable_threshold_skips_the_session(self):
        dispatcher = LTCDispatcher()
        dispatcher.submit_instance(campaign([(0.0, 0.0)], min_accuracy=0.9))
        # 0.8 / 0.9 - 1 < 0: a negative radius, no task is ever eligible.
        assert feed_checked(dispatcher, arrival(1, 0.0, 0.0, accuracy=0.8)) == {}

    def test_all_retired_then_rebuilt_then_regrown(self):
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(
            campaign([(0.0, 0.0), (5.0, 5.0)])
        )
        dispatcher.expire_tasks(session_id, [0, 1])
        engine = dispatcher._sessions[session_id].candidates.engine
        engine.rebuild_index()
        assert engine.task_bounds == (math.inf, math.inf, -math.inf, -math.inf)
        dispatcher.submit_tasks(session_id, [Task.at(10, 800.0, 800.0)])
        assert engine.task_bounds == (800.0, 800.0, 800.0, 800.0)
        assert feed_checked(dispatcher, arrival(1, 0.0, 0.0)) == {}
        assert session_id in feed_checked(dispatcher, arrival(2, 805.0, 800.0))

    @pytest.mark.parametrize("batch", [3, 100])
    def test_submit_far_outside_the_original_box(self, batch):
        # 3 tasks stay in the spill; 100 cross the rebuild threshold.
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(campaign([(0.0, 0.0)]))
        engine = dispatcher._sessions[session_id].candidates.engine
        builds = engine.grid_epoch
        dispatcher.submit_tasks(
            session_id,
            [Task.at(1 + i, 2000.0 + i, -1500.0) for i in range(batch)],
        )
        assert (engine.grid_epoch > builds) == (batch == 100)
        assert session_id in feed_checked(dispatcher, arrival(1, 2000.0, -1490.0))
        assert session_id in feed_checked(dispatcher, arrival(2, 5.0, 0.0))
        assert feed_checked(dispatcher, arrival(3, 1000.0, -700.0)) == {}

    def test_sessions_with_different_reach_parameters_share_an_arrival(self):
        dispatcher = LTCDispatcher()
        wide = dispatcher.submit_instance(campaign([(0.0, 0.0)]))
        wide_twin = dispatcher.submit_instance(campaign([(0.0, 0.0)]))
        narrow = dispatcher.submit_instance(campaign([(0.0, 0.0)], d_max=5.0))
        strict = dispatcher.submit_instance(
            campaign([(0.0, 0.0)], min_accuracy=0.85)
        )
        assert len({dispatcher._sessions[s].reach_key
                    for s in (wide, narrow, strict)}) == 3
        # Radii for accuracy 0.9: wide ~29.0, strict ~27.2, narrow ~4.0.
        assert set(feed_checked(dispatcher, arrival(1, 28.0, 0.0))) == {
            wide, wide_twin,
        }
        assert set(feed_checked(dispatcher, arrival(2, 0.0, -20.0))) == {
            wide, wide_twin, strict,
        }
        assert set(feed_checked(dispatcher, arrival(3, 2.0, 0.0))) == {
            wide, wide_twin, narrow, strict,
        }

    def test_adopted_sessions_still_route_exactly(self):
        donor, recipient = LTCDispatcher(), LTCDispatcher()
        moved = donor.submit_instance(
            campaign([(500.0, 0.0), (510.0, 0.0)]), session_id="moved"
        )
        stayed = recipient.submit_instance(
            campaign([(0.0, 0.0)]), session_id="stayed"
        )
        assert feed_checked(donor, arrival(1, 505.0, 0.0)) != {}
        assert recipient.adopt_sessions(donor) == [moved]
        assert set(feed_checked(recipient, arrival(1, 505.0, 3.0))) == {moved}
        assert set(feed_checked(recipient, arrival(2, 3.0, 0.0))) == {stayed}
        assert feed_checked(recipient, arrival(3, 250.0, 0.0)) == {}
        recipient.submit_tasks(moved, [Task.at(7, 500.0, 900.0)])
        assert set(feed_checked(recipient, arrival(4, 500.0, 905.0))) == {moved}
        assert recipient.poll()[moved].workers_routed == 3

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_operation_sequences_match_the_oracle(self, data):
        from repro.core.accuracy import ConstantAccuracy

        coordinate = st.one_of(
            st.sampled_from([0.0, 30.0, 60.0, 400.0]),
            st.floats(-100.0, 500.0, allow_nan=False),
        )
        point = st.tuples(coordinate, coordinate)
        dispatcher = LTCDispatcher()
        tasks = {}
        next_id = 0
        for session in range(data.draw(st.integers(1, 5))):
            points = data.draw(st.lists(point, min_size=1, max_size=4))
            model = data.draw(st.sampled_from(
                [None, SigmoidDistanceAccuracy(d_max=10.0), ConstantAccuracy(0.8)]
            ))
            session_id = dispatcher.submit_instance(
                campaign(points, first_id=next_id, model=model,
                         min_accuracy=data.draw(st.sampled_from([0.0, 0.66, 0.8]))),
                solver=data.draw(st.sampled_from(["AAM", "LAF"])),
            )
            tasks[session_id] = list(range(next_id, next_id + len(points)))
            next_id += len(points)
        sessions = st.sampled_from(sorted(tasks))
        for index in range(1, data.draw(st.integers(1, 25)) + 1):
            op = data.draw(st.sampled_from(["feed", "feed", "submit", "expire",
                                            "rebuild"]))
            if op == "submit":
                session_id = data.draw(sessions)
                points = data.draw(st.lists(point, min_size=1, max_size=8))
                dispatcher.submit_tasks(session_id, [
                    Task.at(next_id + i, x, y) for i, (x, y) in enumerate(points)
                ])
                tasks[session_id] += range(next_id, next_id + len(points))
                next_id += len(points)
            elif op == "expire":
                session_id = data.draw(sessions)
                dispatcher.expire_tasks(session_id, data.draw(
                    st.lists(st.sampled_from(tasks[session_id]), max_size=4)
                ))
            elif op == "rebuild":
                managed = dispatcher._sessions[data.draw(sessions)]
                managed.candidates.engine.rebuild_index()
            wx, wy = data.draw(point)
            accuracy = data.draw(st.sampled_from([0.7, 0.9, 1.0]))
            feed_checked(dispatcher, arrival(index, wx, wy, accuracy))
