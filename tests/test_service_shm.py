"""Shared-memory snapshot layer: lifecycle, fallback, and no-leak pins.

The process executor ships task batches to shard workers as
shared-memory blocks (:mod:`repro.service.sharding.shm`).  The contract
pinned here:

* an export/attach round trip rebuilds the exact ``Task`` sequence —
  including the pickled sidecar for non-default description/metadata;
* the **parent owns every segment**: after a submit is acknowledged, a
  drain/stop, a recovery replay, or an exception mid-export, no segment
  it created may remain linked (probed by name via
  :func:`~repro.service.sharding.shm.segment_exists`, which attaches
  without registering with the resource tracker);
* growing a session via ``submit_tasks`` re-exports a fresh snapshot —
  the worker serves the new tasks byte-identically to single-process;
* without numpy the same API degrades to inline pickle (``mode ==
  "inline"``, no segment), and without a working multiprocessing
  context the sharded dispatcher degrades to the serial executor with a
  ``RuntimeWarning``.
"""

import pytest

from repro.core.task import Task
from repro.geo.point import Point
from repro.service import (
    FaultPlan,
    LTCDispatcher,
    RecoveryPolicy,
    ShardedDispatcher,
    ShardPlan,
)
from repro.service.loadgen import ReplayConfig, build_workload
from repro.service.sharding import shm

CONFIG = ReplayConfig(
    seed=31,
    city_cols=2,
    city_rows=1,
    city_spacing=1000.0,
    city_radius=50.0,
    campaigns_per_city=2,
    tasks_per_campaign=5,
    num_workers=700,
    worker_spread=1.4,
    error_rate=0.15,
    capacity=2,
)


@pytest.fixture(scope="module")
def workload():
    return build_workload(CONFIG)


@pytest.fixture
def segment_log(monkeypatch):
    """Record the name of every segment *created* by this process."""
    created = []
    real = shm._shared_memory.SharedMemory

    class Recording(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create", False):
                created.append(self.name)

    monkeypatch.setattr(shm._shared_memory, "SharedMemory", Recording)
    return created


def make_tasks(count, with_extras=False):
    tasks = []
    for index in range(count):
        tasks.append(
            Task(
                task_id=1000 + index,
                location=Point(10.0 * index, -3.5 * index),
                true_answer=1 if index % 2 == 0 else -1,
                description=f"task {index}" if with_extras and index % 3 == 0
                else "",
                metadata={"hot": True} if with_extras and index % 4 == 0
                else {},
            )
        )
    return tasks


# ------------------------------------------------------------ round trips


def test_export_attach_roundtrip_is_exact():
    tasks = make_tasks(17)
    handle, block = shm.export_tasks(tasks)
    try:
        assert handle.mode == "shm"
        assert handle.count == 17
        assert handle.sidecar is None
        assert shm.attach_tasks(handle) == tasks
    finally:
        block.release()


def test_sidecar_preserves_description_and_metadata():
    tasks = make_tasks(9, with_extras=True)
    handle, block = shm.export_tasks(tasks)
    try:
        assert handle.mode == "shm"
        assert handle.sidecar is not None
        assert shm.attach_tasks(handle) == tasks
    finally:
        block.release()


def test_empty_batch_travels_inline():
    handle, block = shm.export_tasks([])
    assert handle.mode == "inline"
    assert block is None
    assert shm.attach_tasks(handle) == []


def test_pickle_fallback_without_numpy(monkeypatch):
    monkeypatch.setattr(shm, "np", None)
    tasks = make_tasks(6, with_extras=True)
    handle, block = shm.export_tasks(tasks)
    assert handle.mode == "inline"
    assert block is None
    assert shm.attach_tasks(handle) == tasks


# ---------------------------------------------------------------- lifecycle


def test_release_unlinks_and_is_idempotent():
    handle, block = shm.export_tasks(make_tasks(4))
    name = handle.shm_name
    assert shm.segment_exists(name)
    block.release()
    assert not shm.segment_exists(name)
    block.release()  # second release is a no-op, not an error


def test_exception_mid_export_leaks_no_segment(monkeypatch, segment_log):
    def boom(tasks):
        raise RuntimeError("sidecar failure")

    monkeypatch.setattr(shm, "_sidecar_fields", boom)
    with pytest.raises(RuntimeError, match="sidecar failure"):
        shm.export_tasks(make_tasks(5))
    assert segment_log, "export should have created a segment before failing"
    assert all(not shm.segment_exists(name) for name in segment_log)


# ------------------------------------------------- end-to-end no-leak pins


def run_process_sharded(workload, faults=None, policy=None):
    plan = ShardPlan.for_region(CONFIG.bounds, cols=2, rows=1)
    dispatcher = ShardedDispatcher(
        plan,
        executor="process",
        queue_capacity=4096,
        keep_streams=True,
        recovery=policy if policy is not None else RecoveryPolicy(),
        faults=faults,
    )
    ids = [dispatcher.submit_instance(c) for c in workload.campaigns]
    dispatcher.feed_stream(workload.worker_stream())
    dispatcher.drain()
    streams = {sid: dispatcher.routed_stream(sid) for sid in ids}
    results = dispatcher.close_all()
    dispatcher.stop()
    return ids, streams, results


def test_no_segment_survives_a_clean_run(workload, segment_log):
    run_process_sharded(workload)
    assert segment_log, "a process-executor run must export snapshots"
    assert all(not shm.segment_exists(name) for name in segment_log)


def test_no_segment_survives_crash_recovery(workload, segment_log):
    faults = FaultPlan.seeded(
        seed=13, shard_ids=[0, 1], max_arrival=120, crashes=2
    )
    run_process_sharded(
        workload,
        faults=faults,
        policy=RecoveryPolicy(on_shard_failure="restart"),
    )
    # Recovery re-exported the journal prefix into fresh blocks; every
    # one of them (and every submit-time block) must be gone.
    assert all(not shm.segment_exists(name) for name in segment_log)


# ------------------------------------------------------- grow on submit


def test_submit_tasks_re_exports_and_stays_exact(workload, segment_log):
    """Growing a session mid-stream re-exports a fresh snapshot.

    The added tasks must flow into the worker process and be served
    byte-identically to a single-process dispatcher doing the same
    submit at the same stream position.
    """
    cutoff = CONFIG.num_workers // 2
    grown = [
        Task(task_id=900000 + i, location=campaign.tasks[0].location,
             true_answer=1 if i % 2 == 0 else -1)
        for i, campaign in enumerate(workload.campaigns)
    ]

    def drive(dispatcher, sharded):
        ids = [dispatcher.submit_instance(c, solver="AAM")
               for c in workload.campaigns]
        for worker in workload.worker_stream():
            if worker.index > cutoff:
                break
            dispatcher.feed_worker(worker)
        if sharded:
            dispatcher.drain()
        for sid, task in zip(ids, grown):
            dispatcher.submit_tasks(sid, [task])
        for worker in workload.worker_stream():
            if worker.index <= cutoff:
                continue
            dispatcher.feed_worker(worker)
        if sharded:
            dispatcher.drain()
            dispatcher.stop()
        return ids, dispatcher.close_all()

    base_ids, base_results = drive(LTCDispatcher(), sharded=False)
    plan = ShardPlan.for_region(CONFIG.bounds, cols=2, rows=1)
    exports_before = len(segment_log)
    shard_ids, shard_results = drive(
        ShardedDispatcher(plan, executor="process", queue_capacity=4096),
        sharded=True,
    )
    assert len(segment_log) > exports_before + len(grown) - 1
    for base_id, shard_id in zip(base_ids, shard_ids):
        assert (
            base_results[base_id].arrangement.assignments
            == shard_results[shard_id].arrangement.assignments
        )
    assert all(not shm.segment_exists(name) for name in segment_log)


# ----------------------------------------------------- graceful degradation


def test_degrades_to_serial_executor_with_a_warning(monkeypatch, workload):
    monkeypatch.setattr(
        "repro.service.sharding.dispatcher.process_executor_available",
        lambda: False,
    )
    plan = ShardPlan.for_region(CONFIG.bounds, cols=2, rows=1)
    with pytest.warns(RuntimeWarning, match="degrading to the serial"):
        dispatcher = ShardedDispatcher(plan, executor="process")
    assert dispatcher.executor == "serial"
    ids = [dispatcher.submit_instance(c) for c in workload.campaigns]
    dispatcher.feed_stream(workload.worker_stream())
    dispatcher.drain()
    results = dispatcher.close_all()
    dispatcher.stop()
    assert set(results) == set(ids)


def test_degraded_executor_restarts_crashed_shards_exactly(
    monkeypatch, workload, segment_log
):
    """The serial fallback keeps journal-replay restarts.

    Crashes under the degraded runtime are replayed from each shard's
    journal, so the arrangements match a fault-free process run; and the
    degraded runtime never exports a shared-memory segment.
    """
    base_ids, base_streams, base_results = run_process_sharded(workload)
    exports_before = len(segment_log)
    monkeypatch.setattr(
        "repro.service.sharding.dispatcher.process_executor_available",
        lambda: False,
    )
    faults = FaultPlan.seeded(
        seed=13, shard_ids=[0, 1], max_arrival=120, crashes=2
    )
    with pytest.warns(RuntimeWarning, match="degrading to the serial"):
        ids, streams, results = run_process_sharded(
            workload,
            faults=faults,
            policy=RecoveryPolicy(on_shard_failure="restart"),
        )
    assert len(segment_log) == exports_before
    assert len(ids) == len(base_ids)
    for base_id, sid in zip(base_ids, ids):
        assert streams[sid] == base_streams[base_id]
        assert (
            results[sid].arrangement.assignments
            == base_results[base_id].arrangement.assignments
        )
