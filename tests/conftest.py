"""Shared fixtures for the LTC reproduction test-suite."""

from __future__ import annotations

import faulthandler
import multiprocessing
import os
import sys
import threading
from typing import Tuple

import numpy as np
import pytest

from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
from repro.core.examples import running_example_instance
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_instance
from repro.geo.point import Point


#: ``(cap in seconds, private copy of the real stderr)`` for the watchdog
#: armed when ``pytest-timeout`` is absent.
_WATCHDOG = pytest.StashKey[Tuple[float, int]]()

#: How long after the cap the faulthandler last resort fires, for when the
#: interpreter itself is stuck and the watchdog thread never runs.
_LAST_RESORT_S = 15.0


def pytest_configure(config: pytest.Config) -> None:
    """Without ``pytest-timeout``, still end a wedged test run.

    ``pytest-timeout`` reads the ``timeout`` key of ``pyproject.toml``;
    when the plugin is not installed the same cap arms a watchdog per
    test that dumps every thread's stack, kills the test's worker
    processes and exits, so a deadlock fails the run instead of hanging
    it.
    """
    raw = config.inicfg.get("timeout")
    if raw is None or config.pluginmanager.hasplugin("timeout"):
        return
    if float(raw) <= 0:  # pytest-timeout's "no cap"
        return
    # Output capture is suspended while plugins configure, so this is
    # the terminal's stderr rather than a per-test capture file.
    config.stash[_WATCHDOG] = (float(raw), os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config: pytest.Config) -> None:
    watchdog = config.stash.get(_WATCHDOG, None)
    if watchdog is not None:
        os.close(watchdog[1])


def _expire(nodeid: str, timeout: float, fd: int) -> None:
    os.write(fd, f"\n{nodeid} exceeded the {timeout:g} s cap\n".encode())
    faulthandler.dump_traceback(file=fd, all_threads=True)
    # Forked shard workers share the run's stdout; left alive they keep
    # a caller reading that pipe waiting after this process is gone.
    for child in multiprocessing.active_children():
        child.kill()
    os._exit(1)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    watchdog = item.config.stash.get(_WATCHDOG, None)
    if watchdog is None:
        yield
        return
    timeout, fd = watchdog
    timer = threading.Timer(timeout, _expire, (item.nodeid, timeout, fd))
    timer.daemon = True
    timer.start()
    faulthandler.dump_traceback_later(
        timeout + _LAST_RESORT_S, exit=True, file=fd
    )
    try:
        yield
    finally:
        timer.cancel()
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def running_example() -> LTCInstance:
    """The paper's Tables I/II running example (3 tasks, 8 workers, eps=0.2)."""
    return running_example_instance()


@pytest.fixture
def tiny_instance() -> LTCInstance:
    """A 2-task / 6-worker instance with constant accuracy 0.9 (Acc* = 0.64).

    delta = 2*ln(1/0.2) ~= 3.22, so each task needs ceil(3.22 / 0.64) = 6
    assignments worth of work in total across both tasks; with K = 2 the
    instance is comfortably feasible.
    """
    tasks = [Task.at(0, 0.0, 0.0), Task.at(1, 5.0, 0.0)]
    workers = [
        Worker.at(index, float(index), 1.0, accuracy=0.9, capacity=2)
        for index in range(1, 7)
    ]
    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=0.2,
        accuracy_model=ConstantAccuracy(0.9),
        name="tiny constant-accuracy instance",
    )


@pytest.fixture(scope="session")
def small_synthetic_instance() -> LTCInstance:
    """A small but realistic synthetic instance shared across tests.

    Session-scoped because generation plus repeated solving would otherwise
    dominate the suite's runtime; tests must not mutate it.
    """
    config = SyntheticConfig(
        num_tasks=40,
        num_workers=700,
        capacity=6,
        error_rate=0.14,
        grid_size=130.0,
        seed=101,
        name="test synthetic",
    )
    return generate_synthetic_instance(config)


@pytest.fixture
def sigmoid_model() -> SigmoidDistanceAccuracy:
    """The paper's accuracy model with the default d_max = 30."""
    return SigmoidDistanceAccuracy(d_max=30.0)


def make_worker(index: int, x: float, y: float, accuracy: float = 0.9,
                capacity: int = 2) -> Worker:
    """Helper used by several test modules."""
    return Worker(index=index, location=Point(x, y), accuracy=accuracy,
                  capacity=capacity)


def make_task(task_id: int, x: float, y: float) -> Task:
    """Helper used by several test modules."""
    return Task(task_id=task_id, location=Point(x, y))
