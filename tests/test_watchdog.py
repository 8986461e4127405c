"""The suite's fallback watchdog: a wedged test fails the run, not hangs it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_wedged_test_ends_the_run_without_pytest_timeout(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.pytest.ini_options]\ntimeout = 1\n"
    )
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    # The worker process inherits the run's stdout pipe, as forked shard
    # workers do; the run only ends for the caller once it is gone too.
    (tmp_path / "test_wedge.py").write_text(
        "import multiprocessing\nimport time\n\n\n"
        "def test_wedge():\n"
        "    multiprocessing.Process(target=time.sleep, args=(60,)).start()\n"
        "    time.sleep(60)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
    )
    # Without the watchdog the child sleeps past this timeout and raises.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:timeout",
         "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=50,
    )
    assert proc.returncode != 0
    assert "test_wedge.py::test_wedge exceeded the 1 s cap" in proc.stderr
    # The dump names the stuck frame.
    assert 'in test_wedge' in proc.stderr
