import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# the bundled configs that acceptance criteria 4 and 5 train, by test
RUNS = {
    "test_criterion_4_acoustic_delay_reproduction": (
        "acoustic_delay_task", "acoustic_delay_input_only", "acoustic_delay_output_only"),
    "test_criterion_5_optical_plant_properties": ("optical_labels",),
}


def pytest_collection_modifyitems(items):
    # the tests that wait on the bundled runs go last, so every other test runs while they train
    items.sort(key=lambda item: item.name in RUNS)


def run_config(name, root, t_submit):
    """`echotrain run` of a bundled config in a child process with BLAS pinned
    to one thread: (its output dir, seconds from t_submit to the child's exit).
    Each writes what a serial run writes."""
    import echotrain

    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (str(Path(echotrain.__file__).parent.parent),
                                                      os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "echotrain", "run", "--config", name, "--out", str(root / name)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        # the run yields the CPU to the tests that run meanwhile and takes what
        # they leave; the criteria that read it come last
        os.setpriority(os.PRIO_PROCESS, proc.pid, 10)
        assert proc.wait(timeout=900) == 0, f"{name} run failed"
    finally:
        proc.kill()  # a no-op once it has exited
        proc.wait()
    return root / name, time.perf_counter() - t_submit


@pytest.fixture(scope="session", autouse=True)
def bundled_runs(request, tmp_path_factory):
    """test -> config name -> future of run_config, for every selected test in
    RUNS; the runs start at the session's first test, in one pool of two workers."""
    selected = {item.name for item in request.session.items}
    tests = [test for test in RUNS if test in selected]
    root = tmp_path_factory.mktemp("runs") if tests else None
    with ThreadPoolExecutor(max_workers=2) as pool:  # each thread waits on one child
        yield {test: {name: pool.submit(run_config, name, root, time.perf_counter())
                      for name in RUNS[test]} for test in tests}
