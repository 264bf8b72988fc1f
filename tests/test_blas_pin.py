"""Importing pgroups pins OpenBLAS to one thread, unless the caller chose a
thread count or numpy was loaded first.

Each case runs in a fresh process started with none of the thread-count
variables in its environment, since this process has loaded numpy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_REPORT = (
    "import json, os\n"
    "status = '/proc/self/status'\n"
    "threads = None\n"
    "if os.path.exists(status):\n"
    "    with open(status) as fh:\n"
    "        threads = next(int(l.split()[1]) for l in fh if l.startswith('Threads:'))\n"
    "print(json.dumps({'openblas': os.environ.get('OPENBLAS_NUM_THREADS'), 'threads': threads}))\n"
)


def _child(script: str, **env_vars) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_import_pins_openblas_to_one_thread():
    seen = _child("import pgroups.cli\n" + _REPORT)
    assert seen["openblas"] == "1"
    if seen["threads"] is None:
        pytest.skip("no /proc/self/status to count threads")
    assert seen["threads"] == 1


def test_a_short_run_spends_no_more_cpu_than_wall():
    # an idle OpenBLAS server thread spins for 0.1-0.2 s after numpy loads,
    # partly during the import, so the import and 0.1 s of requests after it
    # would read 1.3-2 times their wall time in CPU
    script = (
        "import contextlib, io, json, time\n"
        "cpu0, wall0 = time.process_time(), time.perf_counter()\n"
        "from pgroups.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    start = time.perf_counter()\n"
        "    while time.perf_counter() - start < 0.1:\n"
        "        assert run(['classify', '--p', '2', '--partition', '1,3']) == 0\n"
        "cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0\n"
        "print(json.dumps({'cpu': cpu, 'wall': wall}))\n"
    )
    took = _child(script)
    assert took["cpu"] <= 1.1 * took["wall"] + 0.005, took


@pytest.mark.parametrize("var", THREAD_VARS)
def test_a_callers_thread_count_wins(var):
    seen = _child("import pgroups.cli\n" + _REPORT, **{var: "2"})
    assert seen["openblas"] == ("2" if var == "OPENBLAS_NUM_THREADS" else None)


def test_numpy_imported_first_leaves_the_environment_alone():
    seen = _child("import numpy\nimport pgroups.cli\n" + _REPORT)
    assert seen["openblas"] is None
