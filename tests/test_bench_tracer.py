"""The benchmark's layer tracer (`perfbench/tracer.py`) still installs.

The tracer wraps public pgroups functions by name, so renaming or deleting
one of them breaks only a traced benchmark run, which no other test starts.
This runs one traced sweep in a fresh process and reads `perfbench/` only.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_SWEEP = """
import sys
sys.dont_write_bytecode = True  # leave no cache file under perfbench/
sys.path[:0] = [{src!r}, {bench!r}]
import pgroups.cli
from tracer import Tracer, install

tracer = Tracer()
install(tracer)
rc = pgroups.cli.run(["verify", "--p", "2", "--max-order", "16", "--claims", "all"])
# the oracle part's classify call and the profile route both went through a span
assert tracer.calls["classify.verdict"] > 0, dict(tracer.calls)
assert tracer.calls["invariance.fi_profile"] > 0, dict(tracer.calls)
sys.exit(rc)
"""


def test_tracer_installs_and_serves_a_sweep():
    script = TRACED_SWEEP.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.count('"claim_id"') == 21
