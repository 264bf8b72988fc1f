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
import contextlib
import io
import json
import sys
sys.dont_write_bytecode = True  # leave no cache file under perfbench/
sys.path[:0] = [{src!r}, {bench!r}]
import pgroups.cli
from pgroups.core import format_shape
from pgroups.endos import endo_count
from pgroups.harness import build_corpus
from tracer import Tracer, install

tracer = Tracer()
install(tracer)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = pgroups.cli.run(["verify", "--p", "2", "--max-order", "16", "--claims", "all"])
sys.stdout.write(out.getvalue())
# the oracle part's classify call and the profile route both went through a span
assert tracer.calls["classify.verdict"] > 0, dict(tracer.calls)
assert tracer.calls["invariance.fi_profile"] > 0, dict(tracer.calls)
# the exhaustive scan went through the wrapped entry batches: every
# endomorphism of every shape whose closure ran, once
(oracle,) = [
    r for r in map(json.loads, out.getvalue().splitlines())
    if r["claim_id"] == "oracle-crosscheck"
]
skipped = set()
for note in oracle["notes"]:
    if note.startswith("closure-vs-filtered-endos: skipped"):
        skipped.update(note.split(": ")[-1].split(", "))
scanned = [s for s in build_corpus(2, 16).shapes if format_shape(s) not in skipped]
assert scanned, oracle["notes"]
assert tracer.calls["endos.endo_scan"] > 0, dict(tracer.calls)
want = sum(endo_count(s) for s in scanned)
assert tracer.counts["endos.endo_scan"] == want, (dict(tracer.counts), want)
sys.exit(rc)
"""


def test_tracer_installs_and_serves_a_sweep():
    script = TRACED_SWEEP.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.count('"claim_id"') == 21
