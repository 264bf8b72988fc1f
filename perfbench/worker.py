"""One benchmark pass in a fresh process.

Reads a JSON job from stdin: ``{"src": DIR, "requests": [argv, ...],
"trace": bool}``.  Imports pgroups from DIR, serves each request through
``pgroups.cli.run(argv)`` in order (a closed loop with one client), and
prints one JSON object: the import time, each request's exit code, latency
and captured stdout, the pass's wall and CPU time, the median time of the
calibration loop, the process's peak RSS and, when traced, the per-layer
spans and counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

SAMPLE_EVERY_S = 0.05


def calibration_loop(n: int = 4_500) -> int:
    """Fixed pure-Python work (big-int bit tricks, list and set access)."""
    row = list(range(256))
    full = (1 << 192) - 1
    mask = full
    seen = set()
    acc = 0
    for i in range(n):
        low = mask & -mask
        acc += row[(low.bit_length() + i) & 255]
        mask ^= low
        if not mask:
            mask = full ^ i
        seen.add(acc & 1023)
    return acc + len(seen)


class SpeedSampler:
    """Times `calibration_loop` every SAMPLE_EVERY_S of wall time.

    The samples show how fast this core runs while the requests do, and
    `spent` lets the caller take the sampler's own time out of its timings.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        calibration_loop()
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    started = time.perf_counter()
    import pgroups.cli
    import pgroups.core

    import_s = time.perf_counter() - started

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    results = []
    with SpeedSampler() as sampler:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        spent0 = sampler.spent
        for argv in job["requests"]:
            out = io.StringIO()
            t0 = time.perf_counter()
            spent = sampler.spent
            try:
                with contextlib.redirect_stdout(out):
                    rc = pgroups.cli.run(argv)
                error = None
            except Exception:  # reported as a failed request, the pass goes on
                rc = None
                error = traceback.format_exc()
            took = time.perf_counter() - t0 - (sampler.spent - spent)
            results.append(
                {
                    "argv": argv,
                    "rc": rc,
                    "ms": took * 1000.0,
                    "stdout": out.getvalue(),
                    "error": error,
                }
            )
        sampling = sampler.spent - spent0
        wall_s = time.perf_counter() - wall0 - sampling
        cpu_s = time.process_time() - cpu0 - sampling
    doc = {
        "import_s": import_s,
        "calibration_s": statistics.median(sampler.samples),
        "pgroups_file": pgroups.cli.__file__,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": results,
    }
    if tracer is not None:
        doc["self_s"] = dict(tracer.self_s)
        doc["calls"] = dict(tracer.calls)
        doc["counts"] = dict(tracer.counts)
        # the wrapper hides cache_info, so read it from the original
        doc["carriers_built"] = pgroups.core.carrier.__wrapped__.cache_info().misses
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
