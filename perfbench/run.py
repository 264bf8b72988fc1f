#!/usr/bin/env python3
"""Benchmark for pgroups: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh worker process (`worker.py`) that imports pgroups
from `src/` and serves its requests through `pgroups.cli.run(argv)`: a closed
loop with one client, `--jobs 1`, default caps (every `PGROUPS_*` variable is
removed from the worker's environment).  Passes repeat until `--seconds` have
gone by, so every pass starts with cold in-process caches.  Each output is
checked against `expected.json`, recorded at the commit that added this
benchmark; `runtime_ms` and the oracle-skip notes are not compared.

Workloads (each corpus is every shape of order <= max order):

* `sweep-p2`: `verify --p 2 --max-order 32 --claims all`.  Every layer runs;
  the oracle cross-check (aut closures, exhaustive endomorphism scans) does
  most of the work.  The acceptance sweep (max order 256) takes over two
  minutes, longer than a whole benchmark run may, so this is its
  order <= 32 slice.
* `classify`: one `classify` request per shape of p=2 up to order 128, p=3
  up to 243 and p=5 up to 625 (73 requests), in an order shuffled by the
  seed.  Subgroup enumeration and char/fi flagging do nearly all the work;
  the endomorphism oracles do none.  2:1^8 (order 256) is left out because it
  alone takes about 40 s; 2:1^7 keeps the enumeration-bound tail.
* `sweep-p3-cached`: set-up fills a fresh `--cache` directory with
  `verify --p 3 --max-order 243 --claims defs-implications`; each pass then
  runs `verify --p 3 --max-order 243 --claims all` against it, so every
  lattice is read from the cache and none is enumerated.  The only workload
  with an odd prime and the only one that reads the cache.

End-to-end metrics (`--trace 0`): `wall_s` and `cpu_s` are the median pass
(all of a pass's requests, import excluded); `req_p50_ms` and `req_p90_ms`
are over every request of the run, where a request is one `cli.run` call (one
`verify` for the sweeps); `peak_rss_mb` is the median worker peak RSS;
`setup_s` is the median worker import time, plus the cache fill on
`sweep-p3-cached`.  `failed` over `attempted` is the failed fraction.

Times are given at a reference core speed.  On a shared host the speed of a
core drifts by a third and more over seconds to minutes, which would swamp
the differences the benchmark is meant to show.  So while its requests run,
each worker times a short fixed pure-Python loop (`worker.calibration_loop`)
every 50 ms, takes that time back out of its own timings, and every time it
measured is multiplied by `REFERENCE_CALIBRATION_S` over the loop's median
time; import times are the exception.  The unscaled figures and the loop's
median time in each pass are printed too, as JSON on the `detail` line just
before the result, so the correction can be checked.

`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see `tracer.py`) together with the tracing
overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = BENCH / "expected.json"

# The most one run may take, set-up included; requests still running then
# count as failed.
RUN_LIMIT_S = 60.0
CACHE_FILLS = 3
# Typical time of worker.calibration_loop on the host that recorded the
# baseline; timings are scaled by it over the time measured in each worker.
REFERENCE_CALIBRATION_S = 0.001

SKIP_PARTS = ("char-flag-vs-closure", "closure-vs-filtered-endos", "fi-flag-vs-random-endos")
SKIP_NOTE = re.compile(r"^([\w-]+): skipped on (\d+) of \d+ shapes")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer counters that must come out the same on every traced pass.
COUNTERS = (
    "lattice.subgroups",
    "invariance.char_tests",
    "invariance.fi_tests",
    "endos.closure_elements",
    "endos.endos_scanned",
    "cache.hits",
    "cache.misses",
    "core.carriers_built",
    "setup.cache.misses",
) + tuple(f"harness.oracle_skips.{part}" for part in SKIP_PARTS)

PER_LAYER_UNITS = {
    "lattice.enumerate_s": "s",
    "lattice.subgroups": "count",
    "invariance.char_test_s": "s",
    "invariance.char_tests": "count",
    "invariance.fi_test_s": "s",
    "invariance.fi_tests": "count",
    "invariance.char_tests_per_subgroup": "ratio",
    "invariance.fi_profile_s": "s",
    "endos.aut_closure_s": "s",
    "endos.closure_elements": "count",
    "endos.endo_scan_s": "s",
    "endos.endos_scanned": "count",
    "harness.lattice_build_s": "s",
    "harness.claims_self_s": "s",
    **{f"harness.oracle_skips.{part}": "count" for part in SKIP_PARTS},
    "cache.load_s": "s",
    "cache.save_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "classify.verdict_s": "s",
    "core.carrier_s": "s",
    "core.carriers_built": "count",
    "cli.stdout_bytes": "bytes",
    "setup.cache.save_s": "s",
    "setup.cache.misses": "count",
    "setup.lattice.enumerate_s": "s",
    "trace.overhead_s": "s",
}


# ---- workloads -----------------------------------------------------------------


def _partitions(total: int, smallest: int = 1):
    if total == 0:
        yield ()
        return
    for part in range(smallest, total + 1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def corpus(prime: int, max_order: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every shape of order <= max_order.  Built here rather than with
    pgroups.build_corpus so the inputs do not depend on the code under test."""
    shapes = []
    total = 1
    while prime ** total <= max_order:
        shapes.extend((prime, part) for part in _partitions(total))
        total += 1
    return shapes


def verify_argv(prime: int, max_order: int, claims: str, cache: Optional[str] = None) -> list[str]:
    argv = ["verify", "--p", str(prime), "--max-order", str(max_order)]
    argv += ["--claims", claims, "--jobs", "1"]
    if cache is not None:
        argv += ["--cache", cache]
    return argv


CLASSIFY_CORPORA = ((2, 128), (3, 243), (5, 625))


def classify_requests() -> list[list[str]]:
    return [
        ["classify", "--p", str(p), "--partition", ",".join(map(str, exps))]
        for prime, max_order in CLASSIFY_CORPORA
        for p, exps in corpus(prime, max_order)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    # (rng, cache dir or None) -> the requests of one pass
    requests: Callable[[random.Random, Optional[str]], list[list[str]]]
    # cache dir -> the requests that fill it; None for no cache
    fill: Optional[Callable[[str], list[list[str]]]] = None


def _shuffled(requests: list[list[str]], rng: random.Random) -> list[list[str]]:
    requests = list(requests)
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-p2", lambda rng, cache: [verify_argv(2, 32, "all")]),
        Workload("classify", lambda rng, cache: _shuffled(classify_requests(), rng)),
        Workload(
            "sweep-p3-cached",
            lambda rng, cache: [verify_argv(3, 243, "all", cache)],
            fill=lambda cache: [verify_argv(3, 243, "defs-implications", cache)],
        ),
    )
}


# ---- passes --------------------------------------------------------------------


def worker_env() -> dict:
    """The caller's environment without pgroups settings or a foreign path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGROUPS_")}
    env.pop("PYTHONPATH", None)
    return env


class PassTimeout(Exception):
    pass


def run_pass(requests: list[list[str]], trace: bool, timeout: float) -> dict:
    """Serve `requests` in a fresh worker process; its JSON report."""
    job = json.dumps({"src": str(SRC), "requests": requests, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=job,
            capture_output=True,
            text=True,
            env=worker_env(),
            cwd=str(ROOT),
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassTimeout(f"pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    doc = json.loads(proc.stdout)
    if not Path(doc["pgroups_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"worker imported pgroups from {doc['pgroups_file']}")
    return doc


# ---- output checks -------------------------------------------------------------


def verify_key(argv: list[str]) -> str:
    """expected.json key of a verify request: prime, max order, claims."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return f"{opts['--p']}:{opts['--max-order']}:{opts['--claims']}"


def check_request(req: dict, expected: dict) -> Optional[str]:
    """None if the request's output is what this commit printed, else why not."""
    argv = req["argv"]
    if req["rc"] != 0:
        return f"exit code {req['rc']}{(': ' + req['error']) if req['error'] else ''}"
    if argv[0] == "classify":
        key = f"{argv[2]}:{argv[4]}"
        try:
            got = json.loads(req["stdout"])
        except ValueError:
            return "classify output is not JSON"
        return None if got == expected["classify"].get(key) else f"verdict for {key} differs"
    want = expected["verify"][verify_key(argv)]
    try:
        reports = {r["claim_id"]: r for r in map(json.loads, req["stdout"].splitlines())}
    except (ValueError, KeyError):
        return "verify output is not one JSON report per line"
    for cid, exp in want.items():
        got = reports.get(cid)
        if got is None:
            return f"claim {cid} missing"
        if got["shapes_checked"] != exp["shapes_checked"]:
            return f"{cid}: shapes_checked {got['shapes_checked']} != {exp['shapes_checked']}"
    for cid, got in reports.items():
        ok = ("out-of-scope",) if want.get(cid, {}).get("out_of_scope") else ("pass", "adapted")
        if got["status"] not in ok or got["total_violations"] != 0:
            return f"{cid}: status {got['status']}, {got['total_violations']} violations"
    return None


# ---- metrics -------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _verify_reports(doc: dict) -> list[dict]:
    return [
        json.loads(line)
        for req in doc["requests"]
        if req["argv"][0] == "verify" and req["rc"] == 0
        for line in req["stdout"].splitlines()
    ]


def layer_metrics(doc: dict) -> dict:
    """Per-layer figures of one traced pass, times at the reference speed."""
    s, calls, counts = doc["self_s"], doc["calls"], doc["counts"]

    def t(layer):
        return s.get(layer, 0.0)

    def n(layer):
        return calls.get(layer, 0)

    def k(layer):
        return counts.get(layer, 0)

    reports = _verify_reports(doc)
    skipped = {part: 0 for part in SKIP_PARTS}
    for rep in reports:
        if rep["claim_id"] == "oracle-crosscheck":
            for note in rep["notes"]:
                m = SKIP_NOTE.match(note)
                if m and m.group(1) in skipped:
                    skipped[m.group(1)] += int(m.group(2))
    in_play = k("lattice.enumerate") + k("cache.subgroups_loaded")
    build_s = t("harness.lattice_build")
    runtime_s = sum(rep["runtime_ms"] for rep in reports) / 1000.0
    out = {
        "lattice.enumerate_s": t("lattice.enumerate"),
        "lattice.subgroups": k("lattice.enumerate"),
        "invariance.char_test_s": t("invariance.char_test"),
        "invariance.char_tests": n("invariance.char_test"),
        "invariance.fi_test_s": t("invariance.fi_test"),
        "invariance.fi_tests": n("invariance.fi_test"),
        "invariance.char_tests_per_subgroup": (
            n("invariance.char_test") / in_play if in_play else 0.0
        ),
        "invariance.fi_profile_s": t("invariance.fi_profile"),
        "endos.aut_closure_s": t("endos.aut_closure"),
        "endos.closure_elements": k("endos.aut_closure"),
        "endos.endo_scan_s": t("endos.endo_scan"),
        "endos.endos_scanned": k("endos.endo_scan"),
        "harness.lattice_build_s": build_s,
        # runtime_ms charges a lattice build to the first claim that asks for it
        "harness.claims_self_s": runtime_s - build_s if reports else 0.0,
        "cache.load_s": t("cache.load"),
        "cache.save_s": t("cache.save"),
        "cache.hits": k("cache.load"),
        "cache.misses": n("cache.load") - k("cache.load"),
        "classify.verdict_s": t("classify.verdict"),
        "core.carrier_s": t("core.carrier"),
        "core.carriers_built": doc["carriers_built"],
        "cli.stdout_bytes": sum(len(r["stdout"].encode()) for r in doc["requests"]),
    }
    for part, count in skipped.items():
        out[f"harness.oracle_skips.{part}"] = count
    factor = speed_factor(doc)
    return {name: v * factor if name.endswith("_s") else v for name, v in out.items()}


@dataclass
class RunState:
    expected: dict
    deadline: float
    attempted: int = 0
    failures: list = field(default_factory=list)

    def pass_(self, requests: list[list[str]], trace: bool) -> Optional[dict]:
        """One checked pass; None once the run is out of time."""
        self.attempted += len(requests)
        try:
            doc = run_pass(requests, trace, max(1.0, self.deadline - time.perf_counter()))
        except PassTimeout as exc:
            self.failures.extend([str(exc)] * len(requests))
            return None
        for req in doc["requests"]:
            why = check_request(req, self.expected)
            if why is not None:
                self.failures.append(f"{' '.join(req['argv'])}: {why}")
        return doc


def speed_factor(doc: dict) -> float:
    """Scales a worker's times to the reference core speed."""
    return REFERENCE_CALIBRATION_S / doc["calibration_s"]


def end_to_end(plain: list[dict], setup: list[tuple[float, float, dict]], scaled: bool) -> dict:
    def k(doc):
        return speed_factor(doc) if scaled else 1.0

    latencies = [r["ms"] * k(d) for d in plain for r in d["requests"]]
    return {
        "wall_s": statistics.median(d["wall_s"] * k(d) for d in plain),
        "cpu_s": statistics.median(d["cpu_s"] * k(d) for d in plain),
        "req_p50_ms": percentile(latencies, 50),
        "req_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(d["rss_mb"] for d in plain),
        # importing is mostly loading files, which the calibration loop does
        # not track, so only the fill is scaled
        "setup_s": statistics.median(imp + fill * k(d) for imp, fill, d in setup),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, expected: dict):
    """(attempted, failure messages, metrics, detail).

    Without tracing, detail holds the unscaled end-to-end metrics and the
    calibration loop's median time in each measured pass."""
    started = time.perf_counter()
    state = RunState(expected, started + RUN_LIMIT_S)
    rng = random.Random(seed)
    setup: list[tuple[float, float, dict]] = []  # (import s, fill s, worker report)
    setup_traced: list[dict] = []
    cache = None
    if workload.fill is not None:
        for i in range(CACHE_FILLS):
            cache = str(WORK / f"cache-{os.getpid()}-{i}")
            doc = state.pass_(workload.fill(cache), trace)
            if doc is None:
                break
            setup.append((doc["import_s"], doc["wall_s"], doc))
            if trace:
                setup_traced.append(layer_metrics(doc))
    plain: list[dict] = []
    traced: list[dict] = []
    measure_until = time.perf_counter() + seconds
    while time.perf_counter() < measure_until or not plain or (trace and not traced):
        use_trace = trace and len(plain) > len(traced)
        doc = state.pass_(workload.requests(rng, cache), use_trace)
        if doc is None:
            break
        (traced if use_trace else plain).append(doc)
        if workload.fill is None:
            setup.append((doc["import_s"], 0.0, doc))
    if not plain or not setup or (trace and not traced):
        return state.attempted, state.failures, {}, {}
    if not trace:
        detail = {
            "unscaled": end_to_end(plain, setup, scaled=False),
            "calibration_s": [d["calibration_s"] for d in plain],
        }
        return state.attempted, state.failures, end_to_end(plain, setup, scaled=True), detail

    layers = [layer_metrics(doc) for doc in traced]
    setup_layers = [
        {
            "setup.cache.save_s": d["cache.save_s"],
            "setup.cache.misses": d["cache.misses"],
            "setup.lattice.enumerate_s": d["lattice.enumerate_s"],
        }
        for d in setup_traced
    ] or [{"setup.cache.save_s": 0.0, "setup.cache.misses": 0, "setup.lattice.enumerate_s": 0.0}]
    failures = list(state.failures)
    metrics = {}
    for name in layers[0]:
        metrics[name] = statistics.median(d[name] for d in layers)
    for name in setup_layers[0]:
        metrics[name] = statistics.median(d[name] for d in setup_layers)
    for name in COUNTERS:
        seen = {d[name] for d in (setup_layers if name.startswith("setup.") else layers)}
        if len(seen) > 1:
            failures.append(f"counter {name} differs between traced passes: {sorted(seen)}")
        metrics[name] = seen.pop()
    metrics["trace.overhead_s"] = (
        end_to_end(traced, setup, scaled=True)["wall_s"]
        - end_to_end(plain, setup, scaled=True)["wall_s"]
    )
    return state.attempted, failures, metrics, {}


# ---- provenance ----------------------------------------------------------------


def provenance() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pgroups").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = got.stdout.strip() or None
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True,
        text=True,
        env=worker_env(),
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pgroups" / "__init__.py").is_file():
        print(f"error: no pgroups sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())

    compileall.compile_dir(str(SRC / "pgroups"), quiet=1)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        attempted, failures, metrics, detail = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), expected
        )
    finally:
        for path in WORK.glob(f"cache-{os.getpid()}-*"):
            shutil.rmtree(path, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for why in failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6f} {units[name]}")
    print(f"  {'failed_frac':48s} {len(failures) / max(1, attempted):14.6f}")
    if detail:
        print("detail " + json.dumps(detail))
    result = {
        "correct": not failures and bool(metrics),
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
