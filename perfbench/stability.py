#!/usr/bin/env python3
"""Run the benchmark over ten seeds and report each metric's spread.

    python3 perfbench/stability.py [--out FILE]

For every workload of BENCHMARK.json, runs `run.py` once per seed (1..10)
with its `run_seconds`, then prints each end-to-end metric's median and its
spread: the distance between the first and third quartile as a share of the
median, next to the metric's bound.  The same is done for the unscaled
figures and for the calibration loop's time (the median over each run's
passes), so the scaling to the reference core speed can be checked.  One
traced run per workload adds the per-layer figures.  `--out` writes all of
it, with the host's provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, provenance

RUNS = 10
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(metric values, the `detail` line's JSON or {})."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {})
    return {name: m["value"] for name, m in result["metrics"].items()}, detail


def spread_row(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {"provenance": provenance(), "run_seconds": SECONDS, "workloads": {}}
    for name in [w["name"] for w in SPEC["workloads"]]:
        scaled: dict[str, list[float]] = {m: [] for m in BOUNDS}
        unscaled: dict[str, list[float]] = {m: [] for m in BOUNDS}
        calibration: list[float] = []
        for seed in range(1, RUNS + 1):
            metrics, detail = run_once(name, seed, trace=0)
            for metric in BOUNDS:
                scaled[metric].append(metrics[metric])
                unscaled[metric].append(detail["unscaled"][metric])
            calibration.append(statistics.median(detail["calibration_s"]))
        rows = {m: spread_row(v) for m, v in scaled.items()}
        raw_rows = {m: spread_row(v) for m, v in unscaled.items()}
        for metric in BOUNDS:
            print(f"{name:16s} {metric:12s} median {rows[metric]['median']:12.4f}  "
                  f"spread {rows[metric]['spread']:.4f}  "
                  f"unscaled {raw_rows[metric]['spread']:.4f}  bound {BOUNDS[metric]}")
        cal = spread_row(calibration)
        print(f"{name:16s} {'calibration_s':12s} median {cal['median']:12.6f}  "
              f"spread {cal['spread']:.4f}")
        summary["workloads"][name] = {
            "end_to_end": rows,
            "unscaled": raw_rows,
            "calibration_s": cal,
            "per_layer": run_once(name, 1, trace=1)[0],
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
