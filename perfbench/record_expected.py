#!/usr/bin/env python3
"""Record the outputs the benchmark checks against, into `expected.json`.

    python3 perfbench/record_expected.py

Runs every request of every workload once at the current commit: the
`classify` verdict of each shape, and for each sweep the claims it reports
with their `shapes_checked` counts.  Only re-record on purpose, when a
change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import random
import shutil

import run

# One pass serves every request of every workload, so it gets longer than a
# benchmark run.
RECORD_LIMIT_S = 170.0


def main() -> None:
    cache = str(run.WORK / "record-cache")
    fill = run.WORKLOADS["sweep-p3-cached"].fill(cache)
    requests = run.classify_requests() + fill
    for name in ("sweep-p2", "sweep-p3-cached"):
        requests += run.WORKLOADS[name].requests(random.Random(0), cache)
    shutil.rmtree(cache, ignore_errors=True)
    try:
        doc = run.run_pass(requests, trace=False, timeout=RECORD_LIMIT_S)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    expected: dict = {"classify": {}, "verify": {}}
    for req in doc["requests"]:
        argv = req["argv"]
        if req["rc"] != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {req['rc']}")
        if argv[0] == "classify":
            expected["classify"][f"{argv[2]}:{argv[4]}"] = json.loads(req["stdout"])
            continue
        claims = {}
        for line in req["stdout"].splitlines():
            rep = json.loads(line)
            if rep["status"] not in ("pass", "adapted", "out-of-scope"):
                raise SystemExit(f"{rep['claim_id']} has status {rep['status']}")
            claims[rep["claim_id"]] = {
                "shapes_checked": rep["shapes_checked"],
                "out_of_scope": rep["status"] == "out-of-scope",
            }
        expected["verify"][run.verify_key(argv)] = claims
    run.EXPECTED.write_text(json.dumps(expected, sort_keys=True, indent=1) + "\n")
    print(f"wrote {run.EXPECTED}")


if __name__ == "__main__":
    main()
