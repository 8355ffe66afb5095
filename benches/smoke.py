#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny sizes, a few seconds in all.

    python3 benches/smoke.py

Runs every workload untraced and traced, and asserts that each run emits
exactly the metrics BENCHMARK.json names, that every output check passes
and that no job fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "certify_cli": {"sizes": (8, 12)},
    "sweep_lib": {"spaces": (("l2", 12), ("l1", 10), ("graph", 10))},
    "ultra_roundtrip": {"sizes": (6, 9)},
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    if [w["name"] for w in spec["workloads"]] != list(TINY):
        raise SystemExit("BENCHMARK.json workloads differ from the smoke list")
    for workload, args in TINY.items():
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", "7", "--seconds", "0.2",
                    "--trace", str(trace)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(argv, args)
            res = json.loads(out.getvalue().splitlines()[-1])
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if list(res["metrics"]) != names[trace]:
                problems.append(f"metrics {sorted(set(res['metrics']) ^ set(names[trace]))} "
                                "differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']}")
            if trace == 0 and not all(m["value"] > 0 for m in res["metrics"].values()):
                problems.append("an end-to-end metric is not positive")
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}")
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
