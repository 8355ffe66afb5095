#!/usr/bin/env python3
"""negtype benchmark: one workload, one process, one closed-loop client.

    python3 benches/run.py --workload certify_cli --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing. The next job starts only
after the previous one has finished and been checked. Jobs run in whole
rounds (every input once, shuffled by the seed) until ``--seconds`` have
passed, so every run has the same input mix.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays each
job with one span per public call and prints the per-layer metrics. Job
times are scaled to a reference host speed (see ``Calibration``); the raw
wall-clock figures are printed too. The last line of stdout is the result
as JSON; spans and a report go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_CMD = f"import sys; sys.path.insert(0, {str(SRC)!r}); import negtype.cli"


def limit_blas_threads() -> int:
    """Pin BLAS to the CPUs this process may use; call before importing numpy."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_program():
    if not (SRC / "negtype" / "__init__.py").is_file():
        sys.exit(f"error: no negtype sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import negtype

    if Path(negtype.__file__).resolve().parent != SRC / "negtype":
        sys.exit(f"error: imported negtype from {negtype.__file__}, not {SRC}")


def env_stamp(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI, as each `negtype` run pays."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", IMPORT_CMD], check=True)
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 jobs beyond it: the 11th slowest
    job (nearest rank), and that percentile."""
    n = len(times)
    if n <= 10:  # too few jobs for a tail: report the slowest
        return max(times), 100.0
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


class Calibration:
    """Fixed work that never calls negtype, timed between jobs.

    The reference machine, a 2-core VM on a shared host, changes speed by
    +-30 % within a minute. Interpreter-bound, memory-bound and LAPACK-bound
    code slow down by different amounts, so each workload names the parts
    that match the work its jobs do. Each job's time is multiplied by
    ``ref_s`` over the median of the calibration times taken just before it,
    just after it and before the previous job, which reports times at one
    reference host speed.
    """

    # about the median time of each part on the reference machine
    REF_S = {"interpreter": 0.0035, "memory": 0.006, "lapack": 0.005}

    def __init__(self, parts: tuple[str, ...]):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.random((300, 300))
        b = rng.standard_normal((300, 300))
        self.sym = b + b.T
        self.rows = rng.random((40, 40)).tolist()
        self.parts = [getattr(self, f"_{p}") for p in parts]
        self.ref_s = sum(self.REF_S[p] for p in parts)

    def _interpreter(self) -> None:
        s = 0
        for i in range(30_000):
            s += i * i
        json.loads(json.dumps(self.rows))

    def _memory(self) -> None:
        a = self.a
        for j in range(0, 300, 30):
            ((a - (a[:, j][:, None] + a[j, :][None, :])) > 0.5).any()

    def _lapack(self) -> None:
        self.np.linalg.eigvalsh(self.sym)

    def sample(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def factors(self, samples: list[float]) -> list[float]:
        """One factor per job; ``samples[i]`` is taken just before job i."""
        return [self.ref_s / statistics.median(samples[max(i - 1, 0):i + 2])
                for i in range(len(samples) - 1)]


def e2e_metrics(setups: list[float], times: list[float]) -> dict[str, float]:
    tail_s, _ = tail(times)
    return {
        "setup_s": statistics.median(setups),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run whole rounds for ``seconds``, check every job; return the result."""
    import numpy as np

    from spans import Tracer

    wl.make_inputs(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(t_import + time.perf_counter() - t0)

    rng = np.random.default_rng(seed)
    first = wl.round(rng)[0]
    try:  # warm lazy imports and caches, untimed; the timed loop reports failures
        wl.run(first)
    except Exception:
        pass

    tr = Tracer() if trace else None
    cal = Calibration(wl.calibration)
    times, job_cal, replayed, errors, wrong = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for job in wl.round(rng):
            if tr:
                tr.job = len(times)
            job_cal.append(cal.sample())
            gc.collect()  # start every job from the same heap state
            t0 = time.perf_counter()
            try:
                result = wl.run(job)
            except Exception as exc:  # the job failed; the loop keeps going
                result = exc
            times.append(time.perf_counter() - t0)
            if isinstance(result, Exception):
                errors += 1
                print(f"ERROR job {len(times) - 1} {job!r}: {result!r}")
                continue
            problems = wl.check(job, result)
            if tr and not problems:
                replayed.append(len(times) - 1)
                try:
                    problems = wl.replay(job, tr)
                except Exception as exc:
                    problems = [f"replay raised {exc!r}"]
            if problems:
                wrong += 1
                print(f"WRONG job {len(times) - 1} {job!r}: {'; '.join(problems)}")

    job_cal.append(cal.sample())
    n, failed = len(times), errors + wrong
    scale = cal.factors(job_cal)
    scaled = [t * f for t, f in zip(times, scale)]
    report = {
        "workload": wl.name,
        "trace": trace,
        "attempted": n,
        "failed": failed,
        "errors": errors,
        "wrong": wrong,
        "job_s_tail_percentile": tail(times)[1],
        "setup_s_samples": setups,
        "job_s_samples": times,
        "calibration_s_samples": job_cal,
        "raw_metrics": e2e_metrics(setups, times),
    }
    if trace:
        metrics = tr.summary(sum(scaled[i] for i in replayed), failed, n, scale)
        report["spans"] = len(tr.spans)
    else:
        metrics = e2e_metrics(setups, scaled)
    report["metrics"] = metrics
    return {"report": report, "tracer": tr}


def main(argv=None, workload_args=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = limit_blas_threads()
    import_program()
    from spans import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | LAYER_METRICS

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](tmp, **(workload_args or {}))
        env = env_stamp(args.seed, nproc)
        print("env " + json.dumps(env), flush=True)
        res = measure(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = res["report"] | {"env": env}
    (out / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if res["tracer"] is not None:
        res["tracer"].write(out / "spans.jsonl")
    print(f"jobs {report['attempted']}, errors {report['errors']}, wrong {report['wrong']}, "
          f"job_s_tail at p{report['job_s_tail_percentile']:.1f}; report in {out}")
    print("raw wall-clock " + json.dumps(report["raw_metrics"]))
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
