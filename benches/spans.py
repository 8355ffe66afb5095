"""In-memory spans and counters for the traced run, and their per-layer summary.

A span is (name, start, end, parent, job, ok). Span names are
``<layer>.<call>`` with the layer one of the package modules ``cli``,
``metric``, ``quadform`` and ``polyeq``; every job has one root span named
``job``. Probe calls (``metric.is_ultrametric``, ``quadform.restricted_form``)
are extra work made after a job's root span closes: they are roots of their
own, so they count toward their ``_s`` and ``.calls`` metrics but never toward
a layer's share of job time.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "metric", "quadform", "polyeq")
SPANS = (
    "cli.read",
    "cli.render",
    "cli.generate",
    "metric.build",
    "metric.is_ultrametric",
    "quadform.supremal",
    "quadform.classify",
    "quadform.restricted_form",
    "polyeq.witness",
    "polyeq.verify",
    "polyeq.interval",
)
METHODS = ("KERNEL", "INVERSE", "EIGEN_DIRECTION", "IVT")

# name -> unit of every metric the traced run reports, in output order
LAYER_METRICS = {
    **{f"{s}_s": "s" for s in SPANS},
    **{f"{s}.calls": "count" for s in SPANS},
    "quadform.search_s": "s",
    "quadform.evals": "count",
    "quadform.s_per_eval": "s",
    "quadform.anchor_miss_max": "exponent",
    **{f"polyeq.method.{m}": "count" for m in METHODS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "unaccounted.share": "ratio",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead": "ratio",
    "trace.jobs": "count",
    "fail_frac": "ratio",
}


class Tracer:
    """Collects spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.anchor_miss_max = 0.0
        self.job: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self.job, True]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[5] = False
            raise
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "ok": ok}) + "\n")

    def summary(self, untraced_s: float, failed: int, attempted: int,
                scale: list[float]) -> dict[str, float]:
        """Per-layer metrics; ``_s`` values are seconds per job, each span
        multiplied by its job's host-speed factor ``scale[job]``."""
        dur = [(end - start) * scale[job] for _, start, end, _, job, _ in self.spans]
        child_s = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                child_s[parent] += dur[i]

        def root(i):
            while self.spans[i][3] is not None:
                i = self.spans[i][3]
            return i

        total = Counter()
        calls = Counter()
        self_s = Counter()
        errors = Counter()
        job_s = 0.0
        for i, (name, _, _, _, _, ok) in enumerate(self.spans):
            if name == "job":
                job_s += dur[i]
                self_s["unaccounted"] += dur[i] - child_s[i]
                continue
            layer = name.split(".")[0]
            total[name] += dur[i]
            calls[name] += 1
            errors[layer] += not ok
            if self.spans[root(i)][0] == "job":
                self_s[layer] += dur[i] - child_s[i]

        jobs = sum(1 for s in self.spans if s[0] == "job")
        per_job = 1.0 / max(jobs, 1)
        # the is_ultrametric probe runs exactly where supremal runs, and
        # supremal starts with that same scan
        search = total["quadform.supremal"] - total["metric.is_ultrametric"]
        evals = self.counts["quadform.evals"]
        out = {f"{s}_s": total[s] * per_job for s in SPANS}
        out.update({f"{s}.calls": calls[s] for s in SPANS})
        out["quadform.search_s"] = search * per_job
        out["quadform.evals"] = evals / calls["quadform.supremal"] if calls["quadform.supremal"] else 0.0
        out["quadform.s_per_eval"] = search / evals if evals else 0.0
        out["quadform.anchor_miss_max"] = self.anchor_miss_max
        out.update({f"polyeq.method.{m}": self.counts[f"polyeq.method.{m}"] for m in METHODS})
        for layer in (*LAYERS, "unaccounted"):
            out[f"{layer}.share"] = self_s[layer] / job_s if job_s else 0.0
        out.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
        out["trace.overhead"] = job_s / untraced_s - 1.0 if untraced_s else 0.0
        out["trace.jobs"] = jobs
        out["fail_frac"] = failed / attempted
        return {k: out[k] for k in LAYER_METRICS}
