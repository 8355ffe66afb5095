"""The three workloads: inputs, timed set-up, one job, its traced replay.

Every workload has the same shape. ``make_inputs(seed)`` draws the inputs
and everything the checks need (untimed). ``setup()`` does what a user of
the program does before the first job and is timed as ``setup_s``.
``round(rng)`` lists one pass over every input in a shuffled order.
``calibration`` names the parts of ``run.Calibration`` that match the work
its jobs do.
``run(job)`` is one untraced job; ``check(job, result)`` returns the
problems with its outputs. ``replay(job, tracer)`` repeats the job as the
public calls the CLI or the library makes, one span per call, and returns
the problems found on that path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import shortest_path

import checks
from negtype import cli
from negtype.metric import from_graph, from_points, is_ultrametric
from negtype.polyeq import (
    polygonal_interval,
    verify_equality,
    witness_at_p,
    witness_at_supremal,
)
from negtype.quadform import Classification, classify, restricted_form, supremal

# CLI defaults of --cap and --width-tol, passed explicitly by the replays
CAP = 64.0
WIDTH_TOL = 1e-10


@dataclass
class Space:
    kind: str
    m: int
    dist: np.ndarray  # the benchmark's own distances, for the checks
    w: float | None  # closed-form supremal exponent, where one is known
    data: dict  # the space JSON


def make_space(kind: str, m: int, rng: np.random.Generator) -> Space:
    """l1/l2: Gaussian cloud in R^3. graph: shortest paths of a complete graph
    with weights uniform in [0.5, 2]. path, cycle: unit edges (m even)."""
    if kind in ("l1", "l2"):
        q = 1.0 if kind == "l1" else 2.0
        coords = rng.standard_normal((m, 3))
        return Space(kind, m, checks.point_distances(coords, q),
                     2.0 if kind == "l2" else None,
                     {"points": {"q": q, "coords": coords.tolist()}})
    if kind == "graph":
        w = np.triu(rng.uniform(0.5, 2.0, (m, m)), 1)
        dist = shortest_path(w + w.T, directed=False)
        return Space(kind, m, dist, None, {"matrix": dist.tolist()})
    if kind == "path":
        edges = [[i, i + 1, 1.0] for i in range(m - 1)]
        return Space(kind, m, checks.path_distances(m), 2.0,
                     {"graph": {"n": m, "edges": edges}})
    if kind == "cycle":
        edges = [[i, (i + 1) % m, 1.0] for i in range(m)]
        return Space(kind, m, checks.cycle_distances(m), 1.0,
                     {"graph": {"n": m, "edges": edges}})
    raise ValueError(kind)


class JobError(Exception):
    """The program reported an error (exit code 3) on a valid input."""


def _cli(argv: list[str]) -> int:
    code = cli.main(argv)
    if code > 2:
        raise JobError(f"`negtype {' '.join(argv[:2])}` exited {code}")
    return code


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _simplex(s) -> dict:
    return {"left": [list(e) for e in s.left], "right": [list(e) for e in s.right]}


class CertifyCli:
    """`negtype witness FILE --at-supremal --format json --out F`, in process."""

    name = "certify_cli"
    calibration = ("memory", "lapack")  # validation loops; eigensolves and products

    kinds = ("l1", "l2", "graph", "path", "cycle")

    def __init__(self, tmp: Path, sizes=(150, 250, 350)):
        self.tmp, self.sizes = tmp, sizes
        self.out, self.replay_out = tmp / "witness.json", tmp / "witness-replay.json"

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.spaces = [make_space(k, m, rng) for m in self.sizes for k in self.kinds]
        self.files = [self.tmp / f"{s.kind}-{s.m}.json" for s in self.spaces]

    def setup(self) -> None:
        for s, f in zip(self.spaces, self.files):
            f.write_text(json.dumps(s.data), encoding="utf-8")

    def round(self, rng):
        return list(rng.permutation(len(self.spaces)))

    def run(self, job):
        return _cli(["witness", str(self.files[job]), "--at-supremal",
                         "--format", "json", "--out", str(self.out)])

    def check(self, job, code) -> list[str]:
        if code != 0:
            return [f"witness exit code {code}, expected 0"]
        s = self.spaces[job]
        res = json.loads(_read(self.out))
        problems = [] if res["holds"] and res["nontrivial"] else [
            f"certificate holds={res['holds']} nontrivial={res['nontrivial']}"]
        problems += checks.simplex_problems(res["simplex"], s.m)
        problems += checks.gap_problems(s.dist, res["p"], res["simplex"])
        return problems + checks.anchor_problems(res["p"], s.w)

    def replay(self, job, tr) -> list[str]:
        s, path = self.spaces[job], self.files[job]
        with tr.span("job"):
            with tr.span("cli.read"):
                data = json.loads(_read(path))
            with tr.span("metric.build"):  # parse_space only dispatches on the shape
                X = cli.parse_space(data)
            with tr.span("quadform.supremal"):
                sup = supremal(X, cap=CAP, width_tol=WIDTH_TOL)
            with tr.span("polyeq.witness"):
                wit = witness_at_supremal(X, sup)
            with tr.span("polyeq.verify"):
                chk = verify_equality(X, wit.p, wit.simplex)
            with tr.span("cli.render"):
                payload = cli.witness_payload(wit)
                payload["holds"], payload["nontrivial"] = chk.holds, chk.nontrivial
                self.replay_out.write_text(cli.render_json(payload) + "\n", encoding="utf-8")
        tr.count("quadform.evals", sup.evaluations)
        tr.count(f"polyeq.method.{wit.method.value}")
        with tr.span("metric.is_ultrametric"):
            is_ultrametric(X)
        with tr.span("quadform.restricted_form"):
            restricted_form(X, wit.p)

        problems = []
        if not sup.hi - sup.lo <= WIDTH_TOL:
            problems.append(f"bracket width {sup.hi - sup.lo!r} exceeds {WIDTH_TOL}")
        if s.w is not None:
            tr.anchor_miss_max = max(tr.anchor_miss_max, sup.lo - s.w, s.w - sup.hi)
            problems += checks.anchor_problems(sup.midpoint, s.w)
        if _read(self.replay_out) != _read(self.out):
            problems.append("replay output differs from the CLI output")
        return problems


class SweepLib:
    """Library calls at fixed exponents on spaces built once in set-up."""

    name = "sweep_lib"
    calibration = ("lapack",)  # form products and eigensolves

    def __init__(self, tmp: Path, spaces=(("l2", 800), ("l1", 500), ("graph", 500))):
        self.shapes = spaces

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.spaces, self.args, self.jobs = [], [], []
        for k, m in self.shapes:
            s = make_space(k, m, rng)
            self.spaces.append(s)
            if k == "graph":
                i, j = np.triu_indices(m, 1)
                self.args.append((from_graph, m, list(zip(i.tolist(), j.tolist(),
                                                          s.dist[i, j].tolist()))))
            else:
                pts = s.data["points"]
                self.args.append((from_points, np.array(pts["coords"]), pts["q"]))
            # p = w is the BOUNDARY case of the l2 cloud; elsewhere w is only
            # known to about 1e-4, so the grid keeps 10 % away from it
            w = s.w if s.w is not None else checks.coarse_supremal(s.dist)
            grid = (0.5, 0.9, 1.0, 1.1, 1.5) if s.w is not None else (0.5, 0.9, 1.1, 1.5)
            for f in grid:
                p = f * w
                self.jobs.append((len(self.spaces) - 1, p, checks.oracle_class(s.dist, p)))

    def setup(self) -> None:
        self.X = [build(*a) for build, *a in self.args]

    def round(self, rng):
        return list(rng.permutation(len(self.jobs)))

    def run(self, job):
        i, p, _ = self.jobs[job]
        rep = classify(self.X[i], p)
        if rep.classification is Classification.STRICT:
            return rep, None, None
        wit = witness_at_p(self.X[i], p)
        return rep, wit, verify_equality(self.X[i], p, wit.simplex)

    def check(self, job, result) -> list[str]:
        i, p, expected = self.jobs[job]
        rep, wit, chk = result
        if rep.classification.value != expected:
            return [f"class {rep.classification.value} at p = {p!r}, oracle says {expected}"]
        if wit is None:
            return []
        problems = [] if chk.holds and chk.nontrivial else [
            f"certificate holds={chk.holds} nontrivial={chk.nontrivial}"]
        simplex = _simplex(wit.simplex)
        problems += checks.simplex_problems(simplex, self.spaces[i].m)
        return problems + checks.gap_problems(self.spaces[i].dist, wit.p, simplex)

    def replay(self, job, tr) -> list[str]:
        i, p, _ = self.jobs[job]
        X = self.X[i]
        wit = chk = None
        with tr.span("job"):
            with tr.span("quadform.classify"):
                rep = classify(X, p)
            if rep.classification is not Classification.STRICT:
                with tr.span("polyeq.witness"):
                    wit = witness_at_p(X, p)
                with tr.span("polyeq.verify"):
                    chk = verify_equality(X, p, wit.simplex)
                tr.count(f"polyeq.method.{wit.method.value}")
        with tr.span("quadform.restricted_form"):
            restricted_form(X, p)
        return self.check(job, (rep, wit, chk))


class UltraRoundtrip:
    """`negtype gen ultrametric m --seed s --out F`, then `negtype interval F`."""

    name = "ultra_roundtrip"
    calibration = ("interpreter", "memory")  # generation, JSON; validation loops

    def __init__(self, tmp: Path, sizes=(150, 250, 350)):
        self.tmp, self.sizes = tmp, sizes
        self.space, self.out = tmp / "ultra.json", tmp / "interval.json"
        self.space_replay, self.out_replay = tmp / "ultra-replay.json", tmp / "interval-replay.json"

    def make_inputs(self, seed: int) -> None:
        self.next_seed = seed * 1_000_000

    def setup(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)

    def round(self, rng):
        jobs = [(int(m), self.next_seed + k) for k, m in enumerate(rng.permutation(self.sizes))]
        self.next_seed += len(jobs)
        return jobs

    def run(self, job):
        m, s = job
        code = _cli(["gen", "ultrametric", str(m), "--seed", str(s), "--out", str(self.space)])
        if code != 0:
            return code, None
        return code, _cli(["interval", str(self.space), "--format", "json", "--out", str(self.out)])

    def check(self, job, codes) -> list[str]:
        if codes != (0, 0):
            return [f"gen/interval exit codes {codes}, expected (0, 0)"]
        m, _ = job
        res = json.loads(_read(self.out))
        problems = [] if (res["kind"], res["interval"], res["lo"], res["hi"]) == (
            "EMPTY", "∅", None, None) else [f"interval {res}, expected EMPTY"]
        d = np.array(json.loads(_read(self.space))["matrix"])
        if d.shape != (m, m) or not (d == d.T).all() or np.diag(d).any():
            return problems + ["generated matrix is not a symmetric zero-diagonal m x m"]
        return problems + checks.ultrametric_problems(d)

    def replay(self, job, tr) -> list[str]:
        m, s = job
        with tr.span("job"):
            with tr.span("cli.generate"):
                U = cli.generate_space("ultrametric", m, seed=s)
            with tr.span("cli.render"):
                self.space_replay.write_text(
                    cli.render_json(cli.space_payload(U)) + "\n", encoding="utf-8")
            with tr.span("cli.read"):
                data = json.loads(_read(self.space_replay))
            with tr.span("metric.build"):
                X = cli.parse_space(data)
            with tr.span("quadform.supremal"):
                sup = supremal(X, cap=CAP, width_tol=WIDTH_TOL)
            with tr.span("polyeq.interval"):
                iv = polygonal_interval(X, sup)
            with tr.span("cli.render"):
                payload = {"interval": iv.describe(), "kind": iv.kind.value,
                           "lo": iv.lo, "hi": iv.hi, "cap": iv.cap}
                self.out_replay.write_text(cli.render_json(payload) + "\n", encoding="utf-8")
        tr.count("quadform.evals", sup.evaluations)
        with tr.span("metric.is_ultrametric"):
            is_ultrametric(X)
        if (_read(self.space_replay), _read(self.out_replay)) != (_read(self.space), _read(self.out)):
            return ["replay output differs from the CLI output"]
        return []


WORKLOADS = {w.name: w for w in (CertifyCli, SweepLib, UltraRoundtrip)}
