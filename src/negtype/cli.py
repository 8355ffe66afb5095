"""Command-line surface and JSON serialization.

Subcommands: check, supremal, witness, verify, interval, gen. Exit codes
encode the mathematical outcome (see each command); all file, parse, and
validation failures exit 3. Report scalars print with 12 significant
digits; values that are themselves input formats (distance matrices,
simplices, witness vectors) serialize at full precision so emitted files
re-parse and re-verify exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import NegTypeError, NotApplicable
from .metric import (
    MetricSpace,
    from_graph,
    from_points,
    random_ultrametric,
    validate_metric,
)
from .polyeq import (
    SignedSimplex,
    WitnessReport,
    polygonal_interval,
    verify_equality,
    witness_at_p,
    witness_at_supremal,
)
from .quadform import Classification, SupremalStatus, classify, supremal

__all__ = [
    "main",
    "run",
    "parse_space",
    "load_space",
    "space_payload",
    "parse_simplex",
    "load_simplex",
    "simplex_payload",
    "witness_payload",
    "generate_space",
]

GEN_KINDS = ("cycle", "path", "complete", "points", "ultrametric", "random")

_CHECK_EXIT = {
    Classification.STRICT: 0,
    Classification.BOUNDARY: 1,
    Classification.NOT_NEG_TYPE: 2,
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def parse_space(data: dict) -> MetricSpace:
    """Build a space from one of the three accepted JSON shapes."""
    if "matrix" in data:
        return validate_metric(data.get("labels"), data["matrix"])
    if "graph" in data:
        g = data["graph"]
        return from_graph(int(g["n"]), g["edges"])
    if "points" in data:
        pts = data["points"]
        return from_points(pts["coords"], q=float(pts.get("q", 2)))
    raise ValueError("space JSON needs one of: matrix, graph, points")


def load_space(path: str) -> MetricSpace:
    with open(path, encoding="utf-8") as fh:
        return parse_space(json.load(fh))


def space_payload(X: MetricSpace) -> dict:
    return {"labels": list(X.labels), "matrix": X.dist.tolist()}


def parse_simplex(data: dict) -> SignedSimplex:
    return SignedSimplex(
        tuple((int(i), float(w)) for i, w in data["left"]),
        tuple((int(i), float(w)) for i, w in data["right"]),
    )


def load_simplex(path: str) -> SignedSimplex:
    with open(path, encoding="utf-8") as fh:
        return parse_simplex(json.load(fh))


def simplex_payload(Q: SignedSimplex) -> dict:
    return {
        "left": [[i, w] for i, w in Q.left],
        "right": [[i, w] for i, w in Q.right],
    }


def witness_payload(w: WitnessReport) -> dict:
    return {
        "p": w.p,
        "method": w.method.value,
        "xi": w.xi.weights.tolist(),
        "simplex": simplex_payload(w.simplex),
        "residual": w.residual,
        "lhs": w.lhs,
        "rhs": w.rhs,
    }


# payload keys whose values are input formats: serialized exactly, never rounded
_EXACT_KEYS = frozenset({"matrix", "simplex", "xi"})


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: (v if k in _EXACT_KEYS else _round12(v)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def render_json(payload: dict) -> str:
    return json.dumps(_round12(payload), indent=2, ensure_ascii=False)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write(path: str | None, text: str) -> None:
    """Write text and a newline to path, or print it when path is unset."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    out = render_json(payload) if args.format == "json" else "\n".join(text_lines)
    _write(args.out, out)


# ---------------------------------------------------------------------------
# space generation
# ---------------------------------------------------------------------------

def generate_space(
    kind: str,
    n: int,
    dim: int = 3,
    q: float = 2.0,
    seed: int | None = None,
) -> MetricSpace:
    """Deterministic test-space generator behind `negtype gen`."""
    if kind == "cycle":
        return from_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    if kind == "path":
        return from_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    if kind == "complete":
        return from_graph(
            n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        )
    if kind == "points":
        rng = np.random.default_rng(seed)
        return from_points(rng.standard_normal((n, dim)), q=q)
    if kind == "ultrametric":
        return random_ultrametric(n, seed)
    if kind == "random":
        rng = np.random.default_rng(seed)
        edges = [
            (i, j, float(rng.uniform(0.5, 2.0)))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return from_graph(n, edges)
    raise ValueError(f"unknown kind {kind!r}; choose from {', '.join(GEN_KINDS)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    X = load_space(args.space)
    rep = classify(X, args.p, args.tol)
    payload = {
        "p": rep.p,
        "classification": rep.classification.value,
        "lambda_max": rep.lambda_max,
        "tolerance": rep.tolerance,
        "direction": rep.direction.weights.tolist(),
    }
    _emit(args, payload, [
        f"classification: {rep.classification.value}",
        f"p: {_fmt(rep.p)}",
        f"lambda_max: {_fmt(rep.lambda_max)}",
        f"tolerance: {_fmt(rep.tolerance)}",
        "direction: [" + ", ".join(_fmt(v) for v in rep.direction.weights) + "]",
    ])
    return _CHECK_EXIT[rep.classification]


def _supremal_payload(sup) -> dict:
    return {
        "status": sup.status.value,
        "lo": sup.lo,
        "hi": sup.hi,
        "midpoint": sup.midpoint,
        "cap": sup.cap,
        "evaluations": sup.evaluations,
    }


def _cmd_supremal(args) -> int:
    X = load_space(args.space)
    sup = supremal(X, cap=args.cap, width_tol=args.width_tol)
    lines = [f"status: {sup.status.value}"]
    if sup.status is SupremalStatus.FINITE:
        lines += [
            f"bracket: [{_fmt(sup.lo)}, {_fmt(sup.hi)}]",
            f"midpoint: {_fmt(sup.midpoint)}",
        ]
    elif sup.status is SupremalStatus.INFINITE_ULTRAMETRIC:
        lines.append("supremal p-negative type: infinite (ultrametric)")
    else:
        lines.append(f"no sign change at or below cap {_fmt(sup.cap)}")
    lines.append(f"evaluations: {sup.evaluations}")
    _emit(args, _supremal_payload(sup), lines)
    return 0


def _cmd_witness(args) -> int:
    X = load_space(args.space)
    if args.at_supremal == (args.p is not None):
        raise ValueError("witness needs exactly one of --p or --at-supremal")
    try:
        if args.at_supremal:
            sup = supremal(X, cap=args.cap, width_tol=args.width_tol)
            wit = witness_at_supremal(X, sup)
        else:
            wit = witness_at_p(X, args.p, args.tol)
    except NotApplicable as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 1
    check = verify_equality(X, wit.p, wit.simplex)
    payload = witness_payload(wit)
    payload["holds"] = check.holds
    payload["nontrivial"] = check.nontrivial
    _emit(args, payload, [
        f"p: {_fmt(wit.p)}",
        f"method: {wit.method.value}",
        f"residual: {_fmt(wit.residual)}",
        f"lhs: {_fmt(wit.lhs)}",
        f"rhs: {_fmt(wit.rhs)}",
        f"holds: {check.holds}",
        f"nontrivial: {check.nontrivial}",
        "xi: [" + ", ".join(repr(float(v)) for v in wit.xi.weights) + "]",
        "simplex: " + json.dumps(simplex_payload(wit.simplex)),
    ])
    return 0


def _cmd_verify(args) -> int:
    X = load_space(args.space)
    Q = load_simplex(args.simplex)
    kwargs = {} if args.tol is None else {"tol": args.tol}
    rep = verify_equality(X, args.p, Q, **kwargs)
    payload = {
        "p": rep.p,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "gap": rep.gap,
        "holds": rep.holds,
        "nontrivial": rep.nontrivial,
    }
    _emit(args, payload, [
        f"p: {_fmt(rep.p)}",
        f"lhs: {_fmt(rep.lhs)}",
        f"rhs: {_fmt(rep.rhs)}",
        f"gap: {_fmt(rep.gap)}",
        f"holds: {rep.holds}",
        f"nontrivial: {rep.nontrivial}",
    ])
    if rep.holds and rep.nontrivial:
        return 0
    if rep.holds:
        return 1
    return 2


def _cmd_interval(args) -> int:
    X = load_space(args.space)
    sup = supremal(X, cap=args.cap, width_tol=args.width_tol)
    iv = polygonal_interval(X, sup)
    payload = {
        "interval": iv.describe(),
        "kind": iv.kind.value,
        "lo": iv.lo,
        "hi": iv.hi,
        "cap": iv.cap,
    }
    _emit(args, payload, [f"interval: {iv.describe()}"])
    return 0


def _cmd_gen(args) -> int:
    X = generate_space(args.kind, args.n, dim=args.dim, q=args.q, seed=args.seed)
    _write(args.out, render_json(space_payload(X)))
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which would collide with the
    # NOT_NEG_TYPE exit code; route through the shared error path instead
    def error(self, message):
        raise _CliError(message)


def _add_common(sub, *, space=True, supremal_opts=False, fmt_default="text"):
    if space:
        sub.add_argument("space", help="metric-space JSON file")
    if supremal_opts:
        sub.add_argument("--cap", type=float, default=64.0)
        sub.add_argument("--width-tol", type=float, default=1e-10, dest="width_tol")
    sub.add_argument("--format", choices=("json", "text"), default=fmt_default)
    sub.add_argument("--out", default=None, help="write output to this path")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="negtype", description=__doc__)
    cmds = parser.add_subparsers(dest="command", required=True)

    p = cmds.add_parser("check", help="classify p-negative type at a fixed exponent")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = cmds.add_parser("supremal", help="bracket the supremal p-negative type")
    _add_common(p, supremal_opts=True)
    p.set_defaults(func=_cmd_supremal)

    p = cmds.add_parser("witness",
                        help="construct a nontrivial polygonal-equality witness")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--at-supremal", action="store_true", dest="at_supremal")
    p.add_argument("--tol", type=float, default=None)
    _add_common(p, supremal_opts=True, fmt_default="json")
    p.set_defaults(func=_cmd_witness)

    p = cmds.add_parser("verify",
                        help="verify a polygonal equality from a simplex file")
    p.add_argument("space", help="metric-space JSON file")
    p.add_argument("simplex", help="simplex JSON file")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p, space=False)
    p.set_defaults(func=_cmd_verify)

    p = cmds.add_parser("interval",
                        help="report the polygonal-equality exponent set")
    _add_common(p, supremal_opts=True)
    p.set_defaults(func=_cmd_interval)

    p = cmds.add_parser("gen", help="generate a metric-space JSON file")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("n", type=int)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write output to this path")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except NegTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
