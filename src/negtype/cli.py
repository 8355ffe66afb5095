"""Command-line surface and JSON serialization.

Subcommands: check, supremal, witness, verify, interval, gen. Exit codes
encode the mathematical outcome (see each command); all file, parse, and
validation failures exit 3. Report scalars print with 12 significant
digits; values that are themselves input formats (distance matrices,
simplices, witness vectors, the exponent p) serialize at full precision so
emitted files re-parse and re-verify exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import NegTypeError, NotApplicable, NotSquare
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
    """Build a space from exactly one of the three accepted JSON shapes."""
    if sum(key in data for key in ("matrix", "graph", "points")) != 1:
        raise ValueError("space JSON needs exactly one of: matrix, graph, points")
    if "matrix" in data:
        return validate_metric(data.get("labels"), data["matrix"])
    if "labels" in data:
        raise ValueError("labels go with matrix only, not with graph or points")
    if "graph" in data:
        return from_graph(data["graph"]["n"], data["graph"]["edges"])
    pts = data["points"]
    return from_points(pts["coords"], q=pts.get("q", 2))


def load_space(path: str) -> MetricSpace:
    with open(path, encoding="utf-8") as fh:
        return parse_space(json.load(fh))


def space_payload(X: MetricSpace) -> dict:
    """The space as JSON data: its labels and its read-only distance array.

    render_json writes the array as json writes its tolist(); json.dumps
    itself needs default=np.ndarray.tolist. parse_space reads it back.
    """
    return {"labels": list(X.labels), "matrix": X.dist}


def parse_simplex(data: dict) -> SignedSimplex:
    return SignedSimplex(data["left"], data["right"])


def load_simplex(path: str) -> SignedSimplex:
    with open(path, encoding="utf-8") as fh:
        return parse_simplex(json.load(fh))


def simplex_payload(Q: SignedSimplex) -> dict:
    return {
        "left": [[i, w] for i, w in Q.left],
        "right": [[i, w] for i, w in Q.right],
    }


def witness_payload(w: WitnessReport) -> dict:
    """The witness as JSON data; holds and nontrivial are those of w.equality."""
    return {
        "p": w.p,
        "method": w.method.value,
        "xi": w.xi.weights.tolist(),
        "simplex": simplex_payload(w.simplex),
        "residual": w.residual,
        "lhs": w.lhs,
        "rhs": w.rhs,
        "holds": w.equality.holds,
        "nontrivial": w.equality.nontrivial,
    }


# payload keys whose values are input formats: serialized exactly, never rounded
_EXACT_KEYS = frozenset({"matrix", "simplex", "p", "xi"})


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: (v if k in _EXACT_KEYS else _round12(v)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    return obj


def render_json(payload: dict) -> str:
    """The bytes of json.dumps(_round12(payload), indent=2, ensure_ascii=False).

    An ndarray stands wherever json would take its tolist(), rounded under
    a key outside _EXACT_KEYS as that list is. json's indent encoder formats
    one entry at a time, so a top-level nonempty 1-D or 2-D float64 array or
    list of plain floats (matrix, xi, direction) goes to _float_lists. Any
    other value is json's own text, indented by a replace, which is safe
    because json escapes every new line inside a string. One join at the end.
    """
    out = ["{"]
    for n, (k, v) in enumerate(_round12(payload).items()):
        # json writes a key that is not a string as the string of its json text
        key = _dumps(k if isinstance(k, str) else _dumps(k))
        out.append(f"{',' if n else ''}\n  {key}: ")
        if isinstance(v, list) and v and set(map(type, v)) == {float}:
            v = np.array(v)
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64
                and v.ndim in (1, 2) and v.size):
            text = json.dumps(v, indent=2, ensure_ascii=False, default=np.ndarray.tolist)
            out.append(text.replace("\n", "\n  "))
        elif v.ndim == 1:
            out.append(_float_lists(v, [v.size], "  "))
        else:
            out += ("[\n    ", _float_lists(v.ravel(), np.full(len(v), v.shape[1]), "    "), "\n  ]")
    out.append("\n}" if len(out) > 1 else "}")
    return "".join(out)


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False)


def _float_lists(flat: np.ndarray, lengths, indent: str) -> str:
    """The json text at indent of consecutive nonempty float lists, as list items.

    flat holds the float64 values of every list in order and lengths their
    sizes; the lists are joined by a comma and a new line. Each distinct
    value formats once: values are told apart by their bits, since
    comparing values would merge -0.0 with 0.0, and a finite float formats
    as in json, with float.__repr__. The text is written with one join.
    """
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    values = bits.view(float)
    texts = np.array(list(map(repr, values.tolist())), dtype=object)
    for i in np.flatnonzero(~np.isfinite(values)):
        texts[i] = _dumps(float(values[i]))
    inner = indent + "  "
    words = (texts + f",\n{inner}")[inverse]  # each value with the separator after it
    ends = np.cumsum(lengths) - 1
    words[ends] = texts[inverse[ends]] + f"\n{indent}],\n{indent}[\n{inner}"
    words[-1] = texts[inverse[-1]]
    return f"[\n{inner}" + "".join(words.tolist()) + f"\n{indent}]"


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, list):
        return "[" + ", ".join(map(_fmt, x)) + "]"
    return str(x)


def _fields(payload: dict, keys: tuple[str, ...]) -> Iterator[str]:
    """Yield a "key: value" text line per key, at the precision the JSON gives it.

    A value under _EXACT_KEYS prints in full (a dict as json, the rest with
    repr, a float with _fmt if exact); every other value goes through _fmt.
    """
    for k in keys:
        v = payload[k]
        if k not in _EXACT_KEYS or (isinstance(v, float) and float(_fmt(v)) == v):
            yield f"{k}: {_fmt(v)}"
        elif isinstance(v, dict):
            yield f"{k}: {json.dumps(v)}"
        else:
            yield f"{k}: {v!r}"


def _write(path: str | None, text: str) -> None:
    """Write text and a newline to path, or print it when path is unset."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    """Write the payload as JSON, or the text lines, which are read only for text."""
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
    """Deterministic test-space generator behind `negtype gen`.

    A graph kind gives from_graph one (k, 3) edge array, complete and random in np.triu_indices
    order; random's one draw of k weights equals k single draws of PCG64.
    """
    if kind == "points":
        if n < 2:  # before the draw, which a negative n would break
            raise NotSquare("need at least 2 points")
        rng = np.random.default_rng(seed)
        return from_points(rng.standard_normal((n, dim)), q=q)
    if kind == "ultrametric":
        return random_ultrametric(n, seed)
    if kind == "cycle":
        i = np.arange(n)
        j = (i + 1) % n
    elif kind == "path":
        i = np.arange(n - 1)
        j = i + 1
    elif kind in ("complete", "random"):
        i, j = np.triu_indices(n, 1)
    else:
        raise ValueError(f"unknown kind {kind!r}; choose from {', '.join(GEN_KINDS)}")
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, len(i)) if kind == "random" else np.ones(len(i))
    return from_graph(n, np.column_stack((i, j, w)))


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
    _emit(args, payload, _fields(
        payload, ("classification", "p", "lambda_max", "tolerance", "direction")))
    return _CHECK_EXIT[rep.classification]


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
    payload = {"status": sup.status.value, "lo": sup.lo, "hi": sup.hi,
               "midpoint": sup.midpoint, "cap": sup.cap, "evaluations": sup.evaluations}
    _emit(args, payload, lines)
    return 0


def _cmd_witness(args) -> int:
    if args.at_supremal == (args.p is not None):
        raise ValueError("witness needs exactly one of --p or --at-supremal")
    if args.at_supremal and args.tol is not None:
        raise ValueError("--tol applies only with --p; --at-supremal uses the default tolerance")
    X = load_space(args.space)
    try:
        if args.at_supremal:
            sup = supremal(X, cap=args.cap, width_tol=args.width_tol)
            wit = witness_at_supremal(X, sup)
        else:
            wit = witness_at_p(X, args.p, args.tol)
    except NotApplicable as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 1
    payload = witness_payload(wit)
    _emit(args, payload, _fields(payload, (
        "p", "method", "residual", "lhs", "rhs", "holds", "nontrivial", "xi", "simplex")))
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
    _emit(args, payload, _fields(payload, tuple(payload)))
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
    _emit(args, payload, _fields(payload, ("interval",)))
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
    except (NegTypeError, OSError, ValueError, KeyError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
