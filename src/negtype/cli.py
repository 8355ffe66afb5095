"""Classify p-negative type, bracket the supremal exponent, and certify polygonal equalities.

The command-line surface and its JSON serialization.

Subcommands: check, supremal, witness, verify, interval, gen. Exit codes
encode the mathematical outcome (see each command); all file, parse, and
validation failures exit 3. Report scalars print with 12 significant
digits; values that are themselves input formats (distance matrices,
simplices, witness vectors, the exponent p) serialize at full precision so
emitted files re-parse and re-verify exactly.

Every subcommand takes one path through main: its flag checks run before
any file is opened, then main reads the space (gen generates it), runs the
command, which returns its payload, its text lines and its exit code, and
writes the answer once. load_space decodes a file that repeats its long
numbers, as an ultrametric's matrix does, with one float() per distinct
number, kept in a dict whose lookup json calls for every number (see
_repeats and _read_json); the input alone picks the decode, and both give
the same bits. A flag left out parses to None and is not passed
on, so the defaults of --cap and --width-tol are those of supremal, and
those of --dim and --q those of generate_space; their --help reads them
from those signatures.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
from collections.abc import Iterator

import numpy as np

from .errors import NegTypeError, NotApplicable, NotSquare
from .metric import (
    MetricSpace,
    _integer,
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
from .quadform import Classification, SupremalStatus, _classify, supremal

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
    """parse_space of the JSON data in the file at path."""
    return parse_space(_read_json(path))


# json's float() takes about twice as long on a number of 16 or more
# significant digits (as repr writes most doubles) as on a shorter one, so
# a memo of float() pays only where such numbers repeat; elsewhere its
# lookups make the decode 1.3 to 1.7 times slower
_LONG_NUMBER = re.compile(r"[1-9](?:\.?\d){15,}")
_WINDOW = 2048  # characters read from the middle of the text
_WINDOW_MIN = 32  # long numbers the window must hold


def _repeats(text: str) -> bool:
    """True if the middle window of text holds at least _WINDOW_MIN long
    numbers, at most half of them distinct: a distance matrix that repeats
    its values, such as an ultrametric."""
    mid = len(text) // 2
    runs = _LONG_NUMBER.findall(text, max(0, mid - _WINDOW // 2), mid + _WINDOW // 2)
    return len(runs) >= _WINDOW_MIN and 2 * len(set(runs)) <= len(runs)


class _Floats(dict):
    """float() of each number token, parsed on its first lookup only."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def _read_json(path: str):
    """The JSON data of a file, with each distinct float token parsed once
    where _repeats says the text repeats its numbers. Both decodes call
    float on the same token string, so the values are the same bits.

    The memo is a dict whose lookup json calls as its parse_float: a hit is
    one C-level dict lookup, where an lru_cache wrapper builds a new
    argument tuple for every number and takes 1.3 to 1.4 times as long per
    decode.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if _repeats(text):
        return json.loads(text, parse_float=_Floats().__getitem__)
    return json.loads(text)


def space_payload(X: MetricSpace) -> dict:
    """The space as JSON data: its labels and its read-only distance array.

    render_json writes the array as json writes its tolist(); json.dumps
    itself needs default=np.ndarray.tolist. parse_space reads it back.
    """
    return {"labels": list(X.labels), "matrix": X.dist}


def parse_simplex(data: dict) -> SignedSimplex:
    return SignedSimplex(data["left"], data["right"])


def load_simplex(path: str) -> SignedSimplex:
    return parse_simplex(_read_json(path))


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
            fh.write(text)  # then the newline, without a copy of a text of megabytes
            fh.write("\n")
    else:
        print(text)


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
    n, and dim of points, are read by the integer rule of from_graph: 9.0 reads as 9.
    """
    n = _integer(n, "n")
    if kind == "points":
        if n < 2:  # before the draw, which a negative n or dim would break
            raise NotSquare("need at least 2 points")
        dim = _integer(dim, "dim")
        if dim < 1:  # no coordinate would make every pair of points coincide
            raise ValueError(f"need at least 1 dimension, got dim = {dim}")
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
# commands: each maps (space, args) to (payload, text lines, exit code)
# ---------------------------------------------------------------------------

def _given(args, *names: str) -> dict:
    """The named flags that were given, as keyword arguments for the library."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _supremal_of(X: MetricSpace, args):
    return supremal(X, **_given(args, "cap", "width_tol"))


def _check(X: MetricSpace, args):
    # lambda_max and the direction need the eigvalsh, so it decides the class
    rep = _classify(X, args.p, args.tol, prove=False)
    payload = {
        "p": rep.p,
        "classification": rep.classification.value,
        "lambda_max": rep.lambda_max,
        "tolerance": rep.tolerance,
        "direction": rep.direction.weights.tolist(),
    }
    lines = _fields(payload, ("classification", "p", "lambda_max", "tolerance", "direction"))
    return payload, lines, _CHECK_EXIT[rep.classification]


def _supremal(X: MetricSpace, args):
    sup = _supremal_of(X, args)
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
    return payload, lines, 0


def _witness(X: MetricSpace, args):
    if args.at_supremal:
        wit = witness_at_supremal(X, _supremal_of(X, args))
    else:
        wit = witness_at_p(X, args.p, args.tol)
    payload = witness_payload(wit)
    return payload, _fields(payload, (
        "p", "method", "residual", "lhs", "rhs", "holds", "nontrivial", "xi", "simplex")), 0


def _verify(X: MetricSpace, args):
    rep = verify_equality(X, args.p, load_simplex(args.simplex), **_given(args, "tol"))
    payload = {k: getattr(rep, k) for k in ("p", "lhs", "rhs", "gap", "holds", "nontrivial")}
    code = 0 if rep.holds and rep.nontrivial else 1 if rep.holds else 2
    return payload, _fields(payload, tuple(payload)), code


def _interval(X: MetricSpace, args):
    iv = polygonal_interval(X, _supremal_of(X, args))
    payload = {
        "interval": iv.describe(),
        "kind": iv.kind.value,
        "lo": iv.lo,
        "hi": iv.hi,
        "cap": iv.cap,
    }
    return payload, _fields(payload, ("interval",)), 0


def _gen(X: MetricSpace, args):
    return space_payload(X), (), 0


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


def _default(text: str, func, name: str) -> str:
    """Help text showing the default of the parameter name of func, where it lives."""
    return f"{text} (default: {inspect.signature(func).parameters[name].default:g})"


# every argument of every subcommand, declared once
_FLAGS = {
    "space": {"help": "metric-space JSON file"},
    "simplex": {"help": "simplex JSON file"},
    "kind": {"choices": GEN_KINDS},
    "n": {"type": int},
    "--p": {"type": float},
    "--at-supremal": {"action": "store_true"},
    "--tol": {"type": float},
    "--cap": {"type": float, "help": _default("largest exponent searched", supremal, "cap")},
    "--width-tol": {"type": float,
                    "help": _default("bracket width to stop at", supremal, "width_tol")},
    "--dim": {"type": int, "help": _default("coordinates per point", generate_space, "dim")},
    "--q": {"type": float, "help": _default("l_q norm of the points", generate_space, "q")},
    "--seed": {"type": int},
    "--format": {"choices": ("json", "text"), "default": "text"},
    "--out": {"help": "write output to this path"},
}

# name: (command, help, its arguments in order; "!" marks a required option)
_COMMANDS = {
    "check": (_check, "classify p-negative type at a fixed exponent",
              "--p! --tol space --format --out"),
    "supremal": (_supremal, "bracket the supremal p-negative type",
                 "space --cap --width-tol --format --out"),
    "witness": (_witness, "construct a nontrivial polygonal-equality witness",
                "--p --at-supremal --tol space --cap --width-tol --format --out"),
    "verify": (_verify, "verify a polygonal equality from a simplex file",
               "space simplex --p! --tol --format --out"),
    "interval": (_interval, "report the polygonal-equality exponent set",
                 "space --cap --width-tol --format --out"),
    "gen": (_gen, "generate a metric-space JSON file", "kind n --dim --q --seed --out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="negtype", description=__doc__.splitlines()[0])
    cmds = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        sub = cmds.add_parser(name, help=text)
        for flag in flags.split():
            key = flag.rstrip("!")
            sub.add_argument(key, **_FLAGS[key], **({"required": True} if flag != key else {}))
        sub.set_defaults(func=func)
        if name in ("witness", "gen"):  # witness writes JSON unless told; gen writes only JSON
            sub.set_defaults(format="json")
    return parser


def _check_flags(args) -> None:
    """Reject a flag combination the command cannot honour, before any file is read."""
    if args.command == "witness":
        if args.at_supremal == (args.p is not None):
            raise ValueError("witness needs exactly one of --p or --at-supremal")
        if args.at_supremal and args.tol is not None:
            raise ValueError("--tol applies only with --p; --at-supremal uses the default tolerance")
        if not args.at_supremal and _given(args, "cap", "width_tol"):
            raise ValueError("--cap and --width-tol apply only with --at-supremal")
    if args.command == "gen" and args.kind != "points" and _given(args, "dim", "q"):
        raise ValueError(f"--dim and --q apply only to gen points, not to gen {args.kind}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_flags(args)
        if args.command == "gen":
            X = generate_space(args.kind, args.n, seed=args.seed, **_given(args, "dim", "q"))
        else:
            X = load_space(args.space)
        payload, lines, code = args.func(X, args)
        _write(args.out, render_json(payload) if args.format == "json" else "\n".join(lines))
        return code
    except NotApplicable as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 1
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
