"""Command-line front end.

Every subcommand is a thin shell over a library call and prints a single
JSON document (graphs can also emit DOT).  Exit codes: 0 success, 1 usage
or input error, 2 numerical-ambiguity error.  The environment variable
STRATA_TOL overrides the default rank tolerance.

Only the exact layers (structure and every closure graph) are imported up
front; each numeric subcommand imports its layer (and so numpy) when it
runs, which keeps every `graph` process free of numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import NumericalAmbiguityError, StrataError
from .graphs import (
    build_bundle_graph,
    build_class_graph,
    congruence_graph,
    graph_to_dot,
    graph_to_json_doc,
    parametric_to_dot,
    parametric_to_json_doc,
    star_graph_2x2,
)
from .structure import format_compact, parse_compact


# design envelope: matrices up to 12 x 12 (graphs have their own bound)
MAX_MATRIX_N = 12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _stable(obj):
    """Round floats to 12 significant digits for byte-stable output."""
    if isinstance(obj, dict):
        return {k: _stable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stable(v) for v in obj]
    if hasattr(obj, "dtype"):  # numpy scalar
        obj = obj.item()
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, complex):
        return [_sig12(obj.real), _sig12(obj.imag)]
    return obj


def _emit(doc) -> None:
    print(json.dumps(_stable(doc), ensure_ascii=False))


def _matrix_to_doc(A) -> dict:
    return {
        "n": A.shape[0],
        "rows": [[[_sig12(z.real), _sig12(z.imag)] for z in row] for row in A],
    }


def _load_matrix(path: str):
    import numpy as np

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read matrix file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"matrix file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise _UsageError(f"matrix file {path} needs an object with a 'rows' list")
    rows = doc["rows"]
    n = doc.get("n", len(rows))
    if len(rows) > MAX_MATRIX_N:
        raise _UsageError(
            f"matrix file {path}: order {len(rows)} exceeds the supported "
            f"{MAX_MATRIX_N}x{MAX_MATRIX_N}"
        )
    try:
        A = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise _UsageError(
            f"matrix file {path}: rows must be [[re,im], ...] lists"
        ) from exc
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != n:
        raise _UsageError(f"matrix file {path}: expected a square {n}x{n} matrix")
    if not np.all(np.isfinite(A)):
        raise _UsageError(f"matrix file {path}: entries must be finite")
    return A


def _load_form(path: str):
    from .congruence import form_from_json_doc

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read form file {path}: {exc}") from exc
    try:
        return form_from_json_doc(doc)
    except (KeyError, TypeError, StrataError) as exc:
        raise _UsageError(f"form file {path}: {exc}") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise _UsageError(f"cannot parse complex number {text!r}") from exc


def _parse_jordan(text: str):
    try:
        t = parse_compact(text)
    except StrataError as exc:
        raise _UsageError(f"bad compact notation {text!r}: {exc}") from exc
    if t.n > MAX_MATRIX_N:
        raise _UsageError(
            f"{text!r} has order {t.n}, beyond the supported {MAX_MATRIX_N}x{MAX_MATRIX_N}"
        )
    return t


def _default_tol(args) -> float:
    """--tol, else STRATA_TOL, else the library default; always in (0, 1)."""
    from .tangent import DEFAULT_RANK_TOL, check_tol

    tol = getattr(args, "tol", None)
    env = os.environ.get("STRATA_TOL")
    if tol is None and env:
        try:
            tol = float(env)
        except ValueError as exc:
            raise _UsageError(f"STRATA_TOL={env!r} is not a number") from exc
    if tol is None:
        tol = DEFAULT_RANK_TOL
    check_tol(tol)
    return tol


def _build_parser() -> _Parser:
    p = _Parser(prog="strata", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weyr", help="block-count sequence of a matrix at an eigenvalue")
    w.add_argument("--matrix", required=True)
    w.add_argument("--lambda", dest="lam", required=True)
    w.add_argument("--tol", type=float)

    c = sub.add_parser("codim", help="numeric orbit codimension")
    c.add_argument("--action", required=True, choices=["sim", "congr", "star"])
    c.add_argument("--matrix", required=True)
    c.add_argument("--tol", type=float)

    g = sub.add_parser("graph", help="closure graphs")
    g.add_argument("what", choices=["sim", "bundle", "congr", "star"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--nilpotent", action="store_true")
    g.add_argument("--kind", choices=["classes", "bundles"], default="classes")
    g.add_argument("--format", choices=["json", "dot"], default="json")

    t = sub.add_parser("template", help="miniversal deformation templates")
    t.add_argument("what", choices=["sim", "congr", "star"])
    t.add_argument("--jordan", help="compact notation (sim)")
    t.add_argument("--form", help="canonical-form JSON file (congr/star)")
    t.add_argument("--format", choices=["json", "ascii"], default="json")

    r = sub.add_parser("reduce", help="reduce J+E to miniversal form")
    r.add_argument("--jordan", required=True)
    r.add_argument("--pert", required=True, help="perturbation matrix JSON file")
    r.add_argument("--tol", type=float)

    k = sub.add_parser("classify", help="congruence canonical form of a small matrix")
    k.add_argument("--matrix", required=True)
    k.add_argument("--tol", type=float)

    s = sub.add_parser("survey", help="random-perturbation bundle survey")
    s.add_argument("--jordan", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--mode", choices=["dense", "strict_upper"], default="dense")
    s.add_argument("--radius", type=float, help="cluster radius (default: the library's)")
    s.add_argument("--tol", type=float)
    s.add_argument("--full", action="store_true", help="include per-trial data")

    x = sub.add_parser("witness", help="sparse perturbation realizing a graph edge")
    x.add_argument("--from", dest="src", required=True)
    x.add_argument("--to", dest="dst", required=True)
    x.add_argument("--eps", type=float, default=1e-3)
    x.add_argument("--tol", type=float)
    return p


def _cmd_weyr(args) -> None:
    from .perturb import numeric_weyr

    A = _load_matrix(args.matrix)
    lam = _parse_complex(args.lam)
    w = numeric_weyr(A, lam, _default_tol(args))
    _emit({"n": A.shape[0], "lambda": [lam.real, lam.imag], "weyr": list(w)})


def _cmd_codim(args) -> None:
    from .tangent import (
        congruence_codim_numeric,
        similarity_codim_numeric,
        star_congruence_codim_numeric,
    )

    A = _load_matrix(args.matrix)
    tol = _default_tol(args)
    fn = {
        "sim": similarity_codim_numeric,
        "congr": congruence_codim_numeric,
        "star": star_congruence_codim_numeric,
    }[args.action]
    _emit({"action": args.action, "n": A.shape[0], "codim": fn(A, tol)})


def _cmd_graph(args) -> None:
    if args.what == "sim":
        g = build_class_graph(args.n, nilpotent=args.nilpotent)
    elif args.what == "bundle":
        g = build_bundle_graph(args.n)
    elif args.what == "congr":
        g = congruence_graph(args.n, args.kind)
    elif args.n != 2:
        raise _UsageError("the *congruence closure graph is available for n = 2")
    else:
        g = star_graph_2x2()
    exact = args.what in ("sim", "bundle")
    if args.format == "dot":
        sys.stdout.write((graph_to_dot if exact else parametric_to_dot)(g))
    else:
        _emit((graph_to_json_doc if exact else parametric_to_json_doc)(g))


def _cmd_template(args) -> None:
    from .congruence import congruence_template, star_template
    from .templates import miniversal_template, template_ascii, template_to_json_doc

    if args.what == "sim":
        if not args.jordan:
            raise _UsageError("template sim needs --jordan")
        tmpl = miniversal_template(_parse_jordan(args.jordan))
    else:
        if not args.form:
            raise _UsageError(f"template {args.what} needs --form FILE")
        form = _load_form(args.form)
        tmpl = congruence_template(form) if args.what == "congr" else star_template(form)
    if args.format == "ascii":
        sys.stdout.write(template_ascii(tmpl))
    else:
        _emit(template_to_json_doc(tmpl))


def _cmd_reduce(args) -> None:
    from .reduction import DEFAULT_PATTERN_TOL, reduce_to_miniversal

    t = _parse_jordan(args.jordan)
    if any(l.is_symbolic for l in t.labels):
        raise _UsageError("reduce needs concrete eigenvalues, e.g. \"(0)^3 (0)^2\"")
    E = _load_matrix(args.pert)
    tol = args.tol if args.tol is not None else DEFAULT_PATTERN_TOL
    res = reduce_to_miniversal(t, E, tol=tol)
    _emit(
        {
            "jordan": format_compact(t),
            "S": _matrix_to_doc(res.S),
            "D": _matrix_to_doc(res.D),
            "residual": res.residual,
            "iterations": res.iterations,
            "pattern_ok": res.pattern_ok,
        }
    )


def _cmd_classify(args) -> None:
    from .congruence import classify_congruence, form_display, form_to_json_doc

    A = _load_matrix(args.matrix)
    form = classify_congruence(A, _default_tol(args))
    doc = form_to_json_doc(form)
    doc["display"] = form_display(form)
    _emit(doc)


def _cmd_survey(args) -> None:
    from .perturb import DEFAULT_CLUSTER_RADIUS, random_survey

    t = _parse_jordan(args.jordan)
    if any(l.is_symbolic for l in t.labels):
        raise _UsageError("survey needs concrete eigenvalues, e.g. \"(0)^2 (0)^2\"")
    rep = random_survey(
        t,
        eps=args.eps,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        cluster_radius=DEFAULT_CLUSTER_RADIUS if args.radius is None else args.radius,
        tol=_default_tol(args),
    )
    doc = {
        "base": format_compact(t),
        "eps": rep.eps,
        "trials": rep.trials,
        "seed": rep.seed,
        "mode": rep.mode,
        "cluster_radius": rep.cluster_radius,
        "tol": rep.tol,
        "observed_counts": rep.counts(),
        "violations": list(rep.violations),
        "passed": rep.passed,
    }
    if args.full:
        doc["observed"] = [[k, s] for k, s in rep.observed]
    _emit(doc)


def _cmd_witness(args) -> None:
    from .perturb import find_arrow_witness

    src = _parse_jordan(args.src)
    dst = _parse_jordan(args.dst)
    try:
        hit = find_arrow_witness(src, dst, eps=args.eps, tol=_default_tol(args))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    doc = {"from": format_compact(src), "to": format_compact(dst), "found": hit is not None}
    if hit is not None:
        doc["positions"] = [list(p) for p in hit.positions]
        doc["matrix"] = _matrix_to_doc(hit.matrix)
    _emit(doc)


_COMMANDS = {
    "weyr": _cmd_weyr,
    "codim": _cmd_codim,
    "graph": _cmd_graph,
    "template": _cmd_template,
    "reduce": _cmd_reduce,
    "classify": _cmd_classify,
    "survey": _cmd_survey,
    "witness": _cmd_witness,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalAmbiguityError as exc:
        print(f"numerical ambiguity: {exc}", file=sys.stderr)
        return 2
    except (StrataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
