"""Command-line front end.

Every subcommand is a thin shell over a library call and prints a single
JSON document (graphs can also emit DOT).  Exit codes: 0 success, 1 usage
or input error, 2 numerical-ambiguity error.  ``--tol`` sets the rank
tolerance of the commands that rank; no environment variable is read.

Only the exact similarity layers (structure and the similarity closure
graphs) are imported up front.  The congruence and *congruence closure
graphs load on demand, when `graph congr` or `graph star` runs; each
numeric subcommand imports its layer (and so numpy) when it runs, which
keeps every `graph` process free of numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .errors import NumericalAmbiguityError, StrataError
from .graphs import build_bundle_graph, build_class_graph, graph_to_dot, graph_to_json_doc
from .structure import MAX_MATRIX_N, complex_from_pair, format_compact, parse_compact


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _stable(obj):
    """Round floats to 12 significant digits for byte-stable output; a
    complex number becomes [re, im]."""
    if obj is None or isinstance(obj, (str, int)):  # bool is an int
        return obj
    if isinstance(obj, dict):
        return {k: _stable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stable(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return [_stable(obj.real), _stable(obj.imag)]
    return obj


def _emit(doc) -> None:
    print(json.dumps(_stable(doc), ensure_ascii=False))


def _matrix_to_doc(A) -> dict:
    return {"n": A.shape[0], "rows": A.tolist()}


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _load_matrix(path: str) -> list:
    """The rows of a matrix file as complex numbers; the library checks the rest."""
    doc = _read_json(path, "matrix")
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise ValueError(f"matrix file {path} needs an object with a 'rows' list")
    rows = doc["rows"]
    n = doc.get("n", len(rows))
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"matrix file {path}: 'n' must be an integer, got {n!r}")
    if len(rows) > MAX_MATRIX_N:
        raise ValueError(
            f"matrix file {path}: order {len(rows)} exceeds the supported "
            f"{MAX_MATRIX_N}x{MAX_MATRIX_N}"
        )
    try:
        entries = [[complex_from_pair(e) for e in row] for row in rows]
    except TypeError as exc:
        raise ValueError(f"matrix file {path}: rows must be [[re,im], ...] lists") from exc
    except ValueError as exc:
        raise ValueError(f"matrix file {path}: entries must be finite") from exc
    if n == 0 or len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError(f"matrix file {path}: expected a square {n}x{n} matrix")
    return entries


def _load_form(path: str):
    from .congruence import form_from_json_doc

    doc = _read_json(path, "form")
    try:
        return form_from_json_doc(doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"form file {path}: {exc}") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def _parse_jordan(text: str):
    try:
        return parse_compact(text)
    except StrataError as exc:
        raise ValueError(f"bad compact notation {text!r}: {exc}") from exc


def _default_tol(args) -> float:
    """--tol, else the library default."""
    from .tangent import DEFAULT_RANK_TOL

    return DEFAULT_RANK_TOL if args.tol is None else args.tol


def _cmd_weyr(args) -> None:
    from .perturb import numeric_weyr

    A = _load_matrix(args.matrix)
    lam = _parse_complex(args.lam)
    w = numeric_weyr(A, lam, _default_tol(args))
    _emit({"n": len(A), "lambda": [lam.real, lam.imag], "weyr": list(w)})


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
    _emit({"action": args.action, "n": len(A), "codim": fn(A, tol)})


def _cmd_graph(args) -> None:
    if args.nilpotent and args.what != "sim":
        raise ValueError(f"--nilpotent applies to graph sim only, not graph {args.what}")
    if args.kind is not None and args.what != "congr":
        raise ValueError(f"--kind applies to graph congr only, not graph {args.what}")
    to_dot, to_doc = graph_to_dot, graph_to_json_doc
    if args.what == "sim":
        g = build_class_graph(args.n, nilpotent=args.nilpotent)
    elif args.what == "bundle":
        g = build_bundle_graph(args.n)
    else:
        from .parametric import (
            congruence_graph,
            parametric_to_dot,
            parametric_to_json_doc,
            star_graph_2x2,
        )

        to_dot, to_doc = parametric_to_dot, parametric_to_json_doc
        if args.what == "congr":
            g = congruence_graph(args.n, args.kind or "classes")
        elif args.n != 2:
            raise ValueError("the *congruence closure graph is available for n = 2")
        else:
            g = star_graph_2x2()
    if args.format == "dot":
        sys.stdout.write(to_dot(g))
    else:
        _emit(to_doc(g))


def _cmd_template(args) -> None:
    from .congruence import congruence_template, star_template
    from .templates import miniversal_template, template_ascii, template_to_json_doc

    if args.what == "sim":
        if not args.jordan:
            raise ValueError("template sim needs --jordan")
        tmpl = miniversal_template(_parse_jordan(args.jordan))
    else:
        if not args.form:
            raise ValueError(f"template {args.what} needs --form FILE")
        form = _load_form(args.form)
        tmpl = congruence_template(form) if args.what == "congr" else star_template(form)
    if args.format == "ascii":
        sys.stdout.write(template_ascii(tmpl))
    else:
        _emit(template_to_json_doc(tmpl))


def _cmd_reduce(args) -> None:
    from .reduction import reduce_to_miniversal
    from .templates import DEFAULT_PATTERN_TOL

    t = _parse_jordan(args.jordan)
    E = _load_matrix(args.pert)
    res = reduce_to_miniversal(t, E, tol=args.tol if args.tol is not None else DEFAULT_PATTERN_TOL)
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
    hit = find_arrow_witness(src, dst, eps=args.eps, tol=_default_tol(args))
    doc = {"from": format_compact(src), "to": format_compact(dst), "found": hit is not None}
    if hit is not None:
        doc["positions"] = [list(p) for p in hit.positions]
        doc["matrix"] = _matrix_to_doc(hit.matrix)
    _emit(doc)


# each subcommand: its help line, handler and arguments as (flag, add_argument keywords)
_SUBCOMMANDS = {
    "weyr": ("block-count sequence of a matrix at an eigenvalue", _cmd_weyr, (
        ("--matrix", {"required": True}),
        ("--lambda", {"dest": "lam", "required": True}),
        ("--tol", {"type": float}),
    )),
    "codim": ("numeric orbit codimension", _cmd_codim, (
        ("--action", {"required": True, "choices": ["sim", "congr", "star"]}),
        ("--matrix", {"required": True}),
        ("--tol", {"type": float}),
    )),
    "graph": ("closure graphs", _cmd_graph, (
        ("what", {"choices": ["sim", "bundle", "congr", "star"]}),
        ("--n", {"type": int, "required": True}),
        ("--nilpotent", {"action": "store_true"}),
        ("--kind", {"choices": ["classes", "bundles"]}),
        ("--format", {"choices": ["json", "dot"], "default": "json"}),
    )),
    "template": ("miniversal deformation templates", _cmd_template, (
        ("what", {"choices": ["sim", "congr", "star"]}),
        ("--jordan", {"help": "compact notation (sim)"}),
        ("--form", {"help": "canonical-form JSON file (congr/star)"}),
        ("--format", {"choices": ["json", "ascii"], "default": "json"}),
    )),
    "reduce": ("reduce J+E to miniversal form", _cmd_reduce, (
        ("--jordan", {"required": True}),
        ("--pert", {"required": True, "help": "perturbation matrix JSON file"}),
        ("--tol", {"type": float}),
    )),
    "classify": ("congruence canonical form of a small matrix", _cmd_classify, (
        ("--matrix", {"required": True}),
        ("--tol", {"type": float}),
    )),
    "survey": ("random-perturbation bundle survey", _cmd_survey, (
        ("--jordan", {"required": True}),
        ("--eps", {"type": float, "required": True}),
        ("--trials", {"type": int, "required": True}),
        ("--seed", {"type": int, "required": True}),
        ("--mode", {"choices": ["dense", "strict_upper"], "default": "dense"}),
        ("--radius", {"type": float, "help": "cluster radius (default: the library's)"}),
        ("--tol", {"type": float}),
        ("--full", {"action": "store_true", "help": "include per-trial data"}),
    )),
    "witness": ("sparse perturbation realizing a graph edge", _cmd_witness, (
        ("--from", {"dest": "src", "required": True}),
        ("--to", {"dest": "dst", "required": True}),
        ("--eps", {"type": float, "default": 1e-3}),
        ("--tol", {"type": float}),
    )),
}


def _build_parser(command: str | None) -> _Parser:
    """Every subcommand with its help line, but only ``command`` with its
    arguments: argparse reads no other subcommand's, so building them would
    only lengthen every process's start."""
    p = _Parser(prog="strata", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_line, _, arguments) in _SUBCOMMANDS.items():
        s = sub.add_parser(name, help=help_line)
        if name == command:
            for flag, options in arguments:
                s.add_argument(flag, **options)
    return p


def run(argv) -> int:
    argv = list(argv)
    # the top-level parser has no option that takes a value, so its first
    # argument without a leading dash is the subcommand
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        _SUBCOMMANDS[args.command][1](args)
        return 0
    except NumericalAmbiguityError as exc:
        print(f"numerical ambiguity: {exc}", file=sys.stderr)
        return 2
    except (StrataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    # the command has printed: the interpreter's closing collections skip
    # every object alive now (numpy, the layers, the result), while stdout
    # and stderr are still flushed and atexit handlers still run
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
