"""Benchmark worker: runs program calls inside one interpreter.

The first stdin line is a JSON job:

    {"seed": 1, "draws": 2}
        prepare the inputs of 2 numerics draws and answer {"ready": true};
        then each {"pass": i} line runs one pass over draw i and answers
        the time of each call by kind, and {"done": true} answers the
        oracle verdicts of every call made (checked only now, untimed).
    {"seed": 1, "draws": 1, "passes": [0, 0], "cli": [argv, ...], "trace": true}
        run every CLI command and numerics pass twice, plain and then with
        every public function of the program wrapped by the tracer; answer
        the traced outputs, the per-layer figures and both wall times.
        CLI commands go through ``matstrata.cli.run`` in-process with the
        program's caches cleared first, as in a fresh process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import inputs
import oracles

from matstrata import cli, congruence, perturb, reduction, tangent, templates
from matstrata.congruence import Block, CongruenceForm, StarForm
from matstrata.errors import NumericalAmbiguityError, StrataError
from matstrata.structure import EigLabel, JordanType, Partition

from tracing import Tracer

CODIM_FN = {
    "sim": "similarity_codim_numeric",
    "congr": "congruence_codim_numeric",
    "star": "star_congruence_codim_numeric",
}
OP_KINDS = ("codim", "reduce", "template", "classify", "witness", "estimate")


class Op(NamedTuple):
    """One timed program call: ``check`` gives the oracle's problems and
    ``fault`` names the known program fault a failure of it comes from."""

    kind: str
    seconds: float
    value: object
    check: Callable[[], list]
    fault: Callable[[], str | None] = lambda: None
    transform: str = ""


def jordan_type(struct: dict) -> JordanType:
    return JordanType({EigLabel.concrete(l): Partition(p) for l, p in struct.items()})


def program_form(form, star: bool):
    blocks = tuple(Block(k, s, p) for k, s, p in form)
    return StarForm(blocks) if star else CongruenceForm(blocks)


def _perturbed_members(base: np.ndarray, kinds, rng):
    """A template member (random values in the parameter cells) and the
    same member with one pinned cell moved."""
    free = np.array([[k != "fixed" for k in row] for row in kinds])
    M = base + np.where(free, 0.1 * (rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape)), 0)
    pinned = np.argwhere(~free)
    if not len(pinned):
        return M, None
    bad = M.copy()
    i, j = pinned[rng.integers(len(pinned))]
    bad[i, j] += 1e-3
    return M, bad


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


def prepare(seed: int, draws: int) -> list[dict]:
    """Inputs of every draw, converted to the program's types (untimed)."""
    out = []
    for index in range(draws):
        data = inputs.numerics_pass(seed, index)
        data["reduce_t"] = [jordan_type(s) for s, _ in data["reduce"]]
        data["witness_t"] = [(jordan_type({0.0: q}), jordan_type({0.0: p})) for q, p in data["witness"]]
        out.append(data)
    return out


def _timed(fn, *args):
    start = perf_counter()
    try:
        value = fn(*args)
    except (StrataError, ValueError) as exc:
        return perf_counter() - start, exc
    return perf_counter() - start, value


def run_pass(data: dict) -> list[Op]:
    """One pass of numerics calls, each timed alone."""
    records = []
    rng = np.random.default_rng(data["template_rng_seed"])
    for action, info, A in data["codim"]:
        dt, v = _timed(getattr(tangent, CODIM_FN[action]), A)
        records.append(Op(
            "codim", dt, v, lambda a=action, i=info, v=v: _or_error(v, lambda: oracles.check_codim(a, i, v)),
            lambda i=info: i.get("known_fault"),
        ))
    for (struct, E), t in zip(data["reduce"], data["reduce_t"]):
        dt, res = _timed(reduction.reduce_to_miniversal, t, E)
        records.append(Op(
            "reduce", dt, res,
            lambda s=struct, E=E, r=res: _or_error(r, lambda: oracles.check_reduce(s, E, r.S, r.D, r.pattern_ok)),
        ))
        records.append(_template_op("sim", struct, lambda t=t: templates.miniversal_template(t), inputs.jordan(struct), rng))
    for form in data["congr_forms"]:
        pf = program_form(form, star=False)
        records.append(_template_op("congr", form, lambda f=pf: congruence.congruence_template(f), inputs.form_matrix(form), rng))
    for form in data["star_forms"]:
        pf = program_form(form, star=True)
        records.append(_template_op("star", form, lambda f=pf: congruence.star_template(f), inputs.form_matrix(form), rng))
    for form, A in data["classify"]:
        dt, got = _timed(congruence.classify_congruence, A)
        blocks = got if isinstance(got, Exception) else [(b.kind, b.size, b.param) for b in got.blocks]
        records.append(Op("classify", dt, blocks, lambda f=form, b=blocks: _or_error(b, lambda: oracles.check_classify(f, b))))
    for (q, p), (tq, tp) in zip(data["witness"], data["witness_t"]):
        dt, hit = _timed(perturb.find_arrow_witness, tq, tp)
        pos = None if hit is None or isinstance(hit, Exception) else hit.positions
        E = None if hit is None or isinstance(hit, Exception) else hit.matrix
        records.append(Op(
            "witness", dt, (pos, E) if not isinstance(hit, Exception) else hit,
            lambda q=q, p=p, pos=pos, E=E, h=hit: _or_error(h, lambda: oracles.check_witness(q, p, pos, E)),
        ))
    for struct, transform, A in data["estimate"]:
        start = perf_counter()
        try:
            est = perturb.numeric_jordan_type(A)
            entries = [(l.value, p.parts) for l, p in est.entries]
        except NumericalAmbiguityError as exc:
            entries = f"{exc}"
        records.append(estimate_op(struct, transform, A, entries, perf_counter() - start))
    return records


def estimate_op(struct, transform, A, entries, seconds) -> Op:
    return Op(
        "estimate", seconds, entries, lambda: oracles.check_estimate(struct, entries),
        lambda: oracles.estimate_fault(struct, A, entries), transform,
    )


def _template_op(case, spec, build, base, rng):
    start = perf_counter()
    try:
        tmpl = build()
    except (StrataError, ValueError) as exc:
        return Op("template", perf_counter() - start, exc, lambda e=exc: [f"raised {e!r}"])
    dt = perf_counter() - start
    member, moved = _perturbed_members(base, tmpl.kinds, rng)
    start = perf_counter()
    ok = templates.pattern_check(member, tmpl).ok
    bad = None if moved is None else templates.pattern_check(moved, tmpl).ok
    dt += perf_counter() - start
    return Op("template", dt, (tmpl.kinds, ok, bad), lambda: oracles.check_template(case, spec, tmpl.kinds, ok, bad))


def _or_error(value, check):
    if isinstance(value, Exception):
        return [f"raised {value!r}"]
    return check()


def fingerprint(value) -> str:
    """Stable text of an output, for comparing a plain and a traced pass."""
    if isinstance(value, np.ndarray):
        return hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
    if isinstance(value, reduction.ReductionResult):
        return fingerprint((value.S, value.D, value.residual, value.iterations, value.pattern_ok))
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(fingerprint(v) for v in value) + "]"
    return repr(value)


def summarize(records: list[Op]) -> dict:
    """Oracle verdicts and per-kind timings of a list of numerics calls.

    A failed call counts in ``failed``; unless a known fault explains it,
    it is also a problem, which makes the run incorrect."""
    ops = {k: {"calls": 0, "seconds": 0.0, "failed": 0} for k in OP_KINDS}
    faults: dict[str, int] = defaultdict(int)
    outcomes: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # passed, wrong, abstained
    problems = []
    for op in records:
        ops[op.kind]["calls"] += 1
        ops[op.kind]["seconds"] += op.seconds
        try:
            found = op.check()
        except ValueError as exc:  # an oracle that cannot decide
            found = [f"oracle: {exc}"]
        if op.kind == "estimate":
            outcomes[op.transform][0 if not found else (2 if isinstance(op.value, str) else 1)] += 1
        if not found:
            continue
        ops[op.kind]["failed"] += 1
        fault = op.fault()
        if fault is None:
            problems.append(f"{op.kind}: {found[0]}")
        else:
            faults[f"{op.kind}:{fault}"] += 1
    return {
        "ops": ops,
        "wall_s": sum(o["seconds"] for o in ops.values()),
        "attempted": sum(o["calls"] for o in ops.values()),
        "failed": sum(o["failed"] for o in ops.values()),
        "known_faults": dict(faults),
        "estimate_outcomes": {k: dict(zip(("passed", "wrong", "abstained"), v)) for k, v in outcomes.items()},
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# in-process CLI
# ---------------------------------------------------------------------------


def _cached_functions() -> list:
    return [
        value
        for name, mod in list(sys.modules.items())
        if name.startswith("matstrata.")
        for value in vars(mod).values()
        if hasattr(value, "cache_clear")
    ]


def run_cli(argv, caches) -> tuple[dict, float]:
    """One CLI command in-process, its caches cleared as in a fresh process."""
    for fn in caches:
        fn.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    seconds = perf_counter() - start
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}, seconds


def traced_round(argvs, data) -> dict:
    """Each command and numerics pass runs plain, then at once traced, so
    that a drift in machine speed falls on both sides of the overhead."""
    caches = _cached_functions()
    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    outputs, traced, mismatches = [], [], []

    def traced_call(fn, *args):
        tracer.install()
        try:
            return fn(*args)
        finally:
            tracer.uninstall()

    for argv in argvs:
        plain, t_plain = run_cli(argv, caches)
        out, t_traced = traced_call(run_cli, argv, caches)
        plain_wall += t_plain
        traced_wall += t_traced
        outputs.append(out)
        if out != plain:
            mismatches.append(" ".join(argv))
    for d in data:
        plain = run_pass(d)
        ops = traced_call(run_pass, d)
        plain_wall += sum(op.seconds for op in plain)
        traced_wall += sum(op.seconds for op in ops)
        traced += ops
        mismatches += [t.kind for t, p in zip(ops, plain) if fingerprint(t.value) != fingerprint(p.value)]
    layers = tracer.layer_metrics()
    layers["reduction.split_sweeps"] = sum(
        op.value.iterations for op in traced if op.kind == "reduce" and not isinstance(op.value, Exception)
    )
    result = summarize(traced)
    result.update(
        cli=outputs,
        layers=layers,
        samples=tracer.sample_counts(),
        plain_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        mismatches=mismatches,
    )
    return result


# ---------------------------------------------------------------------------


def serve(data: list[dict]) -> None:
    """Run passes on request, one JSON line in and one out, so the caller
    can spread them over its round; check everything at the end."""
    records = []
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if "pass" not in request:
            break
        ops = run_pass(data[request["pass"]])
        records += ops
        times = {k: [op.seconds for op in ops if op.kind == k] for k in OP_KINDS}
        print(json.dumps({"times": times, "seconds": sum(op.seconds for op in ops)}), flush=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = summarize(records)
    result["peak_rss_mb"] = peak
    print(json.dumps(result), flush=True)


def main() -> None:
    job = json.loads(sys.stdin.readline())
    data = prepare(job["seed"], job["draws"])
    if job.get("trace"):
        print(json.dumps(traced_round(job["cli"], [data[i] for i in job["passes"]])))
    else:
        serve(data)


if __name__ == "__main__":
    main()
