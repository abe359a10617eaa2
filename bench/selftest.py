"""Self-test of the benchmark's oracles: every check must pass on the
program's real output and fail on a corrupted copy of it.

    python3 bench/selftest.py      (from the repository root)

Exits 1 and names the check when a corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import oracles
import run

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from matstrata import perturb, reduction, templates  # noqa: E402
from matstrata.errors import NumericalAmbiguityError  # noqa: E402
from matstrata.structure import EigLabel, JordanType, Partition  # noqa: E402

failures: list[str] = []


def expect(name: str, problems, should_fail: bool) -> None:
    if bool(problems) != should_fail:
        failures.append(f"{name}: {'passed' if not problems else problems[:2]}")


def strata(*argv: str) -> str:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "matstrata.cli", *argv], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout


def graphs() -> None:
    argv = ["graph", "bundle", "--n", "5"]
    doc = json.loads(strata(*argv))
    dot = oracles.read_graph(argv + ["--format", "dot"], strata(*argv, "--format", "dot"))
    expect("bundle graph", oracles.check_graph_output(argv, json.dumps(doc)), False)
    expect("bundle JSON vs DOT", oracles.same_graph(doc, dot), False)

    bad = copy.deepcopy(doc)
    bad["edges"].pop(3)
    expect("dropped edge (JSON vs DOT)", oracles.same_graph(bad, dot), True)
    bad = copy.deepcopy(doc)
    bad["vertices"][4]["dim"] += 1
    expect("wrong bundle dim", oracles.check_graph_output(argv, json.dumps(bad)), True)
    bad = copy.deepcopy(doc)
    source, sink = bad["vertices"][0]["id"], bad["vertices"][-1]["id"]
    bad["edges"].append([source, sink])
    expect("implied edge", oracles.check_graph_output(argv, json.dumps(bad)), True)
    bad = copy.deepcopy(doc)
    gone = bad["vertices"].pop(5)["id"]
    bad["edges"] = [e for e in bad["edges"] if gone not in e]
    expect("missing vertex", oracles.check_graph_output(argv, json.dumps(bad)), True)
    bad = copy.deepcopy(doc)
    bad["edges"] = [e for e in bad["edges"] if e[1] != sink]
    expect("second sink", oracles.check_graph_output(argv, json.dumps(bad)), True)

    argv = ["graph", "sim", "--n", "6", "--nilpotent"]
    doc = json.loads(strata(*argv))
    expect("nilpotent graph", oracles.check_graph_output(argv, json.dumps(doc)), False)
    bad = copy.deepcopy(doc)
    bad["edges"].pop(2)
    expect("dropped edge (dominance order)", oracles.check_graph_output(argv, json.dumps(bad)), True)

    argv = ["graph", "congr", "--n", "3", "--kind", "bundles"]
    doc = json.loads(strata(*argv))
    expect("congruence graph", oracles.check_graph_output(argv, json.dumps(doc)), False)
    bad = copy.deepcopy(doc)
    bad["families"][3]["dim"] -= 1
    expect("wrong family dim", oracles.check_graph_output(argv, json.dumps(bad)), True)
    bad = copy.deepcopy(doc)
    a = bad["arrows"][0]
    a["src"], a["dst"] = a["dst"], a["src"]
    expect("arrow lowering dim", oracles.check_graph_output(argv, json.dumps(bad)), True)
    argv = ["graph", "star", "--n", "2"]
    doc = json.loads(strata(*argv))
    expect("*congruence graph", oracles.check_graph_output(argv, json.dumps(doc)), False)
    dot = oracles.read_graph(argv + ["--format", "dot"], strata(*argv, "--format", "dot"))
    next(a for a in dot["arrows"] if a["condition"])["condition"] = ""
    expect("arrow condition lost in DOT", oracles.same_graph(doc, dot), True)


def survey() -> None:
    for base, mode, generic, broken in (
        ("(0)^4", "dense", "λμνξ", "λ²μν"),
        ("(0)^2 (1)^2", "strict_upper", "λ²μ²", "λ²μν"),
    ):
        argv = inputs.survey_argv(base, mode, 50, 7)
        out = strata(*argv)
        problems, trials, failed, _ = oracles.check_survey_output(argv, out)
        expect(f"{mode} survey", problems or ([f"{failed} failed"] if failed else []), False)
        doc = json.loads(out)
        doc["observed"][10][1] = broken
        tally = run.Tally()
        tally.add_cli(argv, 0, json.dumps(doc), "", 1.0)
        expect(f"non-generic {mode} observation", tally.problems if tally.failed == 1 else [], True)
        doc["observed"][10][1] = "?"
        problems, _, failed, abstained = oracles.check_survey_output(argv, json.dumps(doc))
        expect(f"abstention without a violation ({mode})", problems, True)
        assert generic in out


def numerics() -> None:
    data = inputs.numerics_pass(5, 0)
    for action, info, _ in data["codim"][:6]:
        want = oracles.check_codim(action, info, -1)[0].split()[-1]
        expect(f"{action} codim", oracles.check_codim(action, info, int(want)), False)
        expect(f"off-by-one {action} codim", oracles.check_codim(action, info, int(want) + 1), True)

    struct, E = next((s, E) for s, E in data["reduce"] if oracles.fixed_mask(s).any() and len(s) > 1)
    t = JordanType({EigLabel.concrete(l): Partition(p) for l, p in struct.items()})
    res = reduction.reduce_to_miniversal(t, E)
    expect("reduction", oracles.check_reduce(struct, E, res.S, res.D, res.pattern_ok), False)
    D = res.D.copy()
    i, j = np.argwhere(oracles.fixed_mask(struct))[0]
    D[i, j] += 1e-6
    expect("reduction off a pinned cell", oracles.check_reduce(struct, E, res.S, D, res.pattern_ok), True)
    S = res.S + 0.05
    expect("reduction far from identity", oracles.check_reduce(struct, E, S, np.linalg.solve(S, (inputs.jordan(struct) + E) @ S), True), True)

    kinds = [list(row) for row in templates.miniversal_template(t).kinds]
    expect("template", oracles.check_template("sim", struct, kinds, True, False), False)
    kinds[i][j] = "star"
    expect("template with an extra parameter", oracles.check_template("sim", struct, kinds, True, False), True)
    expect("pattern_check accepting a pinned change", oracles.check_template("sim", struct, templates.miniversal_template(t).kinds, True, True), True)

    form = next(f for f, _ in data["classify"] if any(isinstance(p, complex) for _, _, p in f))
    expect("classification", oracles.check_classify(form, list(form)), False)
    expect("wrong classification", oracles.check_classify(form, [("Gamma", 2, None)]), True)
    shifted = [(k, s, None if p is None else complex(p) + 1e-3) for k, s, p in form]
    expect("wrong H parameter", oracles.check_classify(form, shifted), True)

    def nilpotent(p):
        return JordanType({EigLabel.concrete(0.0): Partition(p)})

    hit = perturb.find_arrow_witness(nilpotent((2, 1, 1)), nilpotent((2, 2)))
    expect("witness", oracles.check_witness((2, 1, 1), (2, 2), hit.positions, hit.matrix), False)
    expect("witness reaching another structure", oracles.check_witness((2, 1, 1), (3, 1), hit.positions, hit.matrix), True)
    expect("missing witness", oracles.check_witness((2, 1, 1), (2, 2), None, None), True)

    struct = {0.0: (2, 1), 1.0: (1,)}
    expect("estimate", oracles.check_estimate(struct, [(1e-12, (2, 1)), (1.0, (1,))]), False)
    expect("wrong estimate", oracles.check_estimate(struct, [(0.0, (3,)), (1.0, (1,))]), True)
    expect("abstained estimate", oracles.check_estimate(struct, oracles.NOT_MONOTONE), True)
    estimate_faults()


def estimate_faults() -> None:
    """A failed estimate is put down to a known fault only on its evidence;
    any other failure makes the run incorrect."""

    def summary(struct, A, entries):
        return worker.summarize([worker.estimate_op(struct, "unitary", A, entries, 1e-3)])

    def estimate(A):
        try:
            return [(l.value, p.parts) for l, p in perturb.numeric_jordan_type(A).entries]
        except NumericalAmbiguityError as exc:
            return f"{exc}"

    found = {}
    for struct, _, A in inputs.estimate_battery(0):
        entries = estimate(A)
        fault = oracles.estimate_fault(struct, A, entries) if oracles.check_estimate(struct, entries) else "passed"
        key = (fault, len(struct), max(max(p) for p in struct.values()))
        found.setdefault(key, (struct, A, entries))
    for key in (("fixed_cluster_radius", 1, 3), ("own_scale_rank", 1, 3)):
        struct, A, entries = found[key]
        s = summary(struct, A, entries)
        expect(f"estimate failing through {key[0]}", s["problems"] or ([] if s["failed"] == 1 else ["not counted"]), False)
    # estimates of inputs whose eigenvalues group right at radius 1e-6:
    # a passing two-eigenvalue case, and a nilpotent one that abstains
    for key in (("passed", 2, 3), ("own_scale_rank", 1, 3)):
        struct, A, entries = found[key]
        if key[0] == "passed":
            expect("passing estimate", summary(struct, A, entries)["problems"], False)
        wrong = [(lam, (1,) * sum(p)) for lam, p in struct.items()]
        expect(f"wrong estimate with the right clusters {struct}", summary(struct, A, wrong)["problems"], True)
        expect(f"abstention with the right clusters {struct}",
               summary(struct, A, "singular values fall inside the rank-tolerance band")["problems"], True)
    struct, A, _ = found[("passed", 2, 3)]
    expect("non-monotone abstention without a roundoff power", summary(struct, A, oracles.NOT_MONOTONE)["problems"], True)


if __name__ == "__main__":
    graphs()
    survey()
    numerics()
    for f in failures:
        print("NOT CAUGHT", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} corruptions not caught")
    sys.exit(1 if failures else 0)
