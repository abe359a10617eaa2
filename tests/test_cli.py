import ast
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from matstrata import cli, perturb
from matstrata.cli import run


def invoke(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return code, out.getvalue()


def in_fresh_interpreter(*args):
    """Exit code, stdout and stderr of a fresh interpreter run on the source tree."""
    res = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent)), timeout=60,
    )
    return res.returncode, res.stdout, res.stderr


def write_matrix(path, A):
    A = np.asarray(A, dtype=complex)
    doc = {
        "n": A.shape[0],
        "rows": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestWeyrCommand:
    def test_zero_matrix(self, tmp_path):
        path = write_matrix(tmp_path / "zero4.json", np.zeros((4, 4)))
        code, out = invoke("weyr", "--matrix", path, "--lambda", "0")
        assert code == 0
        assert json.loads(out)["weyr"] == [4]

    def test_complex_lambda(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.diag([1j, 1j]))
        code, out = invoke("weyr", "--matrix", path, "--lambda", "1j")
        assert code == 0 and json.loads(out)["weyr"] == [2]

    @pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr
    @pytest.mark.parametrize("lam", ["nan", "inf", "1+infj"])
    def test_non_finite_lambda_refused(self, tmp_path, capsys, lam):
        path = write_matrix(tmp_path / "m.json", np.zeros((3, 3)))
        code, out = invoke("weyr", "--matrix", path, "--lambda", lam)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("error: eigenvalue") and err.count("\n") == 1, err

    def test_unparsable_lambda_refused(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", np.zeros((3, 3)))
        assert invoke("weyr", "--matrix", path, "--lambda", "x") == (1, "")
        assert capsys.readouterr().err == "error: cannot parse complex number 'x'\n"

    def test_ambiguity_exit_code(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.diag([1.0, 1e-8]))
        code, _ = invoke("weyr", "--matrix", path, "--lambda", "0")
        assert code == 2


class TestCodimCommand:
    def test_congruence_identity(self, tmp_path):
        path = write_matrix(tmp_path / "id2.json", np.eye(2))
        code, out = invoke("codim", "--action", "congr", "--matrix", path)
        assert code == 0 and json.loads(out)["codim"] == 1

    def test_env_tolerance_override(self, tmp_path):
        # eigenvalue pair split by 1e-6: visible at the default tolerance,
        # folded together at the loose one
        path = write_matrix(tmp_path / "m.json", np.diag([1.0, 2.0, 2.0 + 1e-6]))
        code, out = invoke("codim", "--action", "sim", "--matrix", path)
        assert code == 0 and json.loads(out)["codim"] == 3
        code, out = invoke("codim", "--action", "sim", "--matrix", path, "--tol", "1e-3")
        assert code == 0 and json.loads(out)["codim"] == 5

    def test_ambiguity_exit_code(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", np.diag([1.0, 1.0 + 3e-8]))
        assert invoke("codim", "--action", "sim", "--matrix", path) == (2, "")
        assert "rank-tolerance band" in capsys.readouterr().err


class TestGraphCommand:
    def test_nilpotent_chain(self):
        code, out = invoke("graph", "sim", "--n", "4", "--nilpotent")
        doc = json.loads(out)
        assert code == 0
        assert [v["notation"] for v in doc["vertices"]] == [
            "0000", "0²00", "0²0²", "0³0", "0⁴",
        ]

    def test_dot_output(self):
        code, out = invoke("graph", "bundle", "--n", "2", "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_congruence_parametric(self):
        code, out = invoke("graph", "congr", "--n", "2", "--kind", "bundles")
        doc = json.loads(out)
        assert code == 0 and len(doc["families"]) == 6 and len(doc["arrows"]) == 7

    def test_star_graph_size_guard(self):
        code, _ = invoke("graph", "star", "--n", "3")
        assert code == 1

    def test_out_of_range(self):
        code, _ = invoke("graph", "sim", "--n", "13")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("bundle", "--n", "3", "--nilpotent"),
            ("congr", "--n", "2", "--nilpotent"),
            ("star", "--n", "2", "--nilpotent"),
            ("sim", "--n", "3", "--kind", "classes"),
            ("bundle", "--n", "3", "--kind", "bundles"),
            ("star", "--n", "2", "--kind", "classes"),
        ],
    )
    def test_flag_that_does_nothing_refused(self, capsys, argv):
        code, out = invoke("graph", *argv)
        flag = "--nilpotent" if "--nilpotent" in argv else "--kind"
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith(f"error: {flag} applies to graph ")

    def test_byte_stable(self):
        a = invoke("graph", "bundle", "--n", "4")
        b = invoke("graph", "bundle", "--n", "4")
        assert a == b


class TestTemplateCommand:
    def test_sim_ascii(self):
        code, out = invoke(
            "template", "sim", "--jordan", "(0)^3 (0)^2", "--format", "ascii"
        )
        assert code == 0
        assert out.splitlines()[2].split() == ["*"] * 5

    def test_congr_form_file(self, tmp_path):
        doc = {"star": False, "blocks": [{"kind": "N", "size": 1}, {"kind": "N", "size": 1}]}
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("template", "congr", "--form", str(path))
        assert code == 0
        assert sum(1 for e in json.loads(out)["entries"] if e["kind"] == "star") == 4

    def test_star_form_file(self, tmp_path):
        doc = {"star": True, "blocks": [{"kind": "U", "size": 2, "param": [0, 1]}]}
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("template", "star", "--form", str(path))
        assert code == 0
        kinds = {e["kind"] for e in json.loads(out)["entries"]}
        assert "star" in kinds

    def test_missing_argument(self):
        assert invoke("template", "sim")[0] == 1

    @pytest.mark.parametrize("what", ["congr", "star"])
    def test_form_template_needs_a_form(self, capsys, what):
        assert invoke("template", what) == (1, "")
        assert capsys.readouterr().err == f"error: template {what} needs --form FILE\n"

    def test_star_flag_not_a_boolean_refused(self, tmp_path, capsys):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"star": "false", "blocks": [{"kind": "H", "size": 2, "param": [2, 0]}]}))
        assert invoke("template", "congr", "--form", str(path)) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: form file") and 'flag "star"' in err and err.count("\n") == 1

    @pytest.mark.parametrize("what, kind, param, value", [
        ("congr", "H", [-2, -0.0], "[-2.0, -0.0]"),
        ("star", "H*", [-0.5, -0.0], "[-0.5, -0.0]"),
    ])
    def test_signed_zero_parameter_kept(self, tmp_path, what, kind, param, value):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"star": what == "star", "blocks": [{"kind": kind, "size": 2, "param": param}]}))
        code, out = invoke("template", what, "--form", str(path))
        assert code == 0
        assert out.endswith('{"i": 1, "j": 0, "kind": "star", "value": %s}]}\n' % value), out

    def test_bare_minus_exponent_refused(self, capsys):
        assert invoke("template", "sim", "--jordan", "a^-") == (1, "")
        err = capsys.readouterr().err
        assert "bad compact notation" in err and "missing exponent" in err

    def test_symbolic_cells_carry_their_label(self):
        code, out = invoke("template", "sim", "--jordan", "a^2 b")
        values = {(e["i"], e["j"]): e.get("value") for e in json.loads(out)["entries"]}
        assert code == 0 and (values[0, 0], values[1, 1], values[2, 2]) == ("λ", "λ", "μ")


class TestReduceCommand:
    def test_round_trip(self, tmp_path, rng):
        E = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        E *= 1e-4 / np.linalg.norm(E)
        path = write_matrix(tmp_path / "e.json", E)
        code, out = invoke("reduce", "--jordan", "(0)^3 (0)^2", "--pert", path)
        doc = json.loads(out)
        assert code == 0 and doc["pattern_ok"] and doc["residual"] <= 1e-8
        S = np.array([[complex(a, b) for a, b in row] for row in doc["S"]["rows"]])
        assert np.linalg.norm(S - np.eye(5)) < 1e-2

    @pytest.mark.parametrize("command", ["reduce", "survey"])
    def test_symbolic_labels_rejected(self, tmp_path, command):
        path = write_matrix(tmp_path / "e.json", np.zeros((2, 2)))
        extra = ("--pert", path) if command == "reduce" else ("--eps", "1e-3")
        assert invoke(command, "--jordan", "a^2", *extra)[0] == 1

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tolerance_refused(self, tmp_path, rng, capsys, tol):
        E = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = write_matrix(tmp_path / "e.json", 1e-3 * E / np.linalg.norm(E))
        code, out = invoke("reduce", "--jordan", "(0)^3 (1)", "--pert", path, f"--tol={tol}")
        assert code == 1 and out == ""
        assert "pattern tolerance must be finite" in capsys.readouterr().err

    def test_tolerance_below_roundoff_is_reported_not_refused(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        E = 1e-6 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        path = write_matrix(tmp_path / "e.json", E)
        code, out = invoke("reduce", "--jordan", "(0)^2 (1)", "--pert", path, "--tol=1e-16")
        doc = json.loads(out)
        assert code == 0 and capsys.readouterr().err == ""
        assert doc["residual"] <= 1e-14 and doc["pattern_ok"] == (doc["residual"] <= 1e-16)

    def test_default_tolerance_is_the_library_default(self, tmp_path, monkeypatch, capsys):
        from matstrata import templates

        path = write_matrix(tmp_path / "e.json", np.zeros((3, 3)))
        assert invoke("reduce", "--jordan", "(0)^3", "--pert", path)[0] == 0
        # without --tol the command must pass on whatever the library default is
        monkeypatch.setattr(templates, "DEFAULT_PATTERN_TOL", -1.0)
        assert invoke("reduce", "--jordan", "(0)^3", "--pert", path)[0] == 1
        assert "got -1.0" in capsys.readouterr().err

    def test_close_eigenvalues_refused(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "e.json", 1e-5 * np.ones((3, 3)))
        code, out = invoke("reduce", "--jordan", "(0)^2 (1e-06)", "--pert", path)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error:")
        code, out = invoke("reduce", "--jordan", "(0)^2 (0.1)", "--pert", path)
        assert code == 0 and json.loads(out)["pattern_ok"]

    def test_groups_closer_than_the_gap_tolerance_refused(self, tmp_path, capsys):
        E = np.zeros((3, 3))
        E[0, 2] = 1e-5  # a between-group cell
        path = write_matrix(tmp_path / "e.json", E)
        code, out = invoke("reduce", "--jordan", "(0)^2 (1e-09)", "--pert", path)
        assert code == 1 and out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: spectra separated by")

    def test_ill_conditioned_solve_refused(self, tmp_path, capsys):
        # a 3-block 2e-8 from a 1-block, above GAP_TOL: the exact passes still
        # leave a between-group residual of about 0.72 |C| in roundoff
        E = np.zeros((4, 4))
        E[3, :3] = 1e-6 * np.array([1, 0.3, 0.7])
        path = write_matrix(tmp_path / "e.json", E)
        code, out = invoke("reduce", "--jordan", "(1)^3 (1.00000002)", "--pert", path)
        assert code == 1 and out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(
            r"error: Sylvester residual \S+ exceeds 1e-10\*\|C\|; spectral gap \S+ too small for a reliable solve", err[0]
        ), err


class TestClassifyCommand:
    def test_display(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.array([[0, 2], [1, 0]]))
        code, out = invoke("classify", "--matrix", path)
        doc = json.loads(out)
        assert code == 0 and doc["display"] == "H1(2)"

    def test_size_guard(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.zeros((4, 4)))
        assert invoke("classify", "--matrix", path)[0] == 1

    def test_h_parameter_exact_on_canonical_input(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.array([[0, 1, 0], [2, 0, 0], [0, 0, 1]]))
        code, out = invoke("classify", "--matrix", path)
        assert code == 0
        assert '"param": [2.0, 0.0]' in out and '"display": "H1(2)⊕Γ1"' in out


class TestSurveyAndWitness:
    def test_survey_smoke(self):
        code, out = invoke(
            "survey", "--jordan", "(0)^2", "--eps", "1e-3",
            "--trials", "25", "--seed", "5",
        )
        doc = json.loads(out)
        assert code == 0 and doc["passed"] and sum(doc["observed_counts"].values()) == 25

    def test_survey_full_listing(self):
        code, out = invoke(
            "survey", "--jordan", "(0)^2", "--eps", "1e-3",
            "--trials", "4", "--seed", "5", "--full",
        )
        assert code == 0 and len(json.loads(out)["observed"]) == 4

    def test_survey_violation_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(perturb, "reachable", lambda g, a, b: a == b)
        code, out = invoke("survey", "--jordan", "(0)^2", "--eps", "1e-3", "--trials", "3", "--seed", "5")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is False
        assert [v["reason"] for v in doc["violations"]] == ["unreachable bundle"] * 3

    def test_survey_refuses_a_negative_seed(self, capsys):
        code, out = invoke("survey", "--jordan", "(0)^2", "--eps", "1e-3", "--trials", "3", "--seed", "-1")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: expected non-negative integer\n"

    def test_witness(self):
        code, out = invoke("witness", "--from", "(0)^2 (0)^2", "--to", "(0)^4")
        doc = json.loads(out)
        assert code == 0 and doc["found"] and len(doc["positions"]) == 1

    def test_witness_precondition(self):
        assert invoke("witness", "--from", "(0)^4", "--to", "(0)^2 (0)^2")[0] == 1


class TestInputValidation:
    def test_missing_file(self):
        assert invoke("weyr", "--matrix", "/does/not/exist.json", "--lambda", "0")[0] == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert invoke("weyr", "--matrix", str(path), "--lambda", "0")[0] == 1

    def test_non_square(self, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({"n": 2, "rows": [[[0, 0], [0, 0]]]}))
        assert invoke("weyr", "--matrix", str(path), "--lambda", "0")[0] == 1

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_non_integer_order(self, tmp_path, capsys, n):
        path = tmp_path / "m.json"
        rows = [[[1, 0]]] if n is True else [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        path.write_text(json.dumps({"n": n, "rows": rows}))
        assert invoke("codim", "--action", "sim", "--matrix", str(path)) == (1, "")
        assert "'n' must be an integer" in capsys.readouterr().err

    def test_non_finite(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"n": 1, "rows": [[[1e999, 0]]]}))
        assert invoke("weyr", "--matrix", str(path), "--lambda", "0")[0] == 1

    def test_rows_not_a_list(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"rows": 5}))
        assert invoke("codim", "--action", "sim", "--matrix", str(path))[0] == 1

    @pytest.mark.parametrize("entry", [[0, 0, 5], [0], [], 0])
    def test_entry_not_a_pair(self, tmp_path, capsys, entry):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 1, "rows": [[entry]]}))
        assert invoke("weyr", "--matrix", str(path), "--lambda", "0") == (1, "")
        assert "[[re,im], ...]" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [
        {"kind": "N", "size": -2}, {"kind": "N", "size": 0}, {"kind": "Gamma", "size": 1.5},
    ])
    def test_bad_block_size(self, tmp_path, capsys, block):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"star": False, "blocks": [block, {"kind": "N", "size": 1}]}))
        assert invoke("template", "congr", "--form", str(path)) == (1, "")
        assert "block size" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"blocks": {"kind": "N"}}, {"blocks": [["N", 1]]}, [1, 2], {"blocks": [{"size": 1}]},
        {"star": False}, {"blocks": [{"kind": "N", "size": 1}, {"kind": "N"}]},
    ])
    def test_form_of_wrong_shape_refused(self, tmp_path, capsys, doc):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        assert invoke("template", "congr", "--form", str(path)) == (1, "")
        assert capsys.readouterr().err == (
            f"error: form file {path}: a form is an object with a \"blocks\" list of objects,"
            ' each holding "kind" and "size"\n'
        )

    def test_unknown_subcommand(self):
        assert invoke("frobnicate")[0] == 1

    def test_bad_compact_notation(self):
        assert invoke("survey", "--jordan", "a^", "--eps", "1e-3",
                      "--trials", "1", "--seed", "0")[0] == 1


class TestMatrixEnvelope:
    """Matrices beyond 12 x 12 are refused before any work is done."""

    @staticmethod
    def refused(capsys, *argv):
        code, out = invoke(*argv)
        return code == 1 and out == "" and "12x12" in capsys.readouterr().err

    def test_oversized_jordan_structure(self, capsys):
        start = time.perf_counter()
        assert self.refused(capsys, "template", "sim", "--jordan", "(0)^5000")
        assert time.perf_counter() - start < 2.0

    def test_oversized_jordan_structure_every_command(self, capsys, tmp_path):
        pert = write_matrix(tmp_path / "e.json", np.zeros((13, 13)))
        big = "(0)^12 (1)"
        assert self.refused(capsys, "reduce", "--jordan", big, "--pert", pert)
        assert self.refused(capsys, "survey", "--jordan", big, "--eps", "1e-3",
                            "--trials", "1", "--seed", "0")
        assert self.refused(capsys, "witness", "--from", big, "--to", "(0)^13")

    def test_largest_jordan_structure_accepted(self):
        code, out = invoke("template", "sim", "--jordan", "(0)^12")
        assert code == 0 and json.loads(out)["n"] == 12

    @pytest.mark.parametrize("base", ["(0)^9", "(0)^3 (0)^2 (1)^4 (2)^3"])
    def test_survey_past_order_eight(self, base):
        code, out = invoke("survey", "--jordan", base, "--eps", "1e-3", "--trials", "3", "--seed", "1")
        assert code == 0 and sum(json.loads(out)["observed_counts"].values()) == 3

    @pytest.mark.parametrize("what", ["sim", "bundle"])
    def test_graph_orders_up_to_twelve(self, capsys, what):
        code, out = invoke("graph", what, "--n", "12")
        assert code == 0 and len(json.loads(out)["vertices"]) == 2870
        assert invoke("graph", what, "--n", "13") == (1, "")
        assert capsys.readouterr().err == "error: order 13 outside supported range 1..12\n"

    def test_oversized_matrix_file(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m13.json", np.eye(13))
        assert self.refused(capsys, "weyr", "--matrix", path, "--lambda", "1")
        assert self.refused(capsys, "codim", "--action", "sim", "--matrix", path)
        assert self.refused(capsys, "classify", "--matrix", path)


class TestRankTolerance:
    """--tol is refused outside (0, 1) by every command that ranks."""

    @pytest.mark.parametrize("tol", ["-1", "0", "1", "2", "nan"])
    def test_survey_refuses_tol(self, capsys, tol):
        code, out = invoke("survey", "--jordan", "(0)^2", "--eps", "1e-3",
                           "--trials", "3", "--seed", "1", "--tol", tol)
        assert code == 1 and out == ""
        assert "tol must lie in (0, 1)" in capsys.readouterr().err

    def test_every_ranking_command_refuses(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "id2.json", np.eye(2))
        for argv in (
            ("weyr", "--matrix", path, "--lambda", "1"),
            ("codim", "--action", "sim", "--matrix", path),
            ("classify", "--matrix", path),
            ("witness", "--from", "(0)^2 (0)^2", "--to", "(0)^4"),
        ):
            assert invoke(*argv, "--tol", "-1") == (1, "")
            assert "tol must lie in (0, 1)" in capsys.readouterr().err

    def test_env_tolerance_ignored(self, monkeypatch):
        # the tolerance comes from --tol alone; no environment variable sets it
        monkeypatch.setenv("STRATA_TOL", "5")
        code, out = invoke("survey", "--jordan", "(0)^2", "--eps", "1e-3",
                           "--trials", "3", "--seed", "1")
        assert code == 0 and '"tol": 1e-08' in out

    def test_valid_tol_reported(self):
        code, out = invoke("survey", "--jordan", "(0)^2", "--eps", "1e-3",
                           "--trials", "3", "--seed", "1", "--tol", "1e-6")
        assert code == 0 and json.loads(out)["tol"] == 1e-6


class TestPerturbationSize:
    @pytest.mark.parametrize("eps", ["inf", "nan", "-1"])
    def test_survey_refuses_eps(self, capsys, eps):
        code, out = invoke("survey", "--jordan", "(0)^2", f"--eps={eps}",
                           "--trials", "3", "--seed", "1")
        assert code == 1 and out == ""
        assert "eps must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
    def test_survey_refuses_radius(self, capsys, radius):
        code, out = invoke("survey", "--jordan", "(0)^2", "--eps", "1e-3",
                           "--trials", "3", "--seed", "1", f"--radius={radius}")
        assert code == 1 and out == ""
        assert "cluster radius must be finite" in capsys.readouterr().err

    def test_survey_zero_eps_allowed(self):
        code, out = invoke("survey", "--jordan", "(0)^2", "--eps", "0",
                           "--trials", "3", "--seed", "1")
        assert code == 0 and json.loads(out)["observed_counts"] == {"λ²": 3}

    @pytest.mark.parametrize("eps", ["0", "-1e-3", "inf", "nan"])
    def test_witness_refuses_eps(self, capsys, eps):
        code, out = invoke("witness", "--from", "(0)^2", "--to", "(0)^2", f"--eps={eps}")
        assert code == 1 and out == ""
        assert "eps must be finite" in capsys.readouterr().err


class TestComplexEntries:
    """Form parameters and matrix entries pass one check: [re, im], two
    finite JSON numbers, no booleans."""

    def write_form(self, tmp_path, param_json):
        path = tmp_path / "form.json"
        path.write_text('{"star": false, "blocks": [{"kind": "H", "size": 2, "param": %s}]}' % param_json)
        return str(path)

    @pytest.mark.parametrize("param", [
        "[2, 0, 5]", "[2]", "[1e400, 0]", "[NaN, 0]", "[Infinity, 0]", "[true, 0]", "[2, false]",
        '"2"', '["2", 0]', pytest.param("[%s, 0]" % ("9" * 400), id="int-beyond-float"),
    ])
    def test_bad_form_parameter_refused(self, tmp_path, capsys, param):
        assert invoke("template", "congr", "--form", self.write_form(tmp_path, param)) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: form file") and err.count("\n") == 1

    def test_good_form_parameter_unchanged(self, tmp_path):
        code, out = invoke("template", "congr", "--form", self.write_form(tmp_path, "[2, 0]"))
        code_f, out_f = invoke("template", "congr", "--form", self.write_form(tmp_path, "[2.0, 0.0]"))
        assert code == code_f == 0 and out == out_f
        assert json.loads(out)["source"] == "H1(2)"

    @pytest.mark.parametrize("entry, message", [
        ("[true, 0]", "[[re,im], ...]"), ("[0, false]", "[[re,im], ...]"),
        ("[NaN, 0]", "entries must be finite"),
        pytest.param("[%s, 0]" % ("9" * 400), "entries must be finite", id="int-beyond-float"),
    ])
    def test_bad_matrix_entry_refused(self, tmp_path, capsys, entry, message):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "rows": [[%s]]}' % entry)
        assert invoke("codim", "--action", "sim", "--matrix", str(path)) == (1, "")
        err = capsys.readouterr().err
        assert message in err and err.startswith("error: ") and err.count("\n") == 1


class TestLibraryRefuses:
    """The CLI parses; every rule on a parsed value is the library's."""

    def test_cli_holds_no_value_check(self):
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(inspect.getsource(cli)))
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert not names & {"check_finite", "check_tol", "check_positive", "is_symbolic", "labels"}

    @pytest.mark.parametrize("argv, message", [
        (("template", "sim", "--jordan", "(0)^13"), "error: Jordan structure has order 13, beyond the supported 12x12\n"),
        (("witness", "--from", "(0)", "--to", "(0)", "--tol", "5"), "error: tol must lie in (0, 1), got 5.0\n"),
        (("survey", "--jordan", "a^2", "--eps", "1e-3", "--trials", "1", "--seed", "0"),
         'error: the Jordan matrix needs concrete eigenvalues, e.g. "(0)^3 (0)^2"\n'),
    ], ids=["order", "tol", "labels"])
    def test_library_message(self, capsys, argv, message):
        assert invoke(*argv) == (1, "")
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("what", ["matrix", "form"])
    def test_one_json_reader(self, tmp_path, capsys, what):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": [')
        argv = ("codim", "--action", "sim", "--matrix") if what == "matrix" else ("template", "congr", "--form")
        assert invoke(*argv, str(path)) == (1, "")
        assert capsys.readouterr().err.startswith(f"error: {what} file {path} is not valid JSON: ")


class TestProcessExit:
    """``main``, the entry point of ``strata`` and ``python -m matstrata.cli``,
    prints and exits as ``cli.run`` returns, though it freezes the heap first."""

    @pytest.mark.parametrize("argv, code", [
        (["graph", "bundle", "--n", "4"], 0),
        (["graph", "bundle", "--n", "13"], 1),
        (["codim", "--action", "sim", "--matrix", "NEAR"], 2),
    ], ids=["exit-0", "exit-1-refusal", "exit-2-abstention"])
    def test_process_matches_run(self, tmp_path, capsys, argv, code):
        # NEAR: eigenvalues split inside the tolerance band, so codim abstains
        argv = [write_matrix(tmp_path / "near.json", np.diag([1.0, 1.0 + 3e-8])) if a == "NEAR" else a for a in argv]
        expected = (*invoke(*argv), capsys.readouterr().err)
        assert expected[0] == code
        assert in_fresh_interpreter("-m", "matstrata.cli", *argv) == expected

    def test_atexit_runs_after_the_freeze(self):
        probe = (
            "import atexit, gc, sys\n"
            "from matstrata import cli\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "sys.argv = ['strata', 'graph', 'bundle', '--n', '2']\n"
            "cli.main()\n"
        )
        code, out, err = in_fresh_interpreter("-c", probe)
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[0])["vertices"]
        assert out.splitlines()[1:] == ["True"]
