import contextlib
import io
import json
import time

import numpy as np
import pytest

from matstrata.cli import run


def invoke(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return code, out.getvalue()


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

    def test_ambiguity_exit_code(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.diag([1.0, 1e-8]))
        code, _ = invoke("weyr", "--matrix", path, "--lambda", "0")
        assert code == 2


class TestCodimCommand:
    def test_congruence_identity(self, tmp_path):
        path = write_matrix(tmp_path / "id2.json", np.eye(2))
        code, out = invoke("codim", "--action", "congr", "--matrix", path)
        assert code == 0 and json.loads(out)["codim"] == 1

    def test_env_tolerance_override(self, tmp_path, monkeypatch):
        # eigenvalue pair split by 1e-6: visible at the default tolerance,
        # folded together at the loose one
        path = write_matrix(tmp_path / "m.json", np.diag([1.0, 2.0, 2.0 + 1e-6]))
        code, out = invoke("codim", "--action", "sim", "--matrix", path)
        assert code == 0 and json.loads(out)["codim"] == 3
        monkeypatch.setenv("STRATA_TOL", "1e-3")
        code, out = invoke("codim", "--action", "sim", "--matrix", path)
        assert code == 0 and json.loads(out)["codim"] == 5


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
        code, _ = invoke("graph", "sim", "--n", "12")
        assert code == 1

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

    def test_symbolic_labels_rejected(self, tmp_path):
        path = write_matrix(tmp_path / "e.json", np.zeros((2, 2)))
        assert invoke("reduce", "--jordan", "a^2", "--pert", path)[0] == 1

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tolerance_refused(self, tmp_path, rng, capsys, tol):
        E = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = write_matrix(tmp_path / "e.json", 1e-3 * E / np.linalg.norm(E))
        code, out = invoke("reduce", "--jordan", "(0)^3 (1)", "--pert", path, f"--tol={tol}")
        assert code == 1 and out == ""
        assert "pattern tolerance must be finite" in capsys.readouterr().err

    def test_default_tolerance_is_the_library_default(self, tmp_path, monkeypatch, capsys):
        from matstrata import reduction

        path = write_matrix(tmp_path / "e.json", np.zeros((3, 3)))
        assert invoke("reduce", "--jordan", "(0)^3", "--pert", path)[0] == 0
        # without --tol the command must pass on whatever the library default is
        monkeypatch.setattr(reduction, "DEFAULT_PATTERN_TOL", -1.0)
        assert invoke("reduce", "--jordan", "(0)^3", "--pert", path)[0] == 1
        assert "got -1.0" in capsys.readouterr().err


class TestClassifyCommand:
    def test_display(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.array([[0, 2], [1, 0]]))
        code, out = invoke("classify", "--matrix", path)
        doc = json.loads(out)
        assert code == 0 and doc["display"] == "H1(2)"

    def test_size_guard(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.zeros((4, 4)))
        assert invoke("classify", "--matrix", path)[0] == 1


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

    def test_non_finite(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"n": 1, "rows": [[[1e999, 0]]]}))
        assert invoke("weyr", "--matrix", str(path), "--lambda", "0")[0] == 1

    def test_rows_not_a_list(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"rows": 5}))
        assert invoke("codim", "--action", "sim", "--matrix", str(path))[0] == 1

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

    def test_oversized_matrix_file(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m13.json", np.eye(13))
        assert self.refused(capsys, "weyr", "--matrix", path, "--lambda", "1")
        assert self.refused(capsys, "codim", "--action", "sim", "--matrix", path)
        assert self.refused(capsys, "classify", "--matrix", path)


class TestRankTolerance:
    """--tol and STRATA_TOL are refused outside (0, 1) by every command that ranks."""

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

    def test_env_tolerance_refused(self, monkeypatch):
        monkeypatch.setenv("STRATA_TOL", "5")
        assert invoke("survey", "--jordan", "(0)^2", "--eps", "1e-3",
                      "--trials", "3", "--seed", "1")[0] == 1

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
