"""End-to-end acceptance battery.

Ten checks, each with its tolerance and time budget pinned in place,
printing one PASS line apiece (visible with -s or -rA).  Expected graphs
are spelled out vertex by vertex and edge by edge.
"""

import contextlib
import io
import itertools
import json
import time

import numpy as np

from matstrata import (
    EigLabel,
    JordanType,
    Partition,
    bundle_types,
    build_class_graph,
    canonical_matrix,
    congruence_codim_numeric,
    find_arrow_witness,
    format_display,
    has_arrow,
    jordan_matrix,
    miniversal_template,
    normalize_form,
    numeric_weyr,
    orbit_codim,
    random_survey,
    real_param_count,
    reduce_to_miniversal,
    similarity_codim_numeric,
    star_congruence_codim_numeric,
    star_count,
    star_graph_2x2,
    star_template,
)
from matstrata.cli import run
from matstrata.congruence import (
    Block,
    CongruenceForm,
    StarForm,
    congruence_entries,
    congruence_template,
    form_display,
    star_entries,
)

conc = EigLabel.concrete


def jt(d):
    return JordanType({k: Partition(v) for k, v in d.items()})


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    assert code == 0, f"cli {argv} exited {code}"
    return json.loads(out.getvalue())


def edge_set(doc):
    nota = {v["id"]: v["notation"] for v in doc["vertices"]}
    return {(nota[a], nota[b]) for a, b in doc["edges"]}


def report(k, msg):
    print(f"[acceptance {k}] PASS — {msg}")


def test_criterion_01_similarity_class_graphs():
    t0 = time.monotonic()
    chain = cli_json("graph", "sim", "--n", "4", "--nilpotent")
    assert [v["notation"] for v in chain["vertices"]] == [
        "0000", "0²00", "0²0²", "0³0", "0⁴",
    ]
    assert edge_set(chain) == {
        ("0000", "0²00"), ("0²00", "0²0²"), ("0²0²", "0³0"), ("0³0", "0⁴"),
    }

    six = cli_json("graph", "sim", "--n", "6", "--nilpotent")
    expected_vertices = {
        "0⁶": 30, "0⁵0": 28, "0⁴0²": 26, "0³0³": 24, "0⁴00": 24,
        "0³0²0": 22, "0²0²0²": 18, "0³000": 18, "0²0²00": 16,
        "0²0000": 10, "000000": 0,
    }
    assert {v["notation"]: v["dim"] for v in six["vertices"]} == expected_vertices
    assert edge_set(six) == {
        ("000000", "0²0000"), ("0²0000", "0²0²00"),
        ("0²0²00", "0²0²0²"), ("0²0²00", "0³000"),
        ("0²0²0²", "0³0²0"), ("0³000", "0³0²0"),
        ("0³0²0", "0³0³"), ("0³0²0", "0⁴00"),
        ("0³0³", "0⁴0²"), ("0⁴00", "0⁴0²"),
        ("0⁴0²", "0⁵0"), ("0⁵0", "0⁶"),
    }
    assert len(six["edges"]) == 12

    quot = cli_json("graph", "sim", "--n", "4")
    assert {v["notation"]: v["dim"] for v in quot["vertices"]} == {
        "λ⁴": 12, "λ³μ": 12, "λ²μ²": 12, "λ²μν": 12, "λμνξ": 12,
        "λ³λ": 10, "λ²λμ": 10, "λ²μμ": 10, "λλμν": 10,
        "λ²λ²": 8, "λλμμ": 8, "λ²λλ": 6, "λλλμ": 6, "λλλλ": 0,
    }
    assert edge_set(quot) == {
        ("λλλλ", "λ²λλ"), ("λ²λλ", "λ²λ²"), ("λ²λ²", "λ³λ"), ("λ³λ", "λ⁴"),
        ("λλλμ", "λ²λμ"), ("λ²λμ", "λ³μ"), ("λλμμ", "λ²μμ"),
        ("λ²μμ", "λ²μ²"), ("λλμν", "λ²μν"),
    }
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"4x4 chain, 6x6 nilpotent graph, 4x4 quotient graph exact ({elapsed:.2f}s)")


def test_criterion_02_bundle_graph():
    t0 = time.monotonic()
    doc = cli_json("graph", "bundle", "--n", "4")
    assert {v["notation"]: v["dim"] for v in doc["vertices"]} == {
        "λμνξ": 16, "λ²μν": 15, "λ³μ": 14, "λ²μ²": 14, "λ⁴": 13,
        "λλμν": 13, "λ²λμ": 12, "λ²μμ": 12, "λ³λ": 11, "λλμμ": 10,
        "λ²λ²": 9, "λλλμ": 8, "λ²λλ": 7, "λλλλ": 1,
    }
    edges = edge_set(doc)
    assert edges == {
        ("λ²μν", "λμνξ"), ("λ³μ", "λ²μν"), ("λ²μ²", "λ²μν"),
        ("λ⁴", "λ³μ"), ("λ⁴", "λ²μ²"), ("λλμν", "λ²μν"),
        ("λ²λμ", "λ³μ"), ("λ²λμ", "λλμν"), ("λ²μμ", "λ²μ²"),
        ("λ²μμ", "λλμν"), ("λ³λ", "λ⁴"), ("λ³λ", "λ²λμ"),
        ("λ³λ", "λ²μμ"), ("λλμμ", "λ²μμ"), ("λ²λ²", "λ³λ"),
        ("λ²λ²", "λλμμ"), ("λλλμ", "λ²λμ"), ("λ²λλ", "λλλμ"),
        ("λ²λλ", "λ²λ²"), ("λλλλ", "λ²λλ"),
    }
    assert len(edges) == 20
    assert ("λ²λλ", "λλλμ") in edges
    assert ("λ⁴", "λ²μ²") in edges
    assert ("λ³λ", "λλλμ") not in edges
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(2, f"4x4 bundle graph exact: 14 vertices, 20 edges ({elapsed:.2f}s)")


def test_criterion_03_codimension_triple_agreement():
    t0 = time.monotonic()
    pool = [0, 1, 2 + 1j]
    checked = 0
    for n in range(1, 6):
        for b in bundle_types(n):
            if len(b.labels) > len(pool):
                labels = pool + [3 - 1j, -2]  # orders <= 5 need at most 5 labels
            else:
                labels = pool
            t = JordanType(
                {conc(labels[i]): p for i, (_, p) in enumerate(b.entries)}
            )
            k = orbit_codim(t)
            assert star_count(miniversal_template(t)) == k, format_display(t)
            assert similarity_codim_numeric(jordan_matrix(t)) == k, format_display(t)
            checked += 1
    spot = jt({conc(0): (2, 1), conc(1): (1,)})
    assert orbit_codim(spot) == 6
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(3, f"closed form = star count = numeric rank on {checked} structures ({elapsed:.2f}s)")


def test_criterion_04_congruence_tables():
    t0 = time.monotonic()
    checked = 0
    for size in (2, 3):
        for entry in congruence_entries(size):
            for lam in (2.0, 3 + 1j, 0.5):
                form = normalize_form(entry.make(lam=lam))
                stars = star_count(congruence_template(form))
                codim = congruence_codim_numeric(canonical_matrix(form))
                assert stars == codim, form_display(form)
                checked += 1
    H1 = CongruenceForm((Block("H", 2, 2.0),))
    assert star_count(congruence_template(H1)) == 1
    z2 = CongruenceForm((Block("N", 1), Block("N", 1)))
    assert star_count(congruence_template(z2)) == 4
    z3 = CongruenceForm((Block("N", 1),) * 3)
    assert star_count(congruence_template(z3)) == 9
    elapsed = time.monotonic() - t0
    report(4, f"all {checked} tabulated congruence deformations match numeric codim ({elapsed:.2f}s)")


def test_criterion_05_star_congruence_tables():
    t0 = time.monotonic()
    mus_pool = [1 + 0j, -1 + 0j, 1j, np.exp(1j * np.pi / 3)]
    checked = 0
    for size in (2, 3):
        for entry in star_entries(size):
            lams = [0.3, 0.5j] if entry.has_lambda else [None]
            for lam in lams:
                for mus in itertools.product(mus_pool, repeat=entry.n_mu):
                    form = entry.make(lam=lam, mus=mus)
                    params = real_param_count(star_template(form))
                    codim = star_congruence_codim_numeric(canonical_matrix(form))
                    assert params == codim, form_display(form)
                    checked += 1
    for tau in (1.0, 1j, np.exp(1j * np.pi / 3)):
        u2 = StarForm((Block("U", 2, tau),))
        assert real_param_count(star_template(u2)) == 2
        assert star_congruence_codim_numeric(canonical_matrix(u2)) == 2  # dim_R 6 = 8-2
    elapsed = time.monotonic() - t0
    report(5, f"all {checked} tabulated *congruence deformations match numeric codim ({elapsed:.2f}s)")


def test_criterion_06_reduction_engine():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    structures = [
        jt({conc(0): (3, 2)}),
        jt({conc(0): (3, 2), conc(1): (1,)}),
        jt({conc(0): (2, 1), conc(1): (1,)}),
    ]
    eps = 1e-4
    for t in structures:
        n = t.n
        J = jordan_matrix(t)
        for _ in range(100):
            E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            E *= eps / np.linalg.norm(E)
            res = reduce_to_miniversal(t, E)
            assert res.pattern_ok and res.residual <= 1e-8
            cert = np.linalg.norm(res.S @ res.D - (J + E) @ res.S)
            assert cert <= 1e-10
            assert np.linalg.norm(res.S - np.eye(n)) <= 100 * eps
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(6, f"300 reductions: pattern<=1e-8, certificate<=1e-10, |S-I|<=100|E| ({elapsed:.2f}s)")


def test_criterion_07_instability_fixtures():
    t0 = time.monotonic()
    for lam in (0.0, 1.0):
        for eps in (1e-3, 1e-5):
            J = jordan_matrix(jt({conc(lam): (2, 2)}))
            outer = J.copy()
            outer[1, 3] = eps
            inner = J.copy()
            inner[1, 2] = eps
            assert numeric_weyr(outer, lam, tol=1e-8) == (2, 1, 1)
            assert numeric_weyr(inner, lam, tol=1e-8) == (1, 1, 1, 1)
    elapsed = time.monotonic() - t0
    report(7, f"coupling entries split a double 2x2 block into (3,1) or (4) ({elapsed:.2f}s)")


def test_criterion_08_star_graph_predicates():
    t0 = time.monotonic()
    g = star_graph_2x2()
    battery = [
        (("diag_l_0", (1,)), ("u_tau", (1j,)), False),
        (("diag_l_0", (1,)), ("u_tau", (1,)), True),
        (("diag_l_minus_l", (1j,)), ("u_tau", (1j,)), True),
        (("diag_l_0", (1,)), ("diag_l_l", (1,)), True),
        (("diag_l_0", (1,)), ("diag_l_l", (1j,)), False),
        (
            ("diag_l_0", (1,)),
            ("diag_mu_nu", (np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4))),
            True,
        ),
    ]
    for src, dst, expect in battery:
        assert has_arrow(g, src, dst) is expect, (src, dst)
    elapsed = time.monotonic() - t0
    report(8, f"all 6 arrow-condition queries agree ({elapsed:.2f}s)")


def test_criterion_09_bundle_survey_soundness():
    t0 = time.monotonic()
    pool = [0, 1, 2, 3]
    total = 0
    for b in bundle_types(4):
        t = JordanType({conc(pool[i]): p for i, (_, p) in enumerate(b.entries)})
        rep = random_survey(t, eps=1e-3, trials=1000, seed=42)
        assert rep.passed, (format_display(b), rep.violations[:3])
        total += rep.trials
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(9, f"{total} random perturbations across all 14 structures, zero violations ({elapsed:.2f}s)")


def test_criterion_10_witness_completeness():
    t0 = time.monotonic()
    needed_pairs = []
    for n in (4, 6):
        g = build_class_graph(n, nilpotent=True)
        for a, b in g.edges:
            src = g.vertex(a).structure
            dst = g.vertex(b).structure
            hit = find_arrow_witness(src, dst)
            assert hit is not None, (a, b)
            if len(hit.positions) > 1:
                needed_pairs.append((g.vertex(a).notation, g.vertex(b).notation))
    elapsed = time.monotonic() - t0
    tail = f"pairs needed for {needed_pairs}" if needed_pairs else "single entries throughout"
    report(10, f"witnesses for every 4x4 and 6x6 covering edge; {tail} ({elapsed:.2f}s)")
