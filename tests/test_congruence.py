import itertools
import json

import numpy as np
import pytest

from matstrata import (
    CatalogError,
    NumericalAmbiguityError,
    classify_congruence,
    congruence_codim_numeric,
    congruence_graph,
    congruence_template,
    form_to_json_doc,
    has_arrow,
    normalize_form,
    parametric_to_dot,
    parametric_to_json_doc,
    path_exists,
    star_congruence_codim_numeric,
    star_graph_2x2,
    star_template,
    real_param_count,
    star_count,
)
from matstrata.congruence import (
    Block,
    CongruenceForm,
    StarForm,
    canonical_matrix,
    congruence_entries,
    form_display,
    form_equal,
    form_from_json_doc,
    star_entries,
)
from matstrata.templates import DELTA, EPS_IM, EPS_RE, FIXED, STAR
from conftest import well_conditioned

H, G, N, U, HS = (
    lambda m, lam: Block("H", 2 * m, lam),
    lambda s: Block("Gamma", s),
    lambda s: Block("N", s),
    lambda s, mu: Block("U", s, mu),
    lambda m, lam: Block("H*", 2 * m, lam),
)


class TestBlocks:
    def test_gamma_matrices(self):
        assert np.array_equal(canonical_matrix(CongruenceForm((G(1),))), [[1]])
        assert np.array_equal(
            canonical_matrix(CongruenceForm((G(2),))), [[0, -1], [1, 1]]
        )
        assert np.array_equal(
            canonical_matrix(CongruenceForm((G(3),))),
            [[0, 0, 1], [0, -1, -1], [1, 1, 0]],
        )

    def test_h_block(self):
        A = canonical_matrix(CongruenceForm((H(1, 2.0),)))
        assert np.array_equal(A, [[0, 1], [2, 0]])

    def test_u_blocks(self):
        assert np.array_equal(
            canonical_matrix(StarForm((U(2, 1.0),))), [[0, 1], [1, 1j]]
        )
        A = canonical_matrix(StarForm((U(3, 1j),)))
        assert np.array_equal(
            A, 1j * np.array([[0, 0, 1], [0, 1, 1j], [1, 1j, 0]])
        )

    def test_kind_validation(self):
        with pytest.raises(CatalogError):
            Block("H", 3, 2.0)  # odd size
        with pytest.raises(CatalogError):
            Block("Gamma", 2, 1.0)  # parameter on a parameter-free kind
        with pytest.raises(CatalogError):
            CongruenceForm((U(2, 1.0),))  # star block in the wrong catalog


class TestNormalize:
    def test_inverts_small_lambda(self):
        f = normalize_form(CongruenceForm((H(1, 0.5),)))
        assert f.blocks[0].param == 2.0

    def test_fixed_point(self):
        f = normalize_form(CongruenceForm((H(1, 2.0),)))
        assert f.blocks[0].param == 2.0

    def test_unit_circle_picks_upper_half(self):
        f = normalize_form(CongruenceForm((H(1, np.exp(-0.4j)),)))
        assert f.blocks[0].param.imag > 0

    def test_excluded_values(self):
        with pytest.raises(CatalogError):
            normalize_form(CongruenceForm((Block("H", 4, -1.0),)))  # m=2, (-1)^3
        with pytest.raises(CatalogError):
            normalize_form(CongruenceForm((H(1, 1.0),)))
        with pytest.raises(CatalogError):
            normalize_form(CongruenceForm((H(1, 0.0),)))

    def test_minus_one_allowed_for_m1(self):
        f = normalize_form(CongruenceForm((H(1, -1.0),)))
        assert f.blocks[0].param == -1.0

    def test_star_lambda_conjugate_inverse(self):
        f = normalize_form(StarForm((HS(1, 0.5j),)))
        assert abs(f.blocks[0].param - 2j) < 1e-12

    def test_star_unimodular_enforced(self):
        with pytest.raises(CatalogError):
            normalize_form(StarForm((U(2, 1.1),)))

    def test_block_sorting(self):
        f = normalize_form(CongruenceForm((N(1), G(1), H(1, 2.0))))
        assert [b.kind for b in f.blocks] == ["H", "Gamma", "N"]


class TestCongruenceTables:
    @pytest.mark.parametrize("lam", [2.0, 3 + 1j, 0.5])
    def test_star_counts_match_numeric_codim(self, lam):
        for size in (2, 3):
            for entry in congruence_entries(size):
                form = normalize_form(entry.make(lam=lam))
                tmpl = congruence_template(form)
                assert star_count(tmpl) == congruence_codim_numeric(
                    canonical_matrix(form)
                ), form_display(form)

    def test_spot_patterns(self):
        tmpl = congruence_template(CongruenceForm((H(1, 2.0),)))
        assert tmpl.kinds[1][0] == STAR and star_count(tmpl) == 1
        tmpl = congruence_template(CongruenceForm((N(1), N(1), N(1))))
        assert star_count(tmpl) == 9
        tmpl = congruence_template(CongruenceForm((G(1), G(1), N(1))))
        stars = {(i, j) for i in range(3) for j in range(3) if tmpl.kinds[i][j] == STAR}
        assert stars == {(1, 0), (2, 0), (2, 1), (2, 2)}
        tmpl = congruence_template(CongruenceForm((N(2), N(1))))
        stars = {(i, j) for i in range(3) for j in range(3) if tmpl.kinds[i][j] == STAR}
        assert stars == {(1, 0), (1, 2), (2, 0), (2, 2)}

    def test_out_of_catalog(self):
        with pytest.raises(CatalogError):
            congruence_template(CongruenceForm((G(1),)))
        with pytest.raises(CatalogError):
            congruence_template(CongruenceForm((G(1), G(1), G(1), G(1))))
        # a standalone 2x2 nilpotent block has no tabulated row
        with pytest.raises(CatalogError):
            congruence_template(CongruenceForm((N(2),)))


class TestStarTables:
    def test_param_counts_match_numeric_codim(self):
        mus_pool = [1 + 0j, -1 + 0j, 1j, np.exp(1j * np.pi / 3)]
        for size in (2, 3):
            for entry in star_entries(size):
                lams = [0.3, 0.5j] if entry.has_lambda else [None]
                for lam in lams:
                    for mus in itertools.product(mus_pool, repeat=entry.n_mu):
                        form = entry.make(lam=lam, mus=mus)
                        tmpl = star_template(form)
                        assert real_param_count(tmpl) == star_congruence_codim_numeric(
                            canonical_matrix(form)
                        ), form_display(form)

    def test_eps_kind_depends_on_mu(self):
        tmpl = star_template(StarForm((U(1, 1.0), U(1, 1j))))
        # blocks sort with mu=i first: its eps is real, the mu=1 eps imaginary
        assert tmpl.kinds[0][0] == EPS_RE
        assert tmpl.kinds[1][1] == EPS_IM
        assert tmpl.kinds[1][0] == FIXED  # delta vanishes for i != +-1

    def test_delta_survives_for_matching_mus(self):
        tmpl = star_template(StarForm((U(1, 1.0), U(1, 1.0))))
        assert tmpl.kinds[1][0] == DELTA
        assert real_param_count(tmpl) == 4

    def test_u2_single_star(self):
        tmpl = star_template(StarForm((U(2, np.exp(0.3j)),)))
        assert tmpl.kinds[0][0] == STAR and real_param_count(tmpl) == 2


class TestClassify:
    def test_pencil_eigenvalue_pair(self):
        A = np.array([[0, 2], [1, 0]], dtype=complex)
        # det(A - s A^T) = -(2-s)(1-2s): eigenvalue pair {2, 1/2}
        s_vals = np.array([0.0, 1.0, 3.0])
        dets = [np.linalg.det(A - s * A.T) for s in s_vals]
        expect = [-(2 - s) * (1 - 2 * s) for s in s_vals]
        assert np.allclose(dets, expect)
        form = classify_congruence(A)
        assert form_equal(form, CongruenceForm((H(1, 2.0),)))

    def test_already_canonical(self):
        assert form_equal(
            classify_congruence(np.eye(2)), CongruenceForm((G(1), G(1)))
        )
        assert form_equal(
            classify_congruence(np.array([[0, 1], [-1, 0]], dtype=complex)),
            CongruenceForm((H(1, -1.0),)),
        )

    def test_nilpotent_blocks(self):
        assert form_equal(
            classify_congruence(np.array([[0, 1], [0, 0]], dtype=complex)),
            CongruenceForm((N(2),)),
        )
        assert form_equal(
            classify_congruence(np.zeros((3, 3))),
            CongruenceForm((N(1), N(1), N(1))),
        )

    def test_idempotent_and_congruence_invariant(self, rng):
        for size in (2, 3):
            for entry in congruence_entries(size):
                form = normalize_form(entry.make(lam=3 + 1j))
                A = canonical_matrix(form)
                assert form_equal(classify_congruence(A), form)
                for _ in range(100):
                    S = well_conditioned(rng, size)
                    got = classify_congruence(S.T @ A @ S)
                    assert form_equal(got, form, tol=1e-6), form_display(form)

    def test_out_of_range_size(self):
        with pytest.raises(CatalogError):
            classify_congruence(np.zeros((4, 4)))

    def test_ambiguity_reported(self):
        A = np.array([[1, 0], [0, 1e-8]], dtype=complex)
        with pytest.raises(NumericalAmbiguityError):
            classify_congruence(A)

    @pytest.mark.parametrize("tol", [float("nan"), 2.0, 1.0, 0.0, -1e-8, float("inf")])
    def test_tol_outside_unit_interval_refused(self, tol):
        for A in (np.eye(2), np.zeros((2, 2))):
            with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
                classify_congruence(A, tol=tol)


class TestCongruenceGraphs:
    def test_2x2_bundle_counts(self):
        g = congruence_graph(2, "bundles")
        assert sorted(f.dim for f in g.families) == [0, 1, 2, 3, 3, 4]
        assert len(g.arrows) == 7

    def test_2x2_class_arrows_from_rank_one(self):
        g = congruence_graph(2, "classes")
        for lam in (2.0, 5 - 1j, 0.25):
            assert has_arrow(g, ("diag_1_0", ()), ("h_lambda", (lam,)))

    def test_3x3_counts(self):
        classes = congruence_graph(3, "classes")
        bundles = congruence_graph(3, "bundles")
        assert len(classes.families) == len(bundles.families) == 12
        assert sorted(f.dim for f in bundles.families) == [
            0, 3, 3, 5, 5, 6, 6, 6, 7, 8, 8, 9,
        ]
        assert len(classes.arrows) == 17  # incl. the conditional family edge
        assert len(bundles.arrows) == 16

    def test_conditional_family_edge(self):
        g = congruence_graph(3, "classes")
        assert has_arrow(g, ("h_lambda_n1", (2.0,)), ("h_mu_gamma1", (2.0,)))
        assert has_arrow(g, ("h_lambda_n1", (2.0,)), ("h_mu_gamma1", (0.5,)))
        assert not has_arrow(g, ("h_lambda_n1", (2.0,)), ("h_mu_gamma1", (3.0,)))

    def test_class_dims_match_numeric_codim(self):
        for n in (2, 3):
            g = congruence_graph(n, "classes")
            for f in g.families:
                A = f.make(f.sample)
                assert f.dim == n * n - congruence_codim_numeric(A), f.fid

    def test_bundle_dims_add_parameter_count(self):
        for n in (2, 3):
            cls = {f.fid: f.dim for f in congruence_graph(n, "classes").families}
            for f in congruence_graph(n, "bundles").families:
                assert f.dim == cls[f.fid] + f.nparams

    def test_arrows_increase_dim(self):
        for n in (2, 3):
            for kind in ("classes", "bundles"):
                g = congruence_graph(n, kind)
                dim = {f.fid: f.dim for f in g.families}
                for a in g.arrows:
                    assert dim[a.src] < dim[a.dst]

    def test_path_through_rank_one(self):
        g = congruence_graph(2, "classes")
        assert path_exists(g, ("zero2", ()), ("h_lambda", (5.0,)))
        assert path_exists(g, ("h_lambda", (5.0,)), ("h_lambda", (5.0,)))
        assert not path_exists(g, ("h_lambda", (5.0,)), ("zero2", ()))

    def test_instance_parameter_forms(self):
        # the parameter part may be a bare scalar, a list, a tuple or a numpy
        # array; a one-element instance names a family without parameters
        g = congruence_graph(2, "classes")
        for params in (5.0, 5 + 0j, [5.0], (5.0,), np.array([5.0]), np.array(5.0)):
            assert has_arrow(g, ("h_lambda", params), ("h_lambda", (0.2,)))
            assert path_exists(g, ("zero2",), ("h_lambda", params))
            assert not path_exists(g, ("h_lambda", params), ("zero2",))
        assert has_arrow(g, ("zero2",), ("diag_1_0", ()))
        assert has_arrow(g, ("zero2",), ("zero2", []))
        assert not has_arrow(g, ("diag_1_0",), ("zero2",))


class TestStarGraph:
    def test_family_dims(self):
        g = star_graph_2x2()
        assert sorted(f.dim for f in g.families) == [0, 3, 4, 4, 6, 6, 6]

    def test_dims_match_numeric_real_codim(self):
        g = star_graph_2x2()
        for f in g.families:
            A = f.make(f.sample)
            assert f.dim == 8 - star_congruence_codim_numeric(A), f.fid

    def test_predicates(self):
        g = star_graph_2x2()
        assert not has_arrow(g, ("diag_l_0", (1,)), ("u_tau", (1j,)))
        assert has_arrow(g, ("diag_l_0", (1,)), ("u_tau", (1,)))
        assert has_arrow(g, ("diag_l_minus_l", (1j,)), ("u_tau", (1j,)))
        assert has_arrow(g, ("diag_l_0", (1,)), ("diag_l_l", (1,)))
        assert not has_arrow(g, ("diag_l_0", (1,)), ("diag_l_l", (1j,)))
        mu, nu = np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)
        assert has_arrow(g, ("diag_l_0", (1,)), ("diag_mu_nu", (mu, nu)))

    def test_cone_condition(self):
        # lam -> (mu, nu) needs lam in the cone spanned by mu and nu
        g = star_graph_2x2()
        mu, nu = np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)
        target = ("diag_mu_nu", (mu, nu))
        assert has_arrow(g, ("diag_l_0", (1,)), target)  # inside
        assert has_arrow(g, ("diag_l_0", (mu,)), target)  # on the edge
        assert has_arrow(g, ("diag_l_0", complex(nu)), target)  # on the other edge
        assert not has_arrow(g, ("diag_l_0", (-1,)), target)  # outside
        assert not has_arrow(g, ("diag_l_0", (1j,)), target)
        assert path_exists(g, ("diag_l_0", [1]), target)
        assert not path_exists(g, ("diag_l_0", np.array([-1])), target)

    def test_domain_validation(self):
        g = star_graph_2x2()
        with pytest.raises(ValueError):
            has_arrow(g, ("diag_l_0", (2.0,)), ("u_tau", (1,)))  # not unimodular
        with pytest.raises(ValueError):
            has_arrow(g, ("diag_mu_nu", (1, -1)), ("u_tau", (1,)))  # mu = -nu

    def test_reachability_examples(self):
        g = star_graph_2x2()
        for mu, nu in [(1, 1j), (np.exp(0.3j), np.exp(-2j))]:
            assert path_exists(g, ("zero", ()), ("diag_mu_nu", (mu, nu)))
        assert path_exists(g, ("zero", ()), ("u_tau", (1j,)))
        assert path_exists(g, ("u_tau", (1j,)), ("u_tau", (1j,)))

    def test_arrows_increase_dim(self):
        g = star_graph_2x2()
        dim = {f.fid: f.dim for f in g.families}
        for a in g.arrows:
            assert dim[a.src] < dim[a.dst]


class TestSerialization:
    def test_form_json_round_trip(self):
        form = normalize_form(CongruenceForm((H(1, 2 + 1j), G(1))))
        doc = form_to_json_doc(form)
        assert form_equal(form_from_json_doc(doc), form)
        sf = StarForm((U(2, 1j), N(1)))
        assert form_equal(form_from_json_doc(form_to_json_doc(sf)), sf)

    def test_parametric_docs(self):
        g = star_graph_2x2()
        doc = parametric_to_json_doc(g)
        assert {a["src"] for a in doc["arrows"]} <= {f["id"] for f in doc["families"]}
        assert json.dumps(doc) == json.dumps(parametric_to_json_doc(g))
        dot = parametric_to_dot(g)
        assert "τ = ±λ" in dot
