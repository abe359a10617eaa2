import numpy as np
import pytest

from matstrata import (
    EigLabel,
    JordanType,
    NumericalAmbiguityError,
    Partition,
    bundle_types,
    canonical_bundle_labeling,
    eigen_clusters,
    find_arrow_witness,
    jordan_matrix,
    numeric_jordan_type,
    numeric_weyr,
    parse_compact,
    random_survey,
    weyr_of,
)
from matstrata.graphs import build_class_graph
from conftest import random_complex

conc = EigLabel.concrete


def jt(d):
    return JordanType({k: Partition(v) for k, v in d.items()})


class TestClusters:
    def test_defective_pair_is_one_cluster(self):
        out = eigen_clusters(jordan_matrix(jt({conc(5): (2,)})))
        assert len(out) == 1
        center, mult = out[0]
        assert mult == 2 and abs(center - 5) < 1e-8

    def test_below_radius_merges(self):
        out = eigen_clusters(np.diag([0.0, 1e-9]), cluster_radius=1e-6)
        assert len(out) == 1 and out[0][1] == 2

    def test_separated_points_split(self):
        out = eigen_clusters(np.diag([0.0, 1.0]), cluster_radius=1e-6)
        assert [m for _, m in out] == [1, 1]

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            eigen_clusters(np.eye(2), cluster_radius=0.0)


class TestNumericWeyr:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_single_coupling_entries(self, lam, eps):
        J = jordan_matrix(jt({conc(lam): (2, 2)}))
        outer = J.copy()
        outer[1, 3] = eps
        inner = J.copy()
        inner[1, 2] = eps
        assert numeric_weyr(outer, lam, 1e-8) == (2, 1, 1)
        assert numeric_weyr(inner, lam, 1e-8) == (1, 1, 1, 1)

    def test_semisimple(self):
        assert numeric_weyr(np.diag([7.0, 7.0]), 7.0) == (2,)

    def test_zero_matrix(self):
        assert numeric_weyr(np.zeros((4, 4)), 0.0) == (4,)

    def test_ambiguous_singular_value_reported(self):
        A = np.diag([1.0, 1e-8])
        with pytest.raises(NumericalAmbiguityError):
            numeric_weyr(A, 0.0, tol=1e-8)

    def test_recovers_canonical_structures_up_to_6(self):
        pool = [0, 1, 2 + 1j, -1.5, 3j, 5]
        for n in range(1, 7):
            for b in bundle_types(n):
                t = JordanType(
                    {conc(pool[i]): p for i, (_, p) in enumerate(b.entries)}
                )
                J = jordan_matrix(t)
                for label, part in t.entries:
                    w = numeric_weyr(J, label.value, 1e-8)
                    assert w == weyr_of(t, label)


class TestNumericJordanType:
    def test_two_labels(self):
        t = jt({conc(0): (3,), conc(2): (1,)})
        assert numeric_jordan_type(jordan_matrix(t)) == t

    def test_generic_diagonalizable(self, rng):
        A = random_complex(rng, 5)
        t = numeric_jordan_type(A)
        assert all(p.parts == (1,) for _, p in t.entries)
        assert len(t.labels) == 5

    def test_consistent_with_reduction_output(self, rng):
        from matstrata import reduce_to_miniversal

        t = jt({conc(0): (3, 2)})
        E = random_complex(rng, 5, norm=1e-4)
        res = reduce_to_miniversal(t, E)
        got = numeric_jordan_type(res.D)
        expect = numeric_jordan_type(jordan_matrix(t) + E)
        assert canonical_bundle_labeling(got) == canonical_bundle_labeling(expect)


class TestSurvey:
    def test_zero_eps_observes_base(self):
        t = jt({conc(0): (2, 1)})
        rep = random_survey(t, 0.0, trials=5, seed=11)
        assert rep.passed
        assert set(rep.counts()) == {"λ²λ"}

    def test_full_block_explodes_generically(self):
        rep = random_survey(jt({conc(0): (4,)}), 1e-3, trials=300, seed=42)
        assert rep.passed
        assert max(rep.counts(), key=rep.counts().get) == "λμνξ"

    def test_strict_upper_stays_in_dominance_cone(self):
        t = jt({conc(0): (2, 2)})
        rep = random_survey(t, 1e-3, trials=300, seed=7, mode="strict_upper")
        assert rep.passed
        assert set(rep.counts()) <= {"λ²λ²", "λ³λ", "λ⁴"}

    def test_strict_upper_weyr_prefixes_bounded(self):
        # eigenvalue-preserving perturbations can only sharpen the structure
        t = jt({conc(0): (2, 2)})
        base_w = weyr_of(t, conc(0))
        children = np.random.SeedSequence(3).spawn(100)
        J = jordan_matrix(t)
        for child in children:
            rng = np.random.default_rng(child)
            R = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
            A = J + 1e-3 * R / np.linalg.norm(R)
            w = numeric_weyr(A, 0.0, 1e-8)
            for k in range(len(base_w)):
                assert sum(base_w[: k + 1]) >= sum(w[: k + 1])

    def test_determinism(self):
        t = jt({conc(0): (2, 1, 1)})
        a = random_survey(t, 1e-3, trials=50, seed=123)
        b = random_survey(t, 1e-3, trials=50, seed=123)
        assert a.observed == b.observed and a.violations == b.violations

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            random_survey(jt({conc(0): (2,)}), 1e-3, trials=0, seed=1)


class TestWitness:
    def test_published_positions_realize_the_moves(self):
        J = jt({conc(0): (2, 2)})
        Jm = jordan_matrix(J)
        spread, collapse = Jm.copy(), Jm.copy()
        spread[1, 3] = 1e-3
        collapse[1, 2] = 1e-3
        assert numeric_jordan_type(spread).entries[0][1].parts == (3, 1)
        assert numeric_jordan_type(collapse).entries[0][1].parts == (4,)

    def test_search_finds_single_entries(self):
        J = jt({conc(0): (2, 2)})
        for target, parts in [("(0)^3 (0)", (3, 1)), ("(0)^4", (4,))]:
            hit = find_arrow_witness(J, parse_compact(target))
            assert hit is not None and len(hit.positions) == 1
            got = numeric_jordan_type(jordan_matrix(J) + hit.matrix)
            assert got.entries[0][1].parts == parts

    def test_every_4x4_chain_edge_has_single_witness(self):
        g = build_class_graph(4, nilpotent=True)
        for a, b in g.edges:
            hit = find_arrow_witness(g.vertex(a).structure, g.vertex(b).structure)
            assert hit is not None and len(hit.positions) == 1

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            find_arrow_witness(jt({conc(0): (4,)}), jt({conc(0): (2, 2)}))
        with pytest.raises(ValueError):
            find_arrow_witness(jt({conc(1): (2,)}), jt({conc(1): (2,)}))


class TestPerturbationSize:
    @pytest.mark.parametrize("eps", [float("inf"), float("nan"), -1.0, -1e-12])
    def test_survey_refuses_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            random_survey(jt({conc(0): (2,)}), eps, trials=3, seed=1)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, float("inf"), float("nan")])
    def test_witness_refuses_eps(self, eps):
        J = jt({conc(0): (2,)})
        with pytest.raises(ValueError, match="eps"):
            find_arrow_witness(J, J, eps=eps)
