import numpy as np
import pytest

from matstrata import (
    EigLabel,
    JordanType,
    NumericalAmbiguityError,
    Partition,
    bundle_types,
    canonical_bundle_labeling,
    conjugate_partition,
    eigen_clusters,
    find_arrow_witness,
    jordan_matrix,
    numeric_jordan_type,
    numeric_weyr,
    parse_compact,
    random_survey,
    weyr_of,
)
from matstrata import perturb
from matstrata.graphs import build_bundle_graph, build_class_graph, reachable
from matstrata.structure import format_display
from matstrata.tangent import guarded_rank
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

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0, 0.0])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="cluster radius must be finite"):
            eigen_clusters(np.eye(2), cluster_radius=radius)


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

    def test_rising_block_counts_abstain(self):
        # ranks 4, 2 against each power's own scale: one block, then two
        A = np.diag([1e-6, 1e-6, 1.0, 1.0], 1)
        with pytest.raises(NumericalAmbiguityError, match="not monotone") as info:
            numeric_weyr(A, 0.0, 1e-8)
        assert info.value.details == {"w": [1, 2]}

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


class TestToleranceRefused:
    @pytest.mark.parametrize("tol", [5.0, float("nan"), -1.0, 0.0, 1.0])
    def test_survey_refuses_tol_before_any_trial(self, tol):
        # every trial of this survey is all singletons, so no rank is ever taken
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            random_survey(parse_compact("(0)^2"), 1e-3, 5, 1, tol=tol)

    @pytest.mark.parametrize("tol", [5.0, float("nan"), -1.0])
    def test_estimator_refuses_tol_without_multiple_eigenvalues(self, tol):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            numeric_jordan_type(np.diag([0.0, 1.0]), tol=tol)

    def test_survey_refuses_mode(self):
        with pytest.raises(ValueError, match="unknown perturbation mode"):
            random_survey(parse_compact("(0)^2"), 1e-3, 5, 1, mode="lower")


# ---------------------------------------------------------------------------
# Reference: the survey estimated one trial at a time with the scalar
# estimator, as it was before trials were stacked.  The stacked survey must
# report exactly what this loop reports.
# ---------------------------------------------------------------------------


def reference_clusters(A, radius):
    if not np.tril(A, -1).any() or not np.triu(A, 1).any():
        eigs = np.diag(A).astype(complex)
    else:
        eigs = np.linalg.eigvals(A)
    parent = list(range(len(eigs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if abs(eigs[i] - eigs[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(eigs)):
        groups.setdefault(find(i), []).append(eigs[i])
    out = [(complex(np.mean(v)), len(v)) for v in groups.values()]
    return sorted(out, key=lambda cm: (cm[0].real, cm[0].imag))


def reference_weyr(A, lam, tol):
    n = A.shape[0]
    B = A - complex(lam) * np.eye(n)
    P = np.eye(n, dtype=complex)
    prev, w = n, []
    for _ in range(n):
        P = P @ B
        r = guarded_rank(P, tol)
        wj = prev - r
        if wj < 0 or (w and wj > w[-1]):
            raise NumericalAmbiguityError("rank sequence of powers is not monotone")
        if wj == 0:
            break
        w.append(wj)
        prev = r
        if r == 0:
            break
    return tuple(w)


def reference_jordan_type(A, radius, tol):
    entries = {}
    for center, mult in reference_clusters(A, radius):
        w = (1,) if mult == 1 else reference_weyr(A, center, tol)
        if sum(w) != mult:
            raise NumericalAmbiguityError(
                f"cluster at {center:.6g} has multiplicity {mult} but the "
                f"rank sequence accounts for {sum(w)}"
            )
        entries[conc(center)] = conjugate_partition(Partition(w))
    return JordanType(entries)


def reference_survey(t, eps, trials, seed, mode, radius, tol=1e-8):
    J, n = jordan_matrix(t), t.n
    graph, base = build_bundle_graph(n), canonical_bundle_labeling(t)
    children = np.random.SeedSequence(seed).spawn(trials)
    observed, violations = [], []
    for k in range(trials):
        rng = np.random.default_rng(children[k])
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if mode == "strict_upper":
            R = np.triu(R, 1)
        norm = np.linalg.norm(R)
        A = J + eps * (R / norm if norm > 0 else R)
        try:
            b = canonical_bundle_labeling(reference_jordan_type(A, radius, tol))
        except NumericalAmbiguityError as exc:
            violations.append({"trial": k, "reason": f"ambiguous estimate: {exc}"})
            observed.append((k, "?"))
            continue
        observed.append((k, format_display(b)))
        if not reachable(graph, base, b):
            violations.append(
                {"trial": k, "reason": "unreachable bundle", "observed": format_display(b)}
            )
    return tuple(observed), tuple(violations)


def outcome(fn, *args):
    """A JordanType, or the type and message of the error raised."""
    try:
        return fn(*args)
    except NumericalAmbiguityError as exc:
        return type(exc), str(exc)


class TestStackedSurvey:
    @pytest.mark.parametrize("base", ["(0)^4", "(0)^2 (1)^2", "(0)^3 (0)^2 (0)"])
    def test_equals_one_trial_at_a_time(self, base):
        t = parse_compact(base)
        abstained = 0
        for mode in ("dense", "strict_upper"):
            for eps in (0.0, 1e-6, 1e-3, 0.3):
                for radius in (1e-6, 1e-2, 0.5):
                    rep = random_survey(t, eps, 20, 5, mode, radius)
                    want = reference_survey(t, eps, 20, 5, mode, radius)
                    assert (rep.observed, rep.violations) == want, (mode, eps, radius)
                    abstained += sum(s == "?" for _, s in rep.observed)
        # the sweep reaches the abstaining branches, not only clean estimates
        assert abstained > 0

    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
    def test_stack_boundaries(self, trials):
        t = parse_compact("(0)^2 (0)^2")
        for mode in ("dense", "strict_upper"):
            rep = random_survey(t, 1e-2, trials, 17, mode, 1e-2)
            assert [k for k, _ in rep.observed] == list(range(trials))
            want = reference_survey(t, 1e-2, trials, 17, mode, 1e-2)
            assert (rep.observed, rep.violations) == want

    def test_mixed_stack_rows_equal_stack_of_one(self):
        rng = np.random.default_rng(8)
        Q = np.linalg.qr(random_complex(rng, 3))[0]

        def rotated(compact):
            return Q @ jordan_matrix(parse_compact(compact)) @ Q.conj().T

        mats = [
            random_complex(rng, 3),  # generic: eigenvalues all apart
            np.triu(random_complex(rng, 3)),  # triangular
            jordan_matrix(parse_compact("(0)^3")),  # triangular, one multiple eigenvalue
            rotated("(0)^2 (1)"),  # defective
            rotated("(0)^2 (0)"),  # rank sequence not monotone
            np.array([[0, 1, 0], [0, 0, 1e-8], [0, 0, 0]]),  # singular value in the band
            np.diag([0.0, 1e-7, 1e-3]),  # cluster wider than its rank sequence
        ]
        radius, tol = 1e-6, 1e-8
        rows = perturb._estimate(np.array(mats, dtype=complex), radius, tol)
        kinds = set()
        for A, got in zip(mats, rows):
            if isinstance(got, NumericalAmbiguityError):
                got = type(got), str(got)
                kinds.add(got[1].split(" ")[0])
            else:
                kinds.add("estimate")
            assert got == outcome(numeric_jordan_type, A, radius, tol)
            assert got == outcome(reference_jordan_type, A, radius, tol)
        assert kinds == {"estimate", "rank", "singular", "cluster"}
