import os
import subprocess
import sys

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
from matstrata.tangent import RANK_BAND, band_ranks, guarded_rank
from conftest import random_complex

conc = EigLabel.concrete


def jt(d):
    return JordanType({k: Partition(v) for k, v in d.items()})


def _band_reference(row: list, tol: float, ref) -> int | tuple:
    """The band rule on one row of singular values: the rank, or the
    (message, details) of the abstention."""
    thr = tol * ((row[0] if row else 0.0) if ref is None else ref)
    band = [v for v in row if thr / RANK_BAND < v < thr * RANK_BAND]
    if band:
        return ("singular values fall inside the rank-tolerance band", {"band": band, "threshold": thr})
    return len([v for v in row if v >= thr]) if thr > 0 else 0


def _scales(s: np.ndarray, ref) -> list:
    """One scale per row of s: ``ref``, or for None each row's largest
    value, taken as its first (0 when the row is empty)."""
    return [(row[0] if row else 0.0) if ref is None else ref for row in s.tolist()]


def _band_outcome(r) -> int | tuple:
    return (str(r), r.details) if isinstance(r, NumericalAmbiguityError) else r


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

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_non_finite_eigenvalue_refused(self, lam):
        with pytest.raises(ValueError, match="not finite"):
            numeric_weyr(np.zeros((3, 3)), lam)

    @pytest.mark.parametrize("lam", [
        True, False, np.True_,
        pytest.param("1", id="str"), pytest.param(np.str_("1"), id="np-str"), pytest.param(b"1", id="bytes"),
    ])
    def test_bool_eigenvalue_refused_before_any_work(self, monkeypatch, lam):
        # complex(True) is 1 and complex("1") is 1: a bool or a string would
        # silently pass as an eigenvalue
        monkeypatch.setattr(perturb, "check_finite", lambda *a: pytest.fail("work started"))
        with pytest.raises(TypeError, match="eigenvalue must be a number"):
            numeric_weyr(np.eye(2), lam)

    def test_rising_block_counts_abstain(self):
        # ranks 4, 2 against each power's own scale: one block, then two
        A = np.diag([1e-6, 1e-6, 1.0, 1.0], 1)
        with pytest.raises(NumericalAmbiguityError, match="not monotone") as info:
            numeric_weyr(A, 0.0, 1e-8)
        assert info.value.details == {"w": [1, 2]}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200, 1e300])
    def test_same_answer_near_the_ends_of_the_float_range(self, scale):
        # each A - lam I is scaled by a power of two first, so no power overflows
        A = jordan_matrix(jt({conc(1): (2,), conc(2): (1,)})) * scale
        assert numeric_weyr(A, scale) == (1, 1)
        assert numeric_weyr(A, 2 * scale) == (1,)
        if scale >= 1:  # at 1e-200 every eigenvalue lies within the absolute cluster radius
            assert numeric_jordan_type(A) == jt({conc(scale): (2,), conc(2 * scale): (1,)})

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

    def test_unreachable_bundle_is_a_violation(self, monkeypatch):
        # with every bundle but the base refused, the check has to fail
        monkeypatch.setattr(perturb, "reachable", lambda g, a, b: a == b)
        assert random_survey(jt({conc(0): (2,)}), 0.0, trials=3, seed=5).passed
        rep = random_survey(jt({conc(0): (2,)}), 1e-3, trials=3, seed=5)
        assert not rep.passed
        assert list(rep.violations) == [
            {"trial": k, "reason": "unreachable bundle", "observed": "λμ"} for k in range(3)
        ]

    def test_determinism(self):
        t = jt({conc(0): (2, 1, 1)})
        a = random_survey(t, 1e-3, trials=50, seed=123)
        b = random_survey(t, 1e-3, trials=50, seed=123)
        assert a.observed == b.observed and a.violations == b.violations

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            random_survey(jt({conc(0): (2,)}), 1e-3, trials=0, seed=1)

    @pytest.mark.parametrize("bad, match", [
        ({"trials": 2**32}, r"trials must be below 2\*\*32"),  # a spawn key is one uint32 word
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": 3.0}, "trials must be an integer, got 3.0"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"eps": -1.0}, "eps must be finite"),
        ({"eps": True}, "eps must be finite and >= 0, got True"),
        ({"cluster_radius": True}, "cluster radius must be finite and > 0, got True"),
        ({"mode": "lower"}, "unknown perturbation mode"),
        ({"cluster_radius": 0.0}, "cluster radius must be finite"),
        ({"tol": 5.0}, r"tol must lie in \(0, 1\)"),
        ({"seed": -1}, "expected non-negative integer"),  # NumPy's own errors
        ({"seed": 1.5}, "SeedSequence expects int"),
        ({"seed": [1, 2]}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer, got True"),
    ], ids=["trials", "half-trials", "float-trials", "bool-trials", "eps", "bool-eps", "bool-radius",
            "mode", "radius", "tol", "negative-seed", "float-seed", "list-seed", "bool-seed"])
    def test_arguments_checked_before_any_work(self, monkeypatch, bad, match):
        def refuse(*args):
            raise AssertionError("work started before the arguments were checked")

        for name in ("build_bundle_graph", "jordan_matrix", "canonical_bundle_labeling"):
            monkeypatch.setattr(perturb, name, refuse)
        args = dict(t=jt({conc(0): (2,)}), eps=1e-3, trials=3, seed=1) | bad
        with pytest.raises((ValueError, TypeError), match=match):
            random_survey(**args)


class TestSeedHash:
    """The survey's seed hash against NumPy's SeedSequence."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7])
    @pytest.mark.parametrize("first", [0, 64, 1984])
    def test_child_words_equal_spawned_state(self, seed, first):
        got = perturb._child_words(np.random.SeedSequence(seed), first, 64)
        children = np.random.SeedSequence(seed).spawn(first + 64)[first:]
        want = np.array([c.generate_state(4, np.uint64) for c in children])
        assert got.dtype == np.uint64 and np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("mode", ["dense", "strict_upper"])
    def test_directions_equal_each_lone_draw(self, n, mode):
        words = perturb._child_words(np.random.SeedSequence(n), 0, 64)
        got = perturb._random_directions(words, n, mode)
        for k, child in enumerate(np.random.SeedSequence(n).spawn(64)):
            rng = np.random.default_rng(child)
            R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if mode == "strict_upper":
                R = np.triu(R, 1)
            norm = np.linalg.norm(R)
            want = R / norm if norm > 0 else R
            assert got[k].tobytes() == want.tobytes(), k  # bit for bit, signed zeros too
        if n == 1 and mode == "strict_upper":  # every draw is zero: the norms > 0 guard
            assert not got.any()


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

    @pytest.mark.parametrize("tol", [5.0, 1.0, 0.0, float("nan")])
    @pytest.mark.parametrize("order", [1, 2])
    def test_tolerance_refused_whatever_the_search_space(self, order, tol):
        # at order 1 there is no position to try, so no rank is ever taken
        J = jt({conc(0): (1,) * order})
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            find_arrow_witness(J, J, tol=tol)

    @pytest.mark.parametrize("src, dst", [("(1)^12 (2)", "(0)^13"), ("(0)^2", "(0)^13"), ("(0)^13", "(0)^2")])
    def test_order_beyond_the_envelope_refused_before_the_nilpotent_check(self, src, dst):
        with pytest.raises(ValueError, match="beyond the supported 12x12"):
            find_arrow_witness(parse_compact(src), parse_compact(dst))

    def test_exhausted_search_returns_none(self, monkeypatch):
        # no one or two strictly-upper entries give the zero 4x4 matrix rank 3
        tried = []

        def counted(A, lam, tol):
            tried.append(A)
            return numeric_weyr(A, lam, tol)

        monkeypatch.setattr(perturb, "numeric_weyr", counted)
        assert find_arrow_witness(parse_compact("(0) (0) (0) (0)"), parse_compact("(0)^4")) is None
        assert len(tried) == 6 + 15  # every single entry, then every pair, above the diagonal

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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
class TestNonFiniteMatrixRefused:
    @staticmethod
    def matrix(bad):
        return np.array([[0, 1], [0, bad]])

    def test_eigen_clusters(self, bad):
        with pytest.raises(ValueError, match="matrix must be finite"):
            eigen_clusters(self.matrix(bad))

    def test_numeric_weyr(self, bad):
        with pytest.raises(ValueError, match="matrix must be finite"):
            numeric_weyr(self.matrix(bad), 0.0)

    def test_numeric_jordan_type(self, bad):
        with pytest.raises(ValueError, match="matrix must be finite"):
            numeric_jordan_type(self.matrix(bad))


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
        rows = [
            s if isinstance(s, NumericalAmbiguityError) else JordanType({conc(c): p for c, p in s})
            for s in perturb._estimate_sizes(np.array(mats, dtype=complex), radius, tol)
        ]
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


class TestOneDecisionPath:
    @pytest.mark.parametrize("radius", [1e-6, 1e-3, 0.5])
    def test_chain_of_twelve_is_one_cluster(self, radius):
        # neighbours lie 0.9 radius apart, so only the closure over the whole
        # 11-link chain joins the two ends
        A = np.diag(0.9 * radius * np.arange(12)).astype(complex)
        want = reference_clusters(A, radius)
        assert [m for _, m in want] == [12]
        assert eigen_clusters(A, radius) == want
        assert perturb._clusters(np.array([np.diag(A)] * 3), radius) == [want] * 3

    @pytest.mark.parametrize("ref", [None, 2.0, 0.0])
    def test_stacked_band_rule_equals_each_matrix_alone(self, ref):
        mats = [
            np.diag([2.0, 1.0, 0.0]),  # clean: rank 2
            np.zeros((3, 3)),  # all zero
            np.diag([1.0, 1e-8, 0.0]),  # a singular value on the threshold
        ]
        s = np.linalg.svd(np.array(mats), compute_uv=False)
        rows = band_ranks(s, 1e-8, _scales(s, ref))
        assert len(rows) == len(mats)
        if ref is None:
            for M, got in zip(mats, rows):
                try:
                    want = guarded_rank(M, 1e-8)
                except NumericalAmbiguityError as exc:
                    assert isinstance(got, NumericalAmbiguityError)
                    assert (str(got), got.details) == (str(exc), exc.details)
                else:
                    assert got == want
            assert rows[:2] == [2, 0] and isinstance(rows[2], NumericalAmbiguityError)
        elif ref == 2.0:
            # threshold 2e-8 against the fixed scale: 1e-8 lies in the band
            assert rows[:2] == [2, 0]
            assert isinstance(rows[2], NumericalAmbiguityError)
            assert rows[2].details == {"band": [1e-8], "threshold": 2e-8}
        else:
            assert rows == [0, 0, 0]
        # edge rows, an empty stack and a large seeded stack (both sides of
        # any switch on the stack's size), each row against the rule written out
        thr = 1e-8 * (1.0 if ref is None else ref)
        edges = np.array([
            [1.0, thr, 0.0, 0.0],  # exactly at thr: counted by the rank, but inside the band
            [1.0, thr * RANK_BAND, thr / RANK_BAND, 0.0],  # band edges: not ambiguous
            [1.0, 0.5, thr * RANK_BAND / 1.5, thr / RANK_BAND * 1.5],
        ])
        rng = np.random.default_rng(7)
        big = 10.0 ** rng.uniform(-6, 0, size=(160, 5))
        big[:, 0] = 1.0  # every row's scale is 1, so thr is the same whatever ref is
        big[:, 4] = 10.0 ** rng.uniform(-16, -11, size=160)
        big[::9] = 0.0
        big[1::9, 1:3] = [thr * RANK_BAND, thr / RANK_BAND]
        planted = [r for r in np.flatnonzero(rng.random(160) < 0.2).tolist() if r % 9 > 1]
        big[planted, 1 + np.array(planted) % 4] = thr * 10.0 ** rng.uniform(-0.99, 0.99, size=len(planted))
        big = -np.sort(-big, axis=1)
        for s in (edges, big, np.zeros((4, 0)), np.zeros((0, 3))):
            got = band_ranks(s, 1e-8, _scales(s, ref))
            assert [_band_outcome(r) for r in got] == [_band_reference(row, 1e-8, ref) for row in s.tolist()]
        assert [_band_outcome(r) for r in band_ranks(edges, 1e-8, _scales(edges, ref))] == (
            [0, 0, 0] if ref == 0.0 else [
                ("singular values fall inside the rank-tolerance band", {"band": [thr], "threshold": thr}),
                2,
                ("singular values fall inside the rank-tolerance band",
                 {"band": [thr * RANK_BAND / 1.5, thr / RANK_BAND * 1.5], "threshold": thr}),
            ]
        )
        n_band = sum(isinstance(r, NumericalAmbiguityError) for r in band_ranks(big, 1e-8, _scales(big, ref)))
        assert n_band == (0 if ref == 0.0 else len(planted)) and len(planted) > 10


# ---------------------------------------------------------------------------
# eigenvalues of triangular stacks: LAPACK's balancing isolates them exactly
# ---------------------------------------------------------------------------

# far apart at every scale below, so every cluster (radius 1e-6) holds one
# repeated value and its center does not depend on its members' order
SEPARATED = np.array([0, 1, -2.5, 1j, 3 + 4j])
# inside one cluster radius of each other
CLOSE = np.array([0, 1e-9, 2e-9, 1e-7])


def triangular_stacks():
    """(kind, stack) of upper-, lower- and permuted-triangular complex stacks
    with repeated diagonal entries, of orders 1..12 at spread scales, each
    strictly triangular part dense or sparse; upper stacks also with
    diagonals whose distinct values lie inside one cluster."""
    rng = np.random.default_rng(22)
    for n in range(1, 13):
        for scale, values in [(10.0 ** k, SEPARATED) for k in (-4, 0, 4, 8, 12)] + [(1.0, CLOSE)]:
            R = np.array([random_complex(rng, n, strict_upper=True) for _ in range(8)])
            R[4:] *= rng.random((4, n, n)) < 0.3
            U = scale * (R + rng.choice(values, (8, n))[:, :, None] * np.eye(n))
            yield "upper", U
            if values is SEPARATED:
                p = rng.permutation(n)
                yield "lower", np.ascontiguousarray(U.transpose(0, 2, 1))
                yield "permuted", U[:, p][:, :, p]


def diagonal_reference_sizes(A, radius, tol):
    """_estimate_sizes with each matrix's diagonal taken as its eigenvalues."""
    clusters = perturb._clusters(np.diagonal(A, axis1=1, axis2=2).copy(), radius)
    jobs = [(k, c) for k, cs in enumerate(clusters) for c, mult in cs if mult > 1]
    ws = iter(())
    if jobs:
        rows, centers = zip(*jobs)
        ws = iter(perturb._weyr(A[list(rows)], np.array(centers), tol))
    return [
        perturb._cluster_sizes([(c, mult, (1,) if mult == 1 else next(ws)) for c, mult in cs])
        for cs in clusters
    ]


class TestTriangularEigenvalues:
    def test_eigvals_returns_the_diagonal_bit_for_bit(self):
        kinds = set()
        for kind, A in triangular_stacks():
            eigs, diag = np.linalg.eigvals(A), np.diagonal(A, axis1=1, axis2=2)
            bits = np.ascontiguousarray(np.stack([eigs, diag])).view(np.uint64).reshape(2, len(A), -1, 2)
            for e, d in zip(*bits.tolist()):  # each row's bit patterns, as multisets
                assert sorted(e) == sorted(d), kind
            if kind == "upper":
                # balancing leaves an upper-triangular matrix unpermuted: a
                # survey's strict-upper stack keeps its diagonal's order too
                assert np.array_equal(eigs, diag)
            kinds.add(kind)
        assert kinds == {"upper", "lower", "permuted"}

    def test_estimate_equals_the_diagonal_reference(self):
        for kind, A in triangular_stacks():
            for tol in (1e-8, 1e-6):
                got = perturb._estimate_sizes(A, 1e-6, tol)
                want = diagonal_reference_sizes(A, 1e-6, tol)
                assert [_band_outcome(s) for s in got] == [_band_outcome(s) for s in want], kind

    def test_survey_draws_keep_their_diagonal(self):
        t = parse_compact("(0)^3 (0)^2 (0)")
        for eps in (1e-9, 1e-3, 0.3):
            words = perturb._child_words(np.random.SeedSequence(4), 0, 64)
            R = perturb._random_directions(words, t.n, "strict_upper")
            A = jordan_matrix(t) + eps * R
            assert np.array_equal(np.linalg.eigvals(A), np.zeros((64, t.n)))

    def test_strict_upper_survey_is_the_same_on_every_openblas_core(self):
        # each run sets the core type only in its own child's environment
        src = os.path.dirname(os.path.dirname(perturb.__file__))
        argv = [sys.executable, "-m", "matstrata.cli", "survey", "--jordan", "(0)^3 (0)^2 (0)",
                "--eps", "1e-3", "--trials", "300", "--seed", "2", "--mode", "strict_upper", "--full"]
        outputs = []
        for core in (None, "Haswell", "Sandybridge", "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env.update(PYTHONPATH=src, **({"OPENBLAS_CORETYPE": core} if core else {}))
            res = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
        assert '"trials": 300' in outputs[0] and outputs[1:] == outputs[:1] * 3
