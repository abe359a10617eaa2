import inspect
import math
import re

import numpy as np
import pytest

from matstrata import (
    EigLabel,
    JordanType,
    NumericalAmbiguityError,
    Partition,
    action_operator,
    bundle_types,
    classify_congruence,
    congruence_codim_numeric,
    eigen_clusters,
    find_arrow_witness,
    jordan_matrix,
    miniversal_template,
    numeric_jordan_type,
    numeric_weyr,
    orbit_codim,
    parse_compact,
    pattern_check,
    random_survey,
    reduce_to_miniversal,
    similarity_codim_numeric,
    star_congruence_codim_numeric,
)
from matstrata import structure, tangent
from matstrata.congruence import Block, CongruenceForm, canonical_matrix, form_display
from matstrata.tangent import (
    ACTIONS, DEFAULT_RANK_TOL, MAX_MATRIX_N, _closure, _summand_pieces, band_ranks, check_positive, check_tol,
    guarded_rank, numeric_rank, scale_exponent, unit_scale,
)
from conftest import random_complex, well_conditioned

conc = EigLabel.concrete


def jt(d):
    return JordanType({k: Partition(v) for k, v in d.items()})


def brute_force_commutator_rank(A):
    """Independent oracle: images of X -> XA - AX over basis matrices,
    assembled entry by entry with loops."""
    n = A.shape[0]
    cols = []
    for k in range(n):
        for l in range(n):
            # X = E_kl: (XA)[i,j] = delta_ik A[l,j]; (AX)[i,j] = A[i,k] delta_lj
            out = np.zeros((n, n), dtype=complex)
            for j in range(n):
                out[k, j] += A[l, j]
            for i in range(n):
                out[i, l] -= A[i, k]
            cols.append(out.reshape(-1))
    return np.linalg.matrix_rank(np.column_stack(cols))


class TestSimilarity:
    def test_two_nilpotent_blocks(self):
        A = jordan_matrix(jt({conc(0): (3, 2)}))
        assert similarity_codim_numeric(A) == 9

    def test_zero_matrix(self):
        for n in (1, 2, 4):
            assert similarity_codim_numeric(np.zeros((n, n))) == n * n

    def test_distinct_diagonal_against_brute_force(self):
        A = np.diag([1.0, 2.0]).astype(complex)
        assert brute_force_commutator_rank(A) == 2
        assert similarity_codim_numeric(A) == 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_closed_form_up_to_order_8(self, n):
        """Every structure of order n, its Jordan blocks scattered by a
        random permutation so that no summand is contiguous."""
        pool = [0, 1, 2 + 1j, -1.5, 3j, -2 - 1j, 0.5, 4]
        rng = np.random.default_rng(n)
        for b in bundle_types(n):
            t = JordanType({conc(pool[i]): p for i, (_, p) in enumerate(b.entries)})
            p = rng.permutation(n)
            assert similarity_codim_numeric(jordan_matrix(t)[np.ix_(p, p)]) == orbit_codim(t)


class TestCongruence:
    @pytest.mark.parametrize(
        "A,codim",
        [
            (np.array([[0, 1], [2, 0]]), 1),
            (np.eye(2), 1),
            (np.zeros((2, 2)), 4),
        ],
    )
    def test_examples(self, A, codim):
        assert congruence_codim_numeric(np.asarray(A, dtype=complex)) == codim


class TestStarCongruence:
    @pytest.mark.parametrize(
        "A,codim",
        [
            (np.array([[0, 1], [1, 1j]]), 2),
            (np.diag([1, 1j]), 2),
            (np.zeros((2, 2)), 8),
        ],
    )
    def test_examples(self, A, codim):
        assert star_congruence_codim_numeric(np.asarray(A, dtype=complex)) == codim

    def test_unimodular_scaling_invariance(self):
        A = np.array([[0, 1], [1, 1j]], dtype=complex)
        for mu in (1j, np.exp(0.7j), -1):
            assert star_congruence_codim_numeric(mu * A) == star_congruence_codim_numeric(A)


class TestGroupInvariance:
    def test_similarity_conjugation(self, rng):
        A = jordan_matrix(jt({conc(0): (2, 1), conc(1): (1,)}))
        base = similarity_codim_numeric(A)
        for _ in range(5):
            S = well_conditioned(rng, 4)
            assert similarity_codim_numeric(np.linalg.solve(S, A @ S)) == base

    def test_congruence_transform(self, rng):
        A = np.array([[0, 1, 0], [2, 0, 0], [0, 0, 0]], dtype=complex)
        base = congruence_codim_numeric(A)
        for _ in range(5):
            S = well_conditioned(rng, 3)
            assert congruence_codim_numeric(S.T @ A @ S) == base

    def test_star_congruence_transform(self, rng):
        A = np.diag([1.0, 1j]).astype(complex)
        base = star_congruence_codim_numeric(A)
        for _ in range(5):
            S = well_conditioned(rng, 2)
            assert star_congruence_codim_numeric(S.conj().T @ A @ S) == base


class TestOperatorMatrix:
    def test_shapes(self):
        A = random_complex(np.random.default_rng(0), 3)
        assert action_operator("similarity", A).shape == (9, 9)
        assert action_operator("congruence", A).shape == (9, 9)
        M = action_operator("star_congruence", A)
        assert M.shape == (18, 18)
        assert M.dtype.kind == "f"

    def test_unknown_action(self):
        with pytest.raises(ValueError):
            action_operator("unitary", np.eye(2))

    @pytest.mark.parametrize("A", [np.zeros((13, 13)), np.ones((2, 3)), [["1"]]], ids=["order 13", "2x3", "str"])
    def test_unknown_action_refused_before_the_matrix(self, A):
        # the action is checked first, before the matrix is converted or allocated
        with pytest.raises(ValueError, match=r"^unknown action 'unitary'; expected one of "):
            action_operator("unitary", A)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_non_finite_matrix_refused(self, bad):
        for action in ("similarity", "congruence", "star_congruence"):
            with pytest.raises(ValueError, match="matrix must be finite"):
                action_operator(action, np.array([[0, 1], [0, bad]]))


class TestScalarMatrices:
    """A scalar matrix commutes with everything, so its similarity orbit is a
    point; moved by a unitary similarity its commutator map is pure roundoff,
    which must not count as rank."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_unitarily_moved_scalar_has_full_codim(self, n):
        rng = np.random.default_rng(n)
        Q, R = np.linalg.qr(random_complex(rng, n))
        U = Q * (np.diag(R) / abs(np.diag(R)))
        A = U @ (2j * np.eye(n)) @ U.conj().T
        assert similarity_codim_numeric(A) == n * n


def basis_images(action, A):
    """The tangent map by definition: the image of every basis matrix E_kl
    (and i*E_kl for the real-linear *congruence map), one column each."""
    n = A.shape[0]
    units = (1.0, 1.0j) if action == "star_congruence" else (1.0,)
    cols = []
    for k in range(n):
        for l in range(n):
            for unit in units:
                X = np.zeros((n, n), dtype=complex)
                X[k, l] = unit
                if action == "similarity":
                    cols.append((X @ A - A @ X).reshape(-1))
                elif action == "congruence":
                    cols.append((X.T @ A + A @ X).reshape(-1))
                else:
                    out = X.conj().T @ A + A @ X
                    cols.append(np.concatenate([out.real.reshape(-1), out.imag.reshape(-1)]))
    return np.column_stack(cols)


class TestKroneckerForm:
    @pytest.mark.parametrize("action", ["similarity", "congruence", "star_congruence"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_basis_images(self, action, n):
        rng = np.random.default_rng(100 + n)
        inputs = [random_complex(rng, n), random_complex(rng, n).real.astype(complex)]
        sparse = random_complex(rng, n)
        sparse[rng.random((n, n)) < 0.5] = 0
        inputs += [sparse, jordan_matrix(jt({conc(0): (n,)})), np.zeros((n, n), dtype=complex)]
        for A in inputs:
            got = action_operator(action, A)
            want = basis_images(action, A)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def unsplit_codim(action, A, tol=DEFAULT_RANK_TOL):
    """Codimension from one SVD of the whole tangent map, ranked against
    tol * ||A||_F: the reference for the summand-by-summand rank."""
    M = action_operator(action, A)
    ref = np.linalg.norm(A)
    rank = int(np.sum(np.linalg.svd(M, compute_uv=False) >= tol * ref)) if ref else 0
    return M.shape[1] - rank


CODIM = {
    "similarity": similarity_codim_numeric,
    "congruence": congruence_codim_numeric,
    "star_congruence": star_congruence_codim_numeric,
}


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    A = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        A[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return A


def jblock(m, lam=0):
    return jordan_matrix(jt({conc(lam): (m,)}))


class TestPermutedDirectSums:
    """P (A_1 + ... + A_k) P^T is ranked one pair of summands at a time; the
    codimension must equal that of one SVD of the whole map."""

    rng0 = np.random.default_rng(7)
    CASES = {
        "shared_eigenvalue": [jblock(2, 1), jblock(1, 1), jblock(3, 1), jblock(2, 0)],
        "zero_summands": [jblock(3, 2j), np.zeros((1, 1)), np.zeros((1, 1)), jblock(2)],
        # Gamma_1 + Gamma_1: X^T A + A X couples X[a, b] and X[b, a]
        "both_halves": [np.eye(1), np.eye(1), np.array([[0, -1], [1, 1]]), np.array([[0, 2], [1, 0]])],
        "unimodular": [np.diag([1j]), np.diag([-1j]), np.diag([np.exp(0.4j)]), np.array([[0, 1], [1, 1j]])],
        "dense": [random_complex(rng0, 3), random_complex(rng0, 2), random_complex(rng0, 3)],
        "mixed": [random_complex(rng0, 2), jblock(2), np.eye(1), np.zeros((1, 1)), jblock(2, 1)],
        "zero_matrix": [np.zeros((1, 1))] * 5,
    }

    @pytest.mark.parametrize("action", ACTIONS)
    @pytest.mark.parametrize("case", CASES)
    def test_split_equals_one_svd(self, action, case):
        blocks = self.CASES[case]
        A, k = direct_sum(*blocks), len(blocks)
        assert len(A) <= 8
        rng = np.random.default_rng(len(case))
        for _ in range(3):
            p = rng.permutation(len(A))
            B = A[np.ix_(p, p)]
            # k summands, wherever they sit, give k (k + 1) / 2 blocks of the map
            assert sum(len(i) for i, _ in _summand_pieces(B)) == k * (k + 1) // 2
            assert CODIM[action](B) == unsplit_codim(action, B)


class TestPlan:
    """Each block the cached plan scatters is the tangent map by definition
    (``basis_images``) on that block's rows and columns, wherever the summands sit."""

    @pytest.mark.parametrize("action", ACTIONS)
    @pytest.mark.parametrize("case", TestPermutedDirectSums.CASES)
    def test_blocks_are_basis_images(self, action, case):
        A = direct_sum(*TestPermutedDirectSums.CASES[case])
        n = len(A)
        rng = np.random.default_rng(100 + len(case))
        for _ in range(4):
            p = rng.permutation(n)
            B = A[np.ix_(p, p)]
            want = basis_images(action, B)
            stacks, pieces = tangent._blocks(action, B, (B != 0).tobytes()), _summand_pieces(B)
            assert [len(M) for M in stacks] == [len(i) for i, _ in pieces]
            for M, (i, j) in zip(stacks, pieces):
                for block, e in zip(M, i * n + j):
                    rows = cols = e
                    if action == "star_congruence":  # real parts above imaginary; E_kl, then i E_kl
                        rows, cols = np.concatenate([e, e + n * n]), np.stack([2 * e, 2 * e + 1], axis=1).ravel()
                    assert block.dtype == want.dtype and np.array_equal(block, want[np.ix_(rows, cols)])
            # no nonzero of the map lies outside the blocks
            assert sum(np.count_nonzero(M) for M in stacks) == np.count_nonzero(want)

    def test_plan_is_read_only_int32_and_the_cache_bounded(self):
        A = direct_sum(*TestPermutedDirectSums.CASES["mixed"])
        for action in ACTIONS:
            put, take, _, _ = tangent._plan(action, len(A), (A != 0).tobytes())
            for index in (put, take):
                assert index.dtype == np.int32 and not index.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    index[0] = 0
        rng = np.random.default_rng(4)
        for _ in range(140):  # more patterns than the cache holds
            tangent._plan("similarity", 5, (rng.random((5, 5)) < 0.3).tobytes())
        info = tangent._plan.cache_info()
        assert info.maxsize == 128 and info.currsize <= 128


class TestOneRoute:
    """Every matrix is ranked through ``_summand_pieces``: one summand is one
    block of all n^2 entries.  The reference is the route that ranked such a
    matrix before, one ``numeric_rank`` of the whole ``action_operator``."""

    @staticmethod
    def operator_codim(action, A, tol=DEFAULT_RANK_TOL):
        M = action_operator(action, A)
        return M.shape[1] - numeric_rank(M, float(np.linalg.norm(A)), tol)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_one_summand_is_one_block_in_row_major_order(self, n):
        rng = np.random.default_rng(n)
        for A in (random_complex(rng, n), jblock(n, 1)):
            (i, j), = _summand_pieces(A)
            assert i.shape == j.shape == (1, n * n)
            assert np.array_equal(i[0] * n + j[0], np.arange(n * n))

    @pytest.mark.parametrize("action", ACTIONS)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_codim_equals_the_operator_route(self, action, n):
        rng = np.random.default_rng(50 + n)
        sizes = []  # 3, 1, 2, 3, 1, 2, ... summing to n
        while sum(sizes) < n:
            sizes.append(min((3, 1, 2)[len(sizes) % 3], n - sum(sizes)))
        for A in (random_complex(rng, n), direct_sum(*(random_complex(rng, m) for m in sizes))):
            assert CODIM[action](A) == self.operator_codim(action, A)


class TestStackedRank:
    def test_stack_rank_is_sum_of_ranks(self):
        rng = np.random.default_rng(3)
        stack = np.array([
            random_complex(rng, 5)[:, :r] @ random_complex(rng, 5)[:r] for r in (0, 1, 3, 5, 2)
        ])
        want = sum(numeric_rank(M, 1.0) for M in stack)
        assert want == 11 and numeric_rank(stack, 1.0) == want


class TestCodimGuard:
    def test_split_eigenvalues_inside_the_band_abstain(self):
        # the commutator map has singular values 3e-8 against the threshold
        # tol * |A|_F = 1.4e-8: neither codim 2 nor codim 4 is certain
        with pytest.raises(NumericalAmbiguityError) as info:
            similarity_codim_numeric(np.diag([1, 1 + 3e-8]))
        assert {"band", "threshold"} <= set(info.value.details)
        assert similarity_codim_numeric(np.diag([1, 1 + 3e-6])) == 2
        assert similarity_codim_numeric(np.diag([1, 1 + 3e-10])) == 4

    def test_fixed_scale_rank_ignores_order_and_rows(self):
        rng = np.random.default_rng(5)
        s = 10.0 ** rng.uniform(-16, 0, size=(40, 6))
        s = -np.sort(-s[~((s > 1e-9) & (s < 1e-7)).any(axis=1)], axis=1)
        for stack in (s, s[:8]):  # the array pass and the plain-Python pass
            want = sum(band_ranks(stack, 1e-8, [1.0] * len(stack)))
            assert 0 < want < stack.size
            assert band_ranks(rng.permutation(stack.ravel())[None], 1e-8, (1.0,)) == [want]


class TestCodimTolerance:
    @pytest.mark.parametrize("tol", [5.0, 1.0, 0.0, -1e-8, float("nan"), True])
    @pytest.mark.parametrize("action", ACTIONS)
    def test_refused_before_the_operator_is_built(self, monkeypatch, action, tol):
        def refuse(*args):
            raise AssertionError("work started before the tolerance was checked")

        for name in ("check_finite", "_summand_pieces", "_plan"):
            monkeypatch.setattr(tangent, name, refuse)
        with pytest.raises(ValueError, match=r"^tol must lie in \(0, 1\), got "):
            tangent._codim(action, np.eye(2), tol)


class TestFloatRange:
    """codim and classify give the same answer at every scale of the float
    range: the power-of-two scaling is exact, and no norm overflows or
    underflows on the way."""

    CASES = {
        "Γ1⊕Γ1": np.diag([1.0, 2.0]),
        "H1(2)": canonical_matrix(CongruenceForm((Block("H", 2, 2.0),))),
        "Γ2": canonical_matrix(CongruenceForm((Block("Gamma", 2),))),
    }

    def answers(self, A):
        codims = (similarity_codim_numeric, congruence_codim_numeric, star_congruence_codim_numeric)
        return [f(A) for f in codims], form_display(classify_congruence(A))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-300, -200, -160, 0, 160, 200, 300])
    @pytest.mark.parametrize("name", list(CASES))
    def test_same_answer_at_every_scale(self, name, k):
        A = np.asarray(self.CASES[name], dtype=complex)
        want = self.answers(A)
        assert want[1] == name
        assert self.answers(A * 10.0**k) == want
        if name == "Γ1⊕Γ1":
            assert want[0] == [2, 1, 4]

    def test_unit_scale_is_an_exact_power_of_two(self):
        rng = np.random.default_rng(9)
        for k in (-300, -8, 0, 8, 300):
            A = random_complex(rng, 4) * 10.0**k
            for M in (A, A.T, A[:, ::2].imag * 1j):  # non-contiguous, then a purely imaginary part
                S = unit_scale(M)
                parts, scaled = (np.concatenate([X.real, X.imag]) for X in (M, S))
                assert 0.5 <= np.abs(scaled).max() < 1 and S.shape == M.shape
                ratio = scaled[parts != 0] / parts[parts != 0]
                assert np.all(ratio == ratio[0]) and np.frexp(ratio[0])[0] == 0.5
        assert np.array_equal(unit_scale(np.zeros((2, 2), dtype=complex)), np.zeros((2, 2)))


class TestToleranceCheck:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 2.0, 1.0, 0.0, -1e-8])
    def test_one_message_everywhere(self, tol):
        msg = r"tol must lie in \(0, 1\), got "
        for call in (
            lambda: check_tol(tol),
            lambda: numeric_rank(np.eye(2), 1.0, tol),
            lambda: guarded_rank(np.eye(2), tol),
        ):
            with pytest.raises(ValueError, match=msg):
                call()

    @pytest.mark.parametrize("tol", [1e-16, 1e-8, 0.5, 0.999])
    def test_accepts_the_open_interval(self, tol):
        check_tol(tol)


# every numeric entry point that takes a matrix, by test id
ENTRY_POINTS = {
    "numeric_jordan_type": numeric_jordan_type,
    "eigen_clusters": eigen_clusters,
    "numeric_weyr": lambda A: numeric_weyr(A, 0),
    "action_operator": lambda A: action_operator("similarity", A),
    "similarity_codim": similarity_codim_numeric,
    "congruence_codim": congruence_codim_numeric,
    "star_congruence_codim": star_congruence_codim_numeric,
    "classify": classify_congruence,
}


class TestEntryCheck:
    """Every numeric entry point refuses a malformed matrix with the one
    message of ``check_finite``, before any shape-dependent work."""

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0), (2, 2, 2)], ids=str)
    @pytest.mark.parametrize("call", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
    def test_malformed_shape_refused(self, call, shape):
        with pytest.raises(ValueError, match=r"matrix must be a non-empty square 2-D array, got shape"):
            call(np.ones(shape))

    @pytest.mark.parametrize(
        "call",
        [*ENTRY_POINTS.values(), lambda E: reduce_to_miniversal(parse_compact("(0)^13"), E)],
        ids=[*ENTRY_POINTS, "reduce_to_miniversal"],
    )
    def test_order_above_the_envelope_refused(self, call):
        assert MAX_MATRIX_N == 12
        with pytest.raises(ValueError, match=r"has order 13, beyond the supported 12x12$"):
            call(np.eye(13))

    NOT_NUMBERS = {
        "str": np.array([["1", "2"], ["3", "4"]]),
        "bytes": np.array([[b"1", b"0"], [b"0", b"1"]]),
        "bool": np.eye(2, dtype=bool),
        "list of str": [["1", "0"], ["0", "1"]],
        "object str": np.array([[1, "2"], [3, 4]], dtype=object),
        "object bool": np.array([[True, 0], [0, 1]], dtype=object),
        "object numpy bool": np.array([[np.True_, 0], [0, 1]], dtype=object),
    }

    @pytest.mark.parametrize("A", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
    @pytest.mark.parametrize("call", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
    def test_strings_and_booleans_refused(self, call, A):
        # complex() parses a string and takes a bool: neither is a matrix entry
        with pytest.raises(TypeError, match=r"^matrix entries must be numbers, got "):
            call(A)

    def test_perturbation_strings_refused(self):
        with pytest.raises(TypeError, match=r"^perturbation entries must be numbers, got "):
            reduce_to_miniversal(parse_compact("(0)^2"), np.zeros((2, 2), dtype=str))

    @pytest.mark.parametrize("dtype", [
        np.int8, np.uint16, np.int64, np.float16, np.float32, np.float64, np.longdouble,
        np.complex64, np.complex128, object,
    ])
    def test_every_numeric_dtype_accepted(self, dtype):
        A = np.array([[1, 2], [0, 3]])
        want = [similarity_codim_numeric(A.astype(complex)), action_operator("congruence", A.astype(complex))]
        got = [similarity_codim_numeric(A.astype(dtype)), action_operator("congruence", A.astype(dtype))]
        assert got[0] == want[0] == 2 and np.array_equal(got[1], want[1])

    def test_object_array_of_numbers_accepted(self):
        from fractions import Fraction

        A = np.array([[Fraction(1, 2), 2], [0, 3.0 + 0j]], dtype=object)
        assert similarity_codim_numeric(A) == similarity_codim_numeric(A.astype(complex)) == 2

    def test_one_envelope(self):
        # one definition, in the numpy-free structure layer; the numeric layers import it
        assert tangent.MAX_MATRIX_N is structure.MAX_MATRIX_N
        assert not re.search(r"^MAX_MATRIX_N\s*=", inspect.getsource(tangent), re.M)


def per_matrix_unit_scale(A):
    """The per-matrix rule, written out: scale by 2^-e, e the frexp exponent
    of the largest real or imaginary part."""
    parts = np.ascontiguousarray(A).view(float)
    return np.ldexp(parts, -math.frexp(np.abs(parts).max())[1]).view(complex)


def union_find_closure(rel):
    """Reference closure of a symmetric relation: i ~ j when a union-find
    over its pairs puts them in one set."""
    parent = list(range(len(rel)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(rel)):
        parent[find(i)] = find(j)
    roots = [find(i) for i in range(len(rel))]
    return np.equal.outer(roots, roots)


class TestSharedRules:
    """The exact scaling, the closure and the positivity check are written
    once, in ``tangent``, and every caller gets the same answer from them."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_stacked_unit_scale_is_per_matrix(self, n):
        rng = np.random.default_rng(n)
        A = np.array([random_complex(rng, n) * 10.0 ** rng.integers(-300, 300) for _ in range(7)])
        A[1] = 0
        A[2, 0], A[3, -1], A[4, n // 2] = 1e200, -1e200, -1e200j  # a row of each sign, then imaginary
        A[5, :, 0] = 0
        stacked = unit_scale(A)
        assert stacked.shape == A.shape
        for k in range(len(A)):
            want = per_matrix_unit_scale(A[k])
            assert unit_scale(A[k]).tobytes() == stacked[k].tobytes() == want.tobytes()
            e = math.frexp(np.abs(A[k].view(float)).max())[1]
            assert scale_exponent(A)[k].tolist() == scale_exponent(A[k]).tolist() == [[e]]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closure_is_union_find(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.05, 0.15, 0.4):
            rel = rng.random((6, n, n)) < density
            rel = rel | rel.transpose(0, 2, 1) | np.eye(n, dtype=bool)
            want = np.array([union_find_closure(r) for r in rel])
            assert np.array_equal(_closure(rel), want)
            for r, w in zip(rel, want):
                assert np.array_equal(_closure(r), w)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_each_positivity_check_keeps_its_message(self, bad):
        t, E = parse_compact("(0)^2 (1)"), np.zeros((3, 3))
        J, J2 = parse_compact("(0)^2 (0)"), parse_compact("(0)^3")
        calls = {
            "cluster radius": (
                lambda: eigen_clusters(E, cluster_radius=bad),
                lambda: numeric_jordan_type(E, cluster_radius=bad),
                lambda: random_survey(t, 1e-3, 1, 0, cluster_radius=bad),
            ),
            "eps": (lambda: find_arrow_witness(J, J2, eps=bad),),
            "pattern tolerance": (
                lambda: pattern_check(E, miniversal_template(t), tol=bad),
                lambda: reduce_to_miniversal(t, E, tol=bad),
            ),
        }
        for what, fns in calls.items():
            for fn in (*fns, lambda: check_positive(bad, what)):
                with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be finite and > 0, got {bad}')}$"):
                    fn()
