import numpy as np
import pytest

from matstrata import (
    EigLabel,
    JordanType,
    Partition,
    action_operator,
    bundle_types,
    congruence_codim_numeric,
    jordan_matrix,
    orbit_codim,
    similarity_codim_numeric,
    star_congruence_codim_numeric,
)
from matstrata.tangent import check_tol, guarded_rank, numeric_rank
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

    def test_matches_closed_form_up_to_order_4(self):
        pool = [0, 1, 2 + 1j, -1.5]
        for n in range(1, 5):
            for b in bundle_types(n):
                t = JordanType(
                    {conc(pool[i]): p for i, (_, p) in enumerate(b.entries)}
                )
                assert similarity_codim_numeric(jordan_matrix(t)) == orbit_codim(t)


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
        assert action_operator("similarity", A).matrix.shape == (9, 9)
        assert action_operator("congruence", A).matrix.shape == (9, 9)
        op = action_operator("star_congruence", A)
        assert op.matrix.shape == (18, 18)
        assert op.matrix.dtype.kind == "f"

    def test_unknown_action(self):
        with pytest.raises(ValueError):
            action_operator("unitary", np.eye(2))


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
            got = action_operator(action, A).matrix
            want = basis_images(action, A)
            assert got.dtype == want.dtype and np.array_equal(got, want)


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
