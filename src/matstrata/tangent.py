"""Numerical tangent-space dimensions for the three group actions.

The tangent space to the orbit of A is the image of a linear map on
matrices (commutator for similarity, X^T A + A X for congruence,
X* A + A X for *congruence, the last one only real-linear).  Codimension
is the ambient dimension minus the numerically determined rank of that
map assembled in a flattened basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalAmbiguityError

DEFAULT_RANK_TOL = 1e-8
# a singular value within this factor of the rank threshold is ambiguous
RANK_BAND = 10.0

ACTIONS = ("similarity", "congruence", "star_congruence")


def check_tol(tol: float) -> None:
    """Refuse a relative rank tolerance outside (0, 1), NaN included."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


@dataclass(frozen=True)
class OperatorMatrix:
    """Assembled matrix of the tangent map for one group action.

    Complex n^2 x n^2 for similarity/congruence; real 2n^2 x 2n^2 for
    *congruence (the map is only real-linear there).
    """

    action: str
    base: np.ndarray
    matrix: np.ndarray


def action_operator(action: str, A: np.ndarray) -> OperatorMatrix:
    """Matrix of the tangent map of ``action`` at A, in closed Kronecker form.

    Column k*n + l is the image of E_kl (for *congruence, columns 2(k*n + l)
    and 2(k*n + l) + 1 are the images of E_kl and i*E_kl); rows are the
    row-major entries of the image (for *congruence, real parts above
    imaginary parts).  In row-major vec, X -> X A is kron(I, A^T) and
    X -> A X is kron(A, I); X -> X^T A permutes the columns of the former.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
    n = A.shape[0]
    right, left = np.kron(np.eye(n), A.T), np.kron(A, np.eye(n))
    if action == "similarity":
        M = right - left
    else:
        transposed = right[:, np.arange(n * n).reshape(n, n).T.reshape(-1)]
        M = transposed + left
        if action == "star_congruence":
            # X = i E_kl maps to i (A E_kl - E_lk A)
            turn = left - transposed
            cols = (np.vstack([M.real, M.imag]), np.vstack([-turn.imag, turn.real]))
            M = np.stack(cols, axis=2).reshape(2 * n * n, 2 * n * n)
    return OperatorMatrix(action=action, base=A, matrix=M)


def numeric_rank(M: np.ndarray, ref: float, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values >= tol * ref; rank 0 when ref = 0.

    ``ref`` is the scale of the data M was built from.  Ranking against M's
    own largest singular value instead would count roundoff as rank when M
    should be exactly zero.
    """
    check_tol(tol)
    if ref == 0.0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s >= tol * ref))


def band_rank(s: np.ndarray, thr: float) -> int:
    """Count the singular values ``s`` at or above ``thr``, refusing when any
    lies inside the ambiguity band (thr / RANK_BAND, thr * RANK_BAND)."""
    inside = [float(x) for x in s if thr / RANK_BAND < x < thr * RANK_BAND]
    if inside:
        raise NumericalAmbiguityError(
            "singular values fall inside the rank-tolerance band",
            details={"band": inside, "threshold": float(thr)},
        )
    return int(np.sum(s >= thr))


def guarded_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL, ref: float | None = None) -> int:
    """numeric_rank, but refuse when a singular value falls inside the
    ambiguity band (see band_rank).

    ``ref`` supplies an external reference scale for the threshold; without
    it the matrix's own largest singular value is used (then a matrix that
    should be exactly zero but carries roundoff would keep full rank).
    """
    check_tol(tol)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return band_rank(s, tol * (ref if ref is not None else s[0]))


def _operator_rank(action: str, A, tol: float) -> tuple[int, int]:
    """(rank of the tangent map of ``action`` at A, its domain dimension).

    The rank is taken against the Frobenius norm of A, not against the
    map's own largest singular value: at a scalar matrix moved by a unitary
    similarity the commutator map is pure roundoff and has rank 0.  (The
    Frobenius norm is within sqrt(n) of the spectral norm and, unlike it,
    needs no SVD.)
    """
    op = action_operator(action, A)
    ref = float(np.linalg.norm(op.base))
    return numeric_rank(op.matrix, ref, tol), op.matrix.shape[1]


def similarity_codim_numeric(A, tol: float = DEFAULT_RANK_TOL) -> int:
    """n^2 minus the complex rank of X |-> XA - AX."""
    rank, dim = _operator_rank("similarity", A, tol)
    return dim - rank


def congruence_codim_numeric(A, tol: float = DEFAULT_RANK_TOL) -> int:
    """n^2 minus the complex rank of X |-> X^T A + A X."""
    rank, dim = _operator_rank("congruence", A, tol)
    return dim - rank


def star_congruence_codim_numeric(A, tol: float = DEFAULT_RANK_TOL) -> int:
    """2 n^2 minus the real rank of X |-> X* A + A X."""
    rank, dim = _operator_rank("star_congruence", A, tol)
    return dim - rank
