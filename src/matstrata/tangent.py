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

ACTIONS = ("similarity", "congruence", "star_congruence")


@dataclass(frozen=True)
class OperatorMatrix:
    """Assembled matrix of the tangent map for one group action.

    Complex n^2 x n^2 for similarity/congruence; real 2n^2 x 2n^2 for
    *congruence (the map is only real-linear there).
    """

    action: str
    base: np.ndarray
    matrix: np.ndarray


def _basis_images(A: np.ndarray, image) -> np.ndarray:
    n = A.shape[0]
    cols = []
    for k in range(n):
        for l in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[k, l] = 1.0
            cols.append(image(E).reshape(-1))
    return np.column_stack(cols)


def action_operator(action: str, A: np.ndarray) -> OperatorMatrix:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    if action == "similarity":
        M = _basis_images(A, lambda X: X @ A - A @ X)
    elif action == "congruence":
        M = _basis_images(A, lambda X: X.T @ A + A @ X)
    elif action == "star_congruence":
        n = A.shape[0]
        cols = []
        for k in range(n):
            for l in range(n):
                for unit in (1.0, 1.0j):
                    X = np.zeros((n, n), dtype=complex)
                    X[k, l] = unit
                    out = X.conj().T @ A + A @ X
                    cols.append(np.concatenate([out.real.reshape(-1), out.imag.reshape(-1)]))
        M = np.column_stack(cols)
    else:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
    return OperatorMatrix(action=action, base=A, matrix=M)


def numeric_rank(M: np.ndarray, ref: float, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values >= tol * ref; rank 0 when ref = 0.

    ``ref`` is the scale of the data M was built from.  Ranking against M's
    own largest singular value instead would count roundoff as rank when M
    should be exactly zero.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if ref == 0.0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s >= tol * ref))


def guarded_rank(
    M: np.ndarray,
    tol: float = DEFAULT_RANK_TOL,
    band: float = 10.0,
    ref: float | None = None,
) -> int:
    """numeric_rank, but refuse when any singular value falls inside the
    ambiguity band (threshold/band, threshold*band).

    ``ref`` supplies an external reference scale for the threshold; without
    it the matrix's own largest singular value is used (then a matrix that
    should be exactly zero but carries roundoff would keep full rank).
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    thr = tol * (ref if ref is not None else s[0])
    inside = [float(x) for x in s if thr / band < x < thr * band]
    if inside:
        raise NumericalAmbiguityError(
            "singular values fall inside the rank-tolerance band",
            details={"band": inside, "threshold": float(thr)},
        )
    return int(np.sum(s >= thr))


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
