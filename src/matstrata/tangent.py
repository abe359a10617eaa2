"""Numerical tangent-space dimensions for the three group actions.

The tangent space to the orbit of A is the image of a linear map on
matrices (commutator for similarity, X^T A + A X for congruence,
X* A + A X for *congruence, the last one only real-linear).  Codimension
is the ambient dimension minus the numerically determined rank of that
map assembled in a flattened basis.
"""

from __future__ import annotations

import numpy as np

from ._value import Value
from .errors import NumericalAmbiguityError, raise_ambiguous

DEFAULT_RANK_TOL = 1e-8
# a singular value within this factor of the rank threshold is ambiguous
RANK_BAND = 10.0

ACTIONS = ("similarity", "congruence", "star_congruence")


def check_tol(tol: float) -> None:
    """Refuse a relative rank tolerance outside (0, 1), NaN included."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def check_finite(A, what: str = "matrix") -> np.ndarray:
    """A as a complex array; refuse anything but a finite, non-empty,
    square 2-D array (the one entry check of every numeric layer)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError(f"{what} must be a non-empty square 2-D array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{what} must be finite, got a NaN or infinite entry")
    return A


class OperatorMatrix(Value):
    """Assembled matrix of the tangent map for one group action.

    Complex n^2 x n^2 for similarity/congruence; real 2n^2 x 2n^2 for
    *congruence (the map is only real-linear there).
    """

    _fields = ("action", "base", "matrix")

    def __init__(self, action: str, base: np.ndarray, matrix: np.ndarray):
        self._set(action, base, matrix)


def action_operator(action: str, A: np.ndarray) -> OperatorMatrix:
    """Matrix of the tangent map of ``action`` at A, in closed Kronecker form.

    Column k*n + l is the image of E_kl (for *congruence, columns 2(k*n + l)
    and 2(k*n + l) + 1 are the images of E_kl and i*E_kl); rows are the
    row-major entries of the image (for *congruence, real parts above
    imaginary parts).  In row-major vec, X -> X A is kron(I, A^T) and
    X -> A X is kron(A, I); X -> X^T A permutes the columns of the former.
    """
    A = check_finite(A)
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


def band_ranks(s: np.ndarray, tol: float, ref: float | None = None) -> list:
    """Guarded rank of each row of a stack of singular values s (k, m), each
    row in descending order.

    A row counts its values at or above thr = ``tol * ref``; ``ref``
    defaults to the row's largest value (0 for an empty row), and a zero
    ``ref`` gives rank 0.  A row with a value inside the ambiguity band
    (thr / RANK_BAND, thr * RANK_BAND) gets, in place of its rank, the
    NumericalAmbiguityError that ranking that row alone raises.
    """
    top = s[:, :1] if s.shape[1] else np.zeros((len(s), 1))
    thr = tol * (top if ref is None else np.full((len(s), 1), ref))
    inside = (thr / RANK_BAND < s) & (s < thr * RANK_BAND)
    out = [sum(above) if t > 0 else 0 for t, above in zip(thr[:, 0].tolist(), (s >= thr).tolist())]
    for i, band in enumerate(inside.tolist()):
        if any(band):
            out[i] = NumericalAmbiguityError(
                "singular values fall inside the rank-tolerance band",
                details={"band": s[i, inside[i]].tolist(), "threshold": float(thr[i, 0])},
            )
    return out


def guarded_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """band_ranks of the singular values of M: numeric_rank against M's own
    largest singular value, but refuse when a singular value falls inside
    the ambiguity band.
    """
    check_tol(tol)
    return raise_ambiguous(band_ranks(np.linalg.svd(M, compute_uv=False)[None], tol))[0]


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
