"""Numerical tangent-space dimensions for the three group actions.

The tangent space to the orbit of A is the image of a linear map on
matrices (commutator for similarity, X^T A + A X for congruence,
X* A + A X for *congruence, the last one only real-linear).  Codimension
is the ambient dimension minus the rank of that map by the band rule
against tol |A|_F (A first brought to unit size by an exact power of two,
``unit_scale``), ranked one block per unordered pair of direct summands
of A; a singular value inside the band abstains.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalAmbiguityError, raise_ambiguous
from .structure import MAX_MATRIX_N

DEFAULT_RANK_TOL = 1e-8
# a singular value within this factor of the rank threshold is ambiguous
RANK_BAND = 10.0

ACTIONS = ("similarity", "congruence", "star_congruence")


def check_tol(tol: float) -> None:
    """Refuse a relative rank tolerance outside (0, 1), NaN included."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def check_positive(x: float, what: str) -> None:
    """Refuse ``x`` unless it is finite and > 0, NaN and booleans included."""
    if isinstance(x, bool) or not (math.isfinite(x) and x > 0):
        raise ValueError(f"{what} must be finite and > 0, got {x}")


def check_finite(A, what: str = "matrix") -> np.ndarray:
    """A as a complex array; refuse anything but a finite, non-empty, square 2-D
    array of order <= MAX_MATRIX_N (the one entry check of every numeric layer)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError(f"{what} must be a non-empty square 2-D array, got shape {A.shape}")
    if len(A) > MAX_MATRIX_N:
        raise ValueError(f"{what} has order {len(A)}, beyond the supported {MAX_MATRIX_N}x{MAX_MATRIX_N}")
    if not np.isfinite(A).all():
        raise ValueError(f"{what} must be finite, got a NaN or infinite entry")
    return A


def scale_exponent(A: np.ndarray) -> np.ndarray:
    """The exponent e, per matrix of a stack (..., n, n) and shaped (..., 1, 1),
    that brings its largest real or imaginary part into [0.5, 1) as A / 2^e (0 for zero)."""
    return np.frexp(np.abs(np.ascontiguousarray(A).view(float)).max(axis=(-2, -1), keepdims=True))[1]


def unit_scale(A: np.ndarray) -> np.ndarray:
    """A / 2^e, each matrix of a stack by its own ``scale_exponent`` e: exact short
    of subnormals, so no decision moves, no norm overflows."""
    parts = np.ascontiguousarray(A).view(float)
    return np.ldexp(parts, -scale_exponent(parts)).view(complex)


def _closure(linked: np.ndarray) -> np.ndarray:
    """Transitive closure of a reflexive relation (or a stack of them): square it until
    that changes nothing, as a reflexive relation equal to its square is transitive."""
    while not np.array_equal(linked, closer := linked @ linked):
        linked = closer
    return linked


def _assemble(action: str, A: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Tangent map of ``action`` at A on a stack (..., N) of entry sets (i, j)
    of X and of the image: E_kl maps to [i=k] A[l,j] - A[i,k] [l=j] under
    similarity, to [l=i] A[k,j] + A[i,k] [l=j] under congruence."""
    k, l = i[..., None, :], j[..., None, :]
    i, j = i[..., :, None], j[..., :, None]
    # each gather is scaled in place, with no N x N temporary per term
    left = A[i, k]
    left *= l == j  # A X
    if action == "similarity":
        M = A[l, j]
        M *= i == k  # X A
        M -= left
        return M
    M = A[k, j]
    M *= l == i  # X^T A
    if action == "star_congruence":
        # X = i E_kl maps to i (A E_kl - E_lk A)
        turn = left - M
        M += left
        cols = (np.concatenate([M.real, M.imag], axis=-2), np.concatenate([-turn.imag, turn.real], axis=-2))
        return np.stack(cols, axis=-1).reshape(*M.shape[:-2], 2 * M.shape[-2], 2 * M.shape[-1])
    M += left
    return M


def action_operator(action: str, A: np.ndarray) -> np.ndarray:
    """Matrix of the tangent map of ``action`` at A, on every entry of X:
    complex n^2 x n^2 for similarity and congruence, real 2n^2 x 2n^2 for
    *congruence (the map is only real-linear there).

    Column k*n + l is the image of E_kl (for *congruence, columns 2(k*n + l)
    and 2(k*n + l) + 1 are the images of E_kl and i*E_kl); rows are the
    row-major entries of the image (for *congruence, real parts above
    imaginary parts).
    """
    A = check_finite(A)
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
    return _assemble(action, A, *np.divmod(np.arange(A.size), len(A)))


def _summand_pieces(A: np.ndarray) -> list:
    """Entry stacks (i, j) of shape (s, N), one per size N, of the blocks of
    the tangent map at A: one block per unordered pair of direct summands
    (components of the graph linking i and j where A[i, j] or A[j, i] is
    nonzero), as X's blocks (a, b) and (b, a) map onto the same entries of
    the image.  One summand gives one block of all n^2 entries, row-major."""
    n = len(A)
    linked = _closure((A != 0) | (A.T != 0) | np.eye(n, dtype=bool))
    head = linked.argmax(axis=0)  # lowest index of each index's summand
    key = (np.minimum.outer(head, head) * n + np.maximum.outer(head, head)).reshape(-1)
    order = np.argsort(key, kind="stable")  # grouped by hand: np.unique loads numpy.ma
    sizes = (counts := np.bincount(key))[counts > 0]  # per key, in sorted order
    starts = np.cumsum(sizes) - sizes
    return [np.divmod(order[starts[sizes == N, None] + np.arange(N)], n) for N in set(sizes.tolist())]


def numeric_rank(M: np.ndarray, ref: float, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of M by the band rule of ``band_ranks`` against tol * ref.

    M may be a stack (..., m, p) of matrices; all their singular values are
    ranked as one row, so its rank is the sum of theirs.  ``ref`` is the
    scale of the data M was built from: ranking against M's own largest
    singular value would count roundoff as rank when M should be zero.
    """
    check_tol(tol)
    return raise_ambiguous(band_ranks(np.linalg.svd(M, compute_uv=False).reshape(1, -1), tol, (ref,)))[0]


# stacks of at most this many singular values take the plain-Python pass
# of band_ranks, larger ones the array pass: about 0.35 us a value against
# about 20 us flat, so the two meet near 64 values
_SMALL_STACK = 64


def _band_error(band: list, thr: float) -> NumericalAmbiguityError:
    return NumericalAmbiguityError(
        "singular values fall inside the rank-tolerance band",
        details={"band": band, "threshold": float(thr)},
    )


def band_ranks(s: np.ndarray, tol: float, ref) -> list:
    """Guarded rank of each row of a stack of singular values s (k, m).

    Row i counts its values at or above thr = ``tol * ref[i]``, in any
    order: ``ref`` holds one scale per row, named at every call.  A zero
    scale gives rank 0.  A row with a value inside the ambiguity band
    (thr / RANK_BAND, thr * RANK_BAND) gets, in place of its rank, the
    NumericalAmbiguityError that ranking that row alone raises.
    """
    if s.size <= _SMALL_STACK:
        out = []
        for row, scale in zip(s.tolist(), ref):
            thr = tol * float(scale)
            band = [v for v in row if thr / RANK_BAND < v < thr * RANK_BAND]
            out.append(_band_error(band, thr) if band else (sum(v >= thr for v in row) if thr > 0 else 0))
        return out
    thr = tol * np.asarray(ref, dtype=float)[:, None]
    thr[thr == 0] = np.inf  # a zero scale: no value at or above it, none inside the band
    inside = (thr / RANK_BAND < s) & (s < thr * RANK_BAND)
    out = (s >= thr).sum(axis=1).tolist()
    for i in np.flatnonzero(inside.any(axis=1)).tolist():
        out[i] = _band_error(s[i, inside[i]].tolist(), thr[i, 0])
    return out


def guarded_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """band_ranks of the singular values of M, against the largest of them."""
    check_tol(tol)
    return raise_ambiguous(band_ranks((s := np.linalg.svd(M, compute_uv=False))[None], tol, s[:1]))[0]


def _codim(action: str, A, tol: float) -> int:
    """Domain dimension of the tangent map of ``action`` at A minus its rank.

    The blocks of ``_summand_pieces`` of one size are ranked in one stacked
    SVD, against the Frobenius norm of A rather than the map's own largest
    singular value: at a scalar matrix moved by a unitary similarity the
    commutator map is pure roundoff and has rank 0.  (The Frobenius norm is
    within sqrt(n) of the spectral norm and, unlike it, needs no SVD.)
    """
    check_tol(tol)
    A = unit_scale(check_finite(A))
    ref = float(np.linalg.norm(A))
    rank = sum(numeric_rank(_assemble(action, A, i, j), ref, tol) for i, j in _summand_pieces(A))
    return A.size * (2 if action == "star_congruence" else 1) - rank


def similarity_codim_numeric(A, tol: float = DEFAULT_RANK_TOL) -> int:
    """n^2 minus the complex rank of X |-> XA - AX."""
    return _codim("similarity", A, tol)


def congruence_codim_numeric(A, tol: float = DEFAULT_RANK_TOL) -> int:
    """n^2 minus the complex rank of X |-> X^T A + A X."""
    return _codim("congruence", A, tol)


def star_congruence_codim_numeric(A, tol: float = DEFAULT_RANK_TOL) -> int:
    """2 n^2 minus the real rank of X |-> X* A + A X."""
    return _codim("star_congruence", A, tol)
