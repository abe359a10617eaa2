"""Numerical tangent-space dimensions for the three group actions: the ambient
dimension minus the rank of the tangent map (X A - A X, X^T A + A X, or the
real-linear X* A + A X), by the band rule against tol |A|_F at A scaled by an
exact power of two, one block per unordered pair of direct summands of A; a
singular value inside the band abstains."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalAmbiguityError, raise_ambiguous
from .structure import MAX_MATRIX_N, not_a_number

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


def as_complex(A, what: str = "matrix") -> np.ndarray:
    """A as a complex array; refuse strings and booleans, in an object array too."""
    A = np.asarray(A)
    if A.dtype.kind in "USb" or A.dtype == object and any(map(not_a_number, A.flat)):
        raise TypeError(f"{what} entries must be numbers, got {A.dtype} entries")
    return A.astype(complex, copy=False)


def check_finite(A, what: str = "matrix") -> np.ndarray:
    """A as a complex array; refuse anything but a finite, non-empty, square 2-D
    array of order <= MAX_MATRIX_N (the one entry check of every numeric layer)."""
    A = as_complex(A, what)
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


def _summand_pieces(A: np.ndarray) -> list:
    """Entry stacks (i, j) (s, N), one per size N, of the tangent map's blocks at A:
    one per unordered pair of direct summands (components of the graph of A + A^T),
    as X's blocks (a, b) and (b, a) map onto the same entries of the image.  One
    summand is one block of all n^2 entries, row-major, as ``action_operator`` has it."""
    n = len(A)
    linked = _closure((A != 0) | (A.T != 0) | np.eye(n, dtype=bool))
    head = linked.argmax(axis=0)  # lowest index of each index's summand
    key = (np.minimum.outer(head, head) * n + np.maximum.outer(head, head)).reshape(-1)
    order = np.argsort(key, kind="stable")  # grouped by hand: np.unique loads numpy.ma
    sizes = (counts := np.bincount(key))[counts > 0]  # per key, in sorted order
    starts = np.cumsum(sizes) - sizes
    return [np.divmod(order[starts[sizes == N, None] + np.arange(N)], n) for N in set(sizes.tolist())]


@lru_cache(maxsize=128)
def _plan(action: str, n: int, pattern: bytes) -> tuple:
    """Tangent map of ``action`` at order n and nonzero ``pattern`` (row-major bools):
    its blocks stacked per size, all in one buffer of floats.  Image entry (i, j) of
    E_kl reads A[l, j] at k = i and -A[i, k] at l = j (similarity), A[k, j] at l = i
    and A[i, k] at l = j (congruence; *congruence puts Re, Im of v1 + v2 in rows r,
    N + r of E_kl's column 2c, of i (v2 - v1) in i E_kl's).  Returns each term part's
    buffer position and index into the parts of A, -A (int32, read-only), the buffer
    size, and each stack's (start, stop, shape)."""
    sim, w, neg = action == "similarity", 1 + (action == "star_congruence"), 2 * n * n  # -A's parts from neg
    pieces = _summand_pieces(np.frombuffer(pattern, dtype=bool).reshape(n, n))
    row, col, block, half = np.empty((4, n * n), dtype=np.intp)  # of each image entry, in floats
    stacks, at = [], 0
    for i, j in pieces:  # block after block, each row-major; (Re, Im) pairs under one column
        (s, N), e = i.shape, i * n + j
        block[e] = starts = np.arange(at, at + s * (size := 2 * w * N * N), size)[:, None]
        row[e], col[e], half[e] = starts + (c := np.arange(0, 2 * N, 2)) * N, c, 2 * N * N
        stacks.append((at // (3 - w), (at := at + s * size) // (3 - w), (s, w * N, w * N)))
    diag = block[:: n + 1]  # (u, u) lies in the block of u's summand with itself
    u, t = np.nonzero(diag[:, None] == diag)  # t in u's summand
    un, tn, u, t, kn, k = u[:, None] * n, t[:, None] * n, u[:, None], t[:, None], np.arange(0, n * n, n), np.arange(n)
    rows = np.concatenate([kn + u, un + k])  # the first terms at (u, t, k), then the second
    cols = np.concatenate([kn + t if sim else tn + k, tn + k])
    put = (row[rows] + col[cols]).astype(np.int32)[..., None] + np.arange(2, dtype=np.int32)
    take = (2 * np.concatenate([tn + u, un + t])).astype(np.int32).repeat(n, axis=1).reshape(2, len(u), n, 1)
    if w == 2:  # Re, Im to rows r and N + r of column 2c, then Im, Re (signed) to 2c + 1
        put = put[..., None] + half[rows].astype(np.int32)[..., None, None] * np.arange(2, dtype=np.int32)
        lanes = [[0, 1, 1, neg], [0, 1, neg + 1, 0]]
    else:  # Re, Im side by side; -A for the second similarity term
        lanes = [[0, 1], [sim * neg, sim * neg + 1]]
    put, take = put.ravel(), (take + np.array(lanes, dtype=np.int32)[:, None, None]).ravel()
    put.setflags(write=False), take.setflags(write=False)
    return put, take, at, tuple(stacks)


def _blocks(action: str, A: np.ndarray, pattern: bytes) -> list:
    """``_plan``'s block stacks at A, each float the sum of the parts it gets."""
    put, take, size, stacks = _plan(action, len(A), pattern)
    out = np.bincount(put, np.concatenate([flat := A.reshape(-1), -flat]).view(float)[take], size)
    out = out if action == "star_congruence" else out.view(complex)
    return [out[start:stop].reshape(shape) for start, stop, shape in stacks]


def action_operator(action: str, A: np.ndarray) -> np.ndarray:
    """The tangent map of ``action`` at A as one block: complex n^2 x n^2, column
    k*n + l the image of E_kl at the row-major entries; for *congruence real 2n^2 x 2n^2,
    columns 2(k*n + l) and 2(k*n + l) + 1 for E_kl and i*E_kl, real parts above imaginary."""
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
    A = check_finite(A)
    return _blocks(action, A, b"\x01" * A.size)[0][0]


def numeric_rank(M: np.ndarray, ref: float, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of M, or the sum of the ranks of a stack (..., m, p), by ``band_ranks``
    against tol * ref, ``ref`` the scale of the data M was built from: against M's
    own largest singular value, roundoff would count as rank when M should be zero."""
    check_tol(tol)
    return raise_ambiguous(band_ranks(np.linalg.svd(M, compute_uv=False).reshape(1, -1), tol, (ref,)))[0]


# band_ranks takes its plain-Python pass up to this many singular values, about
# 0.35 us a value, and its array pass, about 20 us flat, above
_SMALL_STACK = 64


def _band_error(band: list, thr: float) -> NumericalAmbiguityError:
    details = {"band": band, "threshold": float(thr)}
    return NumericalAmbiguityError("singular values fall inside the rank-tolerance band", details=details)


def band_ranks(s: np.ndarray, tol: float, ref) -> list:
    """Guarded rank of each row of singular values s (k, m): its count of values at or
    above thr = ``tol * ref[i]`` (0 at a zero scale), or, with a value inside the band
    (thr / RANK_BAND, thr * RANK_BAND), the NumericalAmbiguityError that row raises."""
    if s.size <= _SMALL_STACK:
        out = []
        for row, scale in zip(s.tolist(), ref):
            thr = tol * float(scale)
            band = [v for v in row if thr / RANK_BAND < v < thr * RANK_BAND]
            out.append(_band_error(band, thr) if band else (sum(v >= thr for v in row) if thr > 0 else 0))
        return out
    thr = tol * np.asarray(ref, dtype=float)[:, None]
    if not thr.all():
        thr[thr == 0] = np.inf  # a zero scale: no value at or above it, none inside the band
    inside = (thr / RANK_BAND < s) & (s < thr * RANK_BAND)
    out = (s >= thr).sum(axis=1).tolist()
    if inside.any():  # the common case scans no row
        for i in np.flatnonzero(inside.any(axis=1)).tolist():
            out[i] = _band_error(s[i, inside[i]].tolist(), thr[i, 0])
    return out


def guarded_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """band_ranks of the singular values of M, against the largest of them."""
    check_tol(tol)
    return raise_ambiguous(band_ranks((s := np.linalg.svd(M, compute_uv=False))[None], tol, s[:1]))[0]


def _codim(action: str, A, tol: float) -> int:
    """Domain dimension of the tangent map of ``action`` at A minus its rank, the
    blocks of one size in one SVD, against |A|_F (within sqrt(n) of |A|_2, no SVD):
    at a scalar matrix moved by a unitary similarity the map is roundoff, rank 0."""
    check_tol(tol)
    A = unit_scale(check_finite(A))
    ref = float(np.linalg.norm(A))
    rank = sum(numeric_rank(M, ref, tol) for M in _blocks(action, A, (A != 0).tobytes()))
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
