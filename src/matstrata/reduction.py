"""Constructive reduction of a perturbed Jordan matrix to miniversal form.

One chord (simplified Newton) iteration on the similarity tangent map at
the Jordan matrix J (Arnold, "On matrices depending on parameters", 1971).
Each step takes R, the part of M - J on the template's pinned cells,
solves XJ - JX = R on those cells, and replaces M by T^{-1} M T with
T = I + X, accumulating S <- S T.  The step splits over J's eigenvalue
groups: a block between two groups is all pinned and is one column sweep
of triangular solves; inside a group each sub-block of the block grid is
a triangular recursion along its diagonals, whose free row or column is
the template's parameter cells.  Each step shrinks the pinned residual
by a factor of about |E|, and S stays within a constant times |E| of the
identity.  The iteration refuses rather than leave that regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReductionError, SizeMismatchError, SpectraOverlapError
from .structure import JordanType, label_layout
from .templates import FIXED, check_pattern_tol, jordan_matrix, miniversal_template

DEFAULT_PATTERN_TOL = 1e-8
GAP_TOL = 1e-8  # least spectral separation, relative to the data scale
MAX_STEP = 0.25  # largest spectral norm of one step X
MAX_STEPS = 20  # chord steps before the iteration gives up


def sylvester_solve(J1, J2, C) -> np.ndarray:
    """Solve J2 M - M J1 = -C for M (n2 x n1), J1 and J2 upper triangular.

    Column j is the triangular solve (J2 - J1[j,j] I) M[:, j] =
    M[:, :j] J1[:j, j] - C[:, j] (Bartels-Stewart with no Schur step).
    Refuses entries below the diagonal, diagonals closer than GAP_TOL
    times the data scale, and a residual above 1e-10 |C| (or NaN).
    """
    J1 = np.asarray(J1, dtype=complex)
    J2 = np.asarray(J2, dtype=complex)
    C = np.asarray(C, dtype=complex)
    n1, n2 = J1.shape[0], J2.shape[0]
    if J1.shape != (n1, n1) or J2.shape != (n2, n2) or C.shape != (n2, n1):
        raise SizeMismatchError(
            f"incompatible shapes {J1.shape}, {J2.shape}, {C.shape}"
        )
    if np.tril(J1, -1).any() or np.tril(J2, -1).any():
        raise ValueError("sylvester_solve needs upper-triangular J1 and J2")
    e1, e2 = np.diag(J1), np.diag(J2)
    scale = max(1.0, float(np.abs(e1).max()), float(np.abs(e2).max()))
    gap = float(np.abs(e2[:, None] - e1[None, :]).min())
    if gap < GAP_TOL * scale:
        raise SpectraOverlapError(
            f"spectra separated by {gap:.3e} < threshold {GAP_TOL * scale:.3e}"
        )
    shifted = np.linalg.inv(J2 - e1[:, None, None] * np.eye(n2))  # one per column
    M = np.empty((n2, n1), dtype=complex)
    for j in range(n1):
        M[:, j] = shifted[j] @ (M[:, :j] @ J1[:j, j] - C[:, j])
    residual = float(np.linalg.norm(J2 @ M - M @ J1 + C))
    if not residual <= 1e-10 * np.linalg.norm(C):
        raise ReductionError(
            f"Sylvester residual {residual:.3e} exceeds 1e-10*|C|; "
            f"spectral gap {gap:.3e} too small for a reliable solve"
        )
    return M


def _group_step(X, R, sizes) -> None:
    """Fill X on one eigenvalue group so that X[i, j-1] - X[i+1, j] = R[i, j]
    on every pinned cell of each sub-block of the block grid.

    A sub-block (p, q) with p <= q is pinned off its bottom row: its rows
    fill downward from a zero top row.  One with p > q is pinned off its
    first column: its columns fill leftward from a zero last column.
    """
    starts = np.cumsum((0,) + sizes[:-1])
    ends = starts + np.array(sizes) - 1
    for p, (sp, mp) in enumerate(zip(starts, sizes)):
        firsts = starts[p:]  # first column of each sub-block right of the diagonal
        for r in range(sp, sp + mp - 1):
            X[r + 1, sp + 1 :] = X[r, sp:-1]
            X[r + 1, firsts] = 0
            X[r + 1, sp:] -= R[r, sp:]
    for q, (sq, mq) in enumerate(zip(starts[:-1], sizes[:-1])):
        below, lasts = starts[q + 1], ends[q + 1 :]  # last row of each sub-block below
        for c in range(sq + mq - 1, sq, -1):
            X[below:-1, c - 1] = X[below + 1 :, c]
            X[lasts, c - 1] = 0
            X[below:, c - 1] += R[below:, c]


def _chord_step(J, R, spans, sizes) -> np.ndarray:
    """X with XJ - JX = R on every pinned cell, zero on the parameter cells."""
    X = np.zeros_like(R)
    for a, (a0, a1) in enumerate(spans):
        for b, (b0, b1) in enumerate(spans):
            if a == b:
                _group_step(X[a0:a1, a0:a1], R[a0:a1, a0:a1], sizes[a])
            elif R[a0:a1, b0:b1].any():
                X[a0:a1, b0:b1] = sylvester_solve(J[b0:b1, b0:b1], J[a0:a1, a0:a1], R[a0:a1, b0:b1])
    return X


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of a reduction: D = S^{-1} (J+E) S up to roundoff.

    ``residual`` is the largest deviation of D from the template over its
    pinned cells, ``pattern_ok`` says whether it is within the pattern
    tolerance, and ``iterations`` counts the chord steps taken (0 when
    nothing pinned was perturbed).
    """

    S: np.ndarray
    D: np.ndarray
    residual: float
    iterations: int
    pattern_ok: bool


def reduce_to_miniversal(t: JordanType, E, tol: float = DEFAULT_PATTERN_TOL) -> ReductionResult:
    """Reduce J + E to the miniversal template of the structure ``t``.

    ``t`` needs concrete labels, ``E`` finite entries.  The iteration stops
    once the pinned residual is at most min(tol/100, 1e-12) max(1, |J|_F).
    It raises ReductionError when a step X has |X|_2 > MAX_STEP, when the
    pinned residual fails to halve, or after MAX_STEPS steps: the
    perturbation is then too large for the eigenvalue gaps or the Jordan
    structure, and no near-identity S is certain.
    """
    check_pattern_tol(tol)
    J = jordan_matrix(t)
    n = t.n
    E = np.asarray(E, dtype=complex)
    if E.shape != (n, n):
        raise SizeMismatchError(f"perturbation shape {E.shape} vs order {n}")
    if not np.isfinite(E).all():
        raise ValueError("perturbation must be finite")
    pinned = np.array(miniversal_template(t).kinds) == FIXED
    layout = label_layout(t)
    spans = [(off, off + part.total) for _, part, off in layout]
    sizes = [part.parts for _, part, _ in layout]
    target = min(tol * 1e-2, 1e-12) * max(1.0, float(np.linalg.norm(J)))
    M = J + E
    S = np.eye(n, dtype=complex)
    steps, previous = 0, np.inf
    while True:
        R = np.where(pinned, M - J, 0)
        residual = float(np.abs(R).max())
        if residual <= target:
            break
        if not residual <= previous / 2:  # NaN included
            raise ReductionError(
                f"pinned residual {residual:.3e} did not halve from {previous:.3e}; "
                "the perturbation is too large"
            )
        if steps == MAX_STEPS:
            raise ReductionError(f"no convergence in {MAX_STEPS} chord steps")
        X = _chord_step(J, R, spans, sizes)
        # the Frobenius norm bounds the spectral one, so the SVD runs only near the limit
        if np.linalg.norm(X) > MAX_STEP and (size := np.linalg.norm(X, 2)) > MAX_STEP:
            raise ReductionError(
                f"chord step of norm {size:.3e} > {MAX_STEP}; the perturbation is "
                "too large for the eigenvalue gaps or the Jordan structure"
            )
        T = np.eye(n) + X
        M = np.linalg.solve(T, M @ T)
        S = S @ T
        steps, previous = steps + 1, residual
    return ReductionResult(S=S, D=M, residual=residual, iterations=steps, pattern_ok=residual <= tol)
