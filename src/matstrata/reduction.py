"""Constructive reduction of a perturbed Jordan matrix to miniversal form.

One chord (simplified Newton) iteration on the similarity tangent map at
the Jordan matrix J (Arnold, "On matrices depending on parameters", 1971).
Each step takes R, the part of M - J on the template's pinned cells,
solves XJ - JX = R on those cells, and replaces M by T^{-1} M T with
T = I + X, accumulating S <- S T.  The step splits over J's eigenvalue
groups: every cell between two groups is pinned, and all of them are
solved at once by a masked fixed-point pass over the whole grid; inside a
group each sub-block of the block grid is a triangular recursion along its
diagonals, whose free row or column is the template's parameter cells.
Each step shrinks the pinned residual by a factor of about |E|, and S
stays within a constant times |E| of the identity.  The iteration refuses
rather than leave that regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReductionError, SizeMismatchError, SpectraOverlapError
from .structure import JordanType, label_layout
from .tangent import check_finite
from .templates import FIXED, check_pattern_tol, jordan_matrix, miniversal_template

DEFAULT_PATTERN_TOL = 1e-8
GAP_TOL = 1e-8  # least spectral separation, relative to the data scale
MAX_STEP = 0.25  # largest spectral norm of one step X
MAX_STEPS = 20  # chord steps before the iteration gives up


class _BetweenGroups:
    """XJ - JX = R on every cell between two diagonal blocks (the groups) of
    a block-diagonal, upper-triangular J, all pairs of groups at once.

    With J = L + N, L diagonal, it repeats X <- (R + NX - XN) / (L_j - L_i)
    from X = 0.  A cell depends only on cells below it or to its left, so
    depth_a + depth_b - 1 passes are exact, ``depths`` bounding the groups'
    nilpotency indices.  It refuses a pair to solve whose diagonals lie
    closer than GAP_TOL times the data scale, and a residual above
    1e-10 |R| (or NaN).  What depends only on J is computed once, here.
    """

    def __init__(self, J, spans, depths):
        lam = np.diag(J)
        self.J, self.N = J, J - np.diag(lam)
        self.starts = [a0 for a0, _ in spans]
        group = np.repeat(np.arange(len(spans)), [a1 - a0 for a0, a1 in spans])
        self.between = group[:, None] != group[None, :]
        gap = lam[None, :] - lam[:, None]
        self.gap = self._blocks(np.minimum, np.abs(gap))
        top = np.maximum.reduceat(np.abs(lam), self.starts)
        self.threshold = GAP_TOL * np.maximum(1.0, np.maximum.outer(top, top))
        self.close = (self.gap < self.threshold) & ~np.eye(len(spans), dtype=bool)
        solved = self.between & ~self.close[group][:, group]
        self.inv_gap = np.divide(1, gap, out=np.zeros_like(gap), where=solved)
        self.passes = sum(sorted(depths)[-2:]) - 1

    def _blocks(self, ufunc, cells):
        """``cells`` reduced by ``ufunc`` over each pair of groups."""
        return ufunc.reduceat(ufunc.reduceat(cells, self.starts, 0), self.starts, 1)

    def refuse_close(self, pairs) -> None:
        """Raise SpectraOverlapError for the first too close pair of ``pairs``."""
        if len(bad := np.argwhere(self.close & pairs)):
            a, b = bad[0]
            raise SpectraOverlapError(
                f"spectra separated by {self.gap[a, b]:.3e} < threshold {self.threshold[a, b]:.3e}"
            )

    def solve(self, R) -> np.ndarray:
        """X on the between-group cells, zero inside the groups."""
        if self.close.any():
            self.refuse_close(self._blocks(np.logical_or, R != 0))
        X = R * self.inv_gap
        for _ in range(self.passes - 1):
            X = (R + self.N @ X - X @ self.N) * self.inv_gap
        residual, size = (
            np.sqrt(self._blocks(np.add, np.where(self.between, np.abs(Z) ** 2, 0)))
            for Z in (X @ self.J - self.J @ X - R, R)
        )
        if len(bad := np.argwhere(~(residual <= 1e-10 * size))):
            a, b = bad[0]
            raise ReductionError(
                f"Sylvester residual {residual[a, b]:.3e} exceeds 1e-10*|C|; "
                f"spectral gap {self.gap[a, b]:.3e} too small for a reliable solve"
            )
        return X


def sylvester_solve(J1, J2, C) -> np.ndarray:
    """Solve J2 M - M J1 = -C for M (n2 x n1), J1 and J2 upper triangular.

    M is the between-group block of XJ - JX = R for J = blockdiag(J1, J2)
    (``_BetweenGroups``).  Refuses entries below the diagonal, diagonals
    closer than GAP_TOL times the data scale, and a residual above
    1e-10 |C| (or NaN).
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
    J = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    J[:n1, :n1], J[n1:, n1:] = J1, J2
    R = np.zeros_like(J)
    R[n1:, :n1] = C
    between = _BetweenGroups(J, [(0, n1), (n1, n1 + n2)], (n1, n2))
    between.refuse_close(True)
    return between.solve(R)[n1:, :n1]


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


def _chord_step(R, between, spans, sizes) -> np.ndarray:
    """X with XJ - JX = R on every pinned cell.

    Every cell between two eigenvalue groups is pinned, and ``between``
    (None for one group) solves them all in one masked pass; then each
    group is filled by its triangular recursion, X being zero on the top
    row or last column that recursion starts from.
    """
    X = np.zeros_like(R) if between is None else between.solve(R)
    for (a0, a1), parts in zip(spans, sizes):
        _group_step(X[a0:a1, a0:a1], R[a0:a1, a0:a1], parts)
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
    E = check_finite(E, "perturbation")
    if E.shape != (n, n):
        raise SizeMismatchError(f"perturbation shape {E.shape} vs order {n}")
    pinned = np.array(miniversal_template(t).kinds) == FIXED
    layout = label_layout(t)
    spans = [(off, off + part.total) for _, part, off in layout]
    sizes = [part.parts for _, part, _ in layout]
    between = _BetweenGroups(J, spans, [max(p) for p in sizes]) if len(spans) > 1 else None
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
        X = _chord_step(R, between, spans, sizes)
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
