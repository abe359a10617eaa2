"""Constructive reduction of a perturbed Jordan matrix to miniversal form.

One chord (simplified Newton) iteration on the similarity tangent map at
the Jordan matrix J (Arnold, "On matrices depending on parameters", 1971).
Each step takes R, the part of M - J on the template's pinned cells,
solves XJ - JX = R on those cells, and replaces M by T^{-1} M T with
T = I + X, accumulating S <- S T.  Every cell between two eigenvalue
groups is pinned, and all are solved at once by a masked fixed-point
pass.  Inside a group, X fills along the diagonals of each sub-block of
the block grid, chains that start from zero: X[i+1, j] = X[i, j-1] -
R[i, j] on and above the block diagonal, X[i, j-1] = X[i+1, j] + R[i, j]
below it.  All chains are one cumulative sum, its indices built once per
block grid.  Each step shrinks the pinned residual by a factor of about
|E|, and S stays within a constant times |E| of the identity.  The
iteration refuses rather than leave that regime.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product

import numpy as np

from ._value import Value
from .errors import ReductionError, SizeMismatchError, SpectraOverlapError
from .structure import JordanType
from .tangent import check_finite
from .templates import check_pattern_tol, jordan_matrix, pinned_cells

DEFAULT_PATTERN_TOL = 1e-8
GAP_TOL = 1e-8  # least spectral separation, relative to the data scale
MAX_STEP = 0.25  # largest spectral norm of one step X
MAX_STEPS = 20  # chord steps before the iteration gives up
_FLOOR = 16 * np.finfo(float).eps  # least stopping target, relative to the data scale
_ZERO = np.zeros(1, dtype=complex)


class _Plan:
    """What a reduction needs of a block grid (the block sizes of each
    eigenvalue group), built once per grid by ``_plan``; arrays read-only."""

    def __init__(self, grid: tuple[tuple[int, ...], ...]):
        sizes = [sum(parts) for parts in grid]
        n = sum(sizes)
        self.pinned = pinned_cells(grid)
        self.starts = np.array(list(accumulate(sizes[:-1], initial=0)))  # of each group
        self.group = np.repeat(np.arange(len(grid)), sizes)  # of each row
        self.between = self.group[:, None] != self.group[None, :]
        self.passes = sum(sorted(map(max, grid))[-2:]) - 1  # that solve ``between`` exactly
        chains = []  # (first cell, cell count, source index - cell) of each chain
        for off, parts in zip(self.starts.tolist(), grid):
            blocks = list(zip(accumulate(parts[:-1], initial=off), parts))
            for (sp, mp), (sq, mq) in product(blocks, blocks):
                if sp <= sq and mp > 1:  # rows fill downward from the top row
                    first = [(sp + 1, j) for j in range(sq, sq + mq)]
                    first += [(i, sq) for i in range(sp + 2, sp + mp)]
                    chains += [(i * n + j, min(sp + mp - i, sq + mq - j), -n) for i, j in first]
                elif sp > sq and mq > 1:  # columns fill leftward from the last column
                    first = [(i, sq + mq - 2) for i in range(sp, sp + mp)]
                    first += [(sp + mp - 1, j) for j in range(sq, sq + mq - 2)]
                    chains += [(i * n + j, min(i - sp, j - sq) + 1, n * n + 1) for i, j in first]
        heads, lengths, shifts = np.array(chains, dtype=np.intp).reshape(-1, 3).T[:, :, None]
        k = np.arange(1 + int(lengths.max(initial=0)))
        fill = (k > 0) & (k <= lengths)
        cells = heads + (k - 1) * np.where(shifts < 0, n + 1, -n - 1)
        # rows of indices into [-R, R, 0], and where their cells lie in the cumsum and in X
        self.chains = np.where(fill, cells + shifts, 2 * n * n)
        self.sums, self.cells = np.flatnonzero(fill), cells[fill]
        for field in vars(self).values():
            if isinstance(field, np.ndarray):
                field.setflags(write=False)


_plan = lru_cache(maxsize=256)(_Plan)


class _BetweenGroups:
    """XJ - JX = R on every cell between two diagonal blocks (the groups) of
    a block-diagonal, upper-triangular J, all pairs of groups at once.

    With J = L + N, L diagonal, it repeats X <- (R + NX - XN) / (L_j - L_i)
    from X = 0.  A cell depends only on cells below it or to its left, so
    depth_a + depth_b - 1 passes are exact, the largest block of each group
    in ``plan`` bounding its nilpotency index.  It refuses a pair to solve
    whose diagonals lie closer than GAP_TOL times the data scale, and a
    residual above 1e-10 |R| (or NaN).  What depends only on J is computed
    once, here.
    """

    def __init__(self, J, plan: _Plan):
        lam = np.diag(J)
        self.J, self.N = J, J - np.diag(lam)
        self.starts, self.between, self.passes = plan.starts, plan.between, plan.passes
        gap = lam[None, :] - lam[:, None]
        self.gap = self._blocks(np.minimum, np.abs(gap))
        top = np.maximum.reduceat(np.abs(lam), self.starts)
        self.threshold = GAP_TOL * np.maximum(1.0, np.maximum.outer(top, top))
        self.close = (self.gap < self.threshold) & ~np.eye(len(top), dtype=bool)
        solved = self.between & ~self.close[plan.group][:, plan.group]
        self.inv_gap = np.divide(1, gap, out=np.zeros_like(gap), where=solved)

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
    J1, J2, C = (np.asarray(a, dtype=complex) for a in (J1, J2, C))
    n1, n2 = J1.shape[0], J2.shape[0]
    if J1.shape != (n1, n1) or J2.shape != (n2, n2) or C.shape != (n2, n1):
        raise SizeMismatchError(f"incompatible shapes {J1.shape}, {J2.shape}, {C.shape}")
    if np.tril(J1, -1).any() or np.tril(J2, -1).any():
        raise ValueError("sylvester_solve needs upper-triangular J1 and J2")
    J = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    J[:n1, :n1], J[n1:, n1:] = J1, J2
    R = np.zeros_like(J)
    R[n1:, :n1] = C
    between = _BetweenGroups(J, _plan(((n1,), (n2,))))
    between.refuse_close(True)
    return between.solve(R)[n1:, :n1]


def _chord_step(R, between, plan: _Plan) -> np.ndarray:
    """X with XJ - JX = R on every pinned cell: ``between`` (None for one
    group) solves the cells between two groups, then the chains fill each
    group, X being zero on the top row or last column they start from."""
    X = np.zeros_like(R) if between is None else between.solve(R)
    chained = np.concatenate((-R, R, _ZERO), axis=None)[plan.chains].cumsum(axis=1)
    X.put(plan.cells, chained.take(plan.sums))
    return X


class ReductionResult(Value):
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
    once the pinned residual is at most max(min(tol/100, 1e-12), 16 eps)
    max(1, |J|_F), never aiming below roundoff; ``pattern_ok`` reports a
    smaller tol left unmet.  It raises ReductionError when a step X has
    |X|_2 > MAX_STEP, when the pinned residual fails to halve, or after
    MAX_STEPS steps: the perturbation is then too large for the eigenvalue
    gaps or the Jordan structure, and no near-identity S is certain.
    """
    check_pattern_tol(tol)
    J, n = jordan_matrix(t), t.n
    E = check_finite(E, "perturbation")
    if E.shape != (n, n):
        raise SizeMismatchError(f"perturbation shape {E.shape} vs order {n}")
    plan = _plan(tuple(part.parts for _, part in t.entries))
    between = _BetweenGroups(J, plan) if len(plan.starts) > 1 else None
    target = max(min(tol * 1e-2, 1e-12), _FLOOR) * max(1.0, float(np.linalg.norm(J)))
    M = J + E
    S = np.eye(n, dtype=complex)
    steps, previous = 0, np.inf
    while True:
        R = np.where(plan.pinned, M - J, 0)
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
        X = _chord_step(R, between, plan)
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
