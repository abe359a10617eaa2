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
structure.  Each step shrinks the pinned residual by a factor of about
|E|, and S stays within a constant times |E| of the identity.  The
iteration refuses rather than leave that regime.  What depends on the
structure alone is cached (``_setup``), keyed on it and its label reprs,
for 256 structures of about 12 KB each at n <= 12.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product

import numpy as np

from ._value import Value
from .errors import ReductionError, SizeMismatchError, SpectraOverlapError
from .structure import JordanType
from .tangent import as_complex, check_finite, check_positive, scale_exponent, unit_scale
from .templates import DEFAULT_PATTERN_TOL, jordan_matrix, pinned_cells

GAP_TOL = 1e-8  # least spectral separation, relative to the data scale
MAX_STEP = 0.25  # largest spectral norm of one step X
MAX_STEPS = 20  # chord steps before the iteration gives up
_FLOOR = 16 * np.finfo(float).eps  # least stopping target, relative to the data scale
_ZERO = np.zeros(1, dtype=complex)


def _freeze(*fields) -> None:
    """Make the arrays among ``fields`` read-only: they are cached and shared."""
    for field in fields:
        if isinstance(field, np.ndarray):
            field.setflags(write=False)


class _Plan:
    """The pinned mask and within-group chains of a block grid (the block sizes
    of each eigenvalue group), built by ``_setup`` once per structure; arrays read-only."""

    def __init__(self, grid: tuple[tuple[int, ...], ...]):
        n = sum(map(sum, grid))
        self.pinned = pinned_cells(grid)
        self.pinned_at = np.flatnonzero(self.pinned)  # flat indices, for the residual
        chains = []  # (first cell, cell count, source index - cell) of each chain
        for off, parts in zip(accumulate(map(sum, grid[:-1]), initial=0), grid):
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
        _freeze(*vars(self).values())


class _BetweenGroups:
    """XJ - JX = R on every cell between two diagonal blocks (the groups) of
    a block-diagonal, upper-triangular J, all pairs of groups at once.

    With J = L + N, L diagonal, it repeats X <- (R + NX - XN) / (L_j - L_i)
    from X = 0.  A cell depends only on cells below it or to its left, so
    depth_a + depth_b - 1 passes are exact, the largest block of each group
    in ``grid`` bounding its nilpotency index.  It refuses a pair to solve
    whose diagonals lie closer than GAP_TOL times the data scale, and a
    residual above 1e-10 |R| (or NaN).  What depends on J alone is built here.
    """

    def __init__(self, J, grid: tuple[tuple[int, ...], ...]):
        sizes = [sum(parts) for parts in grid]
        lam = np.diag(J)
        self.J, self.N = J, J - np.diag(lam)
        self.starts = np.array(list(accumulate(sizes[:-1], initial=0)))  # of each group
        group = np.repeat(np.arange(len(grid)), sizes)  # of each row
        self.passes = sum(sorted(map(max, grid))[-2:]) - 1  # that solve the between cells exactly
        # the flat indices of the between cells, pair of groups (a, b) by pair in
        # row-major order, into Z and then R laid end to end (``pair_norms``),
        # each pair's run start in them, and the pairs themselves
        spans = [range(s, s + m) for s, m in zip(accumulate(sizes[:-1], initial=0), sizes)]
        pairs = [(a, b) for a, b in product(range(len(grid)), repeat=2) if a != b]
        runs = [[i * len(J) + j for i in spans[a] for j in spans[b]] for a, b in pairs]
        cells = [cell for run in runs for cell in run]
        self.pairs = np.array(pairs)
        self.cells = np.array(cells + [cell + J.size for cell in cells])
        self.runs = np.array(list(accumulate(map(len, runs * 2), initial=0))[:-1])
        gap = lam[None, :] - lam[:, None]
        self.gap = self._blocks(np.minimum, np.abs(gap))
        top = np.maximum.reduceat(np.abs(lam), self.starts)
        self.threshold = GAP_TOL * np.maximum(1.0, np.maximum.outer(top, top))
        self.close = (self.gap < self.threshold) & ~np.eye(len(top), dtype=bool)
        solved = (group[:, None] != group[None, :]) & ~self.close[group][:, group]
        self.inv_gap = np.divide(1, gap, out=np.zeros_like(gap), where=solved)
        self.any_close = bool(self.close.any())
        _freeze(self.N, self.starts, self.pairs, self.cells, self.runs, self.gap, self.threshold,
                self.close, self.inv_gap)

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

    def pair_norms(self, Z, R) -> np.ndarray:
        """The Frobenius norms of Z and of R over each of ``pairs``, two rows: one
        gather of the between cells, summed by hypot, which neither overflows
        nor underflows."""
        cells = np.concatenate((Z, R), axis=None).take(self.cells)
        return np.hypot.reduceat(np.abs(cells), self.runs).reshape(2, -1)

    def solve(self, R) -> np.ndarray:
        """X on the between-group cells, zero inside the groups."""
        if self.any_close:
            self.refuse_close(self._blocks(np.logical_or, R != 0))
        X = R * self.inv_gap
        for _ in range(self.passes - 1):
            X = (R + self.N @ X - X @ self.N) * self.inv_gap
        residual, size = self.pair_norms(X @ self.J - self.J @ X - R, R)
        if len(bad := np.flatnonzero(~(residual <= 1e-10 * size))):  # NaN included
            first = bad[0]
            raise ReductionError(
                f"Sylvester residual {residual[first]:.3e} exceeds 1e-10*|C|; "
                f"spectral gap {self.gap[tuple(self.pairs[first])]:.3e} too small for a reliable solve"
            )
        return X


def sylvester_solve(J1, J2, C) -> np.ndarray:
    """Solve J2 M - M J1 = -C for M (n2 x n1), J1 and J2 upper triangular.

    M is the between-group block of XJ - JX = R for J = blockdiag(J1, J2)
    (``_BetweenGroups``).  Refuses a string, boolean, NaN or infinite entry,
    an order above MAX_MATRIX_N, entries below the diagonal, diagonals closer
    than GAP_TOL times the data scale, and a residual above 1e-10 |C| (or NaN).
    """
    J1, J2, C = (as_complex(a, what) for a, what in ((J1, "J1"), (J2, "J2"), (C, "C")))
    n1, n2 = J1.shape[0], J2.shape[0]
    if J1.shape != (n1, n1) or J2.shape != (n2, n2) or C.shape != (n2, n1):
        raise SizeMismatchError(f"incompatible shapes {J1.shape}, {J2.shape}, {C.shape}")
    J1, J2 = check_finite(J1, "J1"), check_finite(J2, "J2")
    if not np.isfinite(C).all():
        raise ValueError("C must be finite, got a NaN or infinite entry")
    if np.tril(J1, -1).any() or np.tril(J2, -1).any():
        raise ValueError("sylvester_solve needs upper-triangular J1 and J2")
    J = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    J[:n1, :n1], J[n1:, n1:] = J1, J2
    R = np.zeros_like(J)
    R[n1:, :n1] = C
    between = _BetweenGroups(J, ((n1,), (n2,)))
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


@lru_cache(maxsize=256)
def _setup(t: JordanType, key) -> tuple:
    """J, plan, between-group solver, stopping scale max(1, |J|_F) and step
    identity of the structure ``t``, arrays read-only; ``key`` only keys the cache."""
    grid = tuple(part.parts for _, part in t.entries)
    J, eye, plan = jordan_matrix(t), np.eye(t.n), _Plan(grid)
    _freeze(J, eye)
    between = _BetweenGroups(J, grid) if len(grid) > 1 else None
    e = scale_exponent(J).item()  # |J|_F normed on J / 2^e, so it overflows for no finite J
    return J, plan, between, max(1.0, float(np.ldexp(np.linalg.norm(unit_scale(J)), e))), eye


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
    gaps or the Jordan structure, and no near-identity S is certain.  J and
    what depends on it alone are cached for 256 structures, about 12 KB each
    at n <= 12, keyed on ``t`` and its label reprs (0.0 and -0.0 differ in J).
    """
    check_positive(tol, "pattern tolerance")
    J, plan, between, scale, eye = _setup(t, tuple([repr(label.value) for label, _ in t.entries]))
    E = check_finite(E, "perturbation")
    if E.shape != J.shape:
        raise SizeMismatchError(f"perturbation shape {E.shape} vs order {len(J)}")
    target = max(min(tol * 1e-2, 1e-12), _FLOOR) * scale
    M = J + E
    S = np.eye(len(J), dtype=complex)
    steps, previous = 0, np.inf
    while True:
        delta = M - J
        residual = float(np.abs(delta.take(plan.pinned_at)).max(initial=0.0))
        if residual <= target:
            break
        if not residual <= previous / 2:  # NaN included
            raise ReductionError(
                f"pinned residual {residual:.3e} did not halve from {previous:.3e}; "
                "the perturbation is too large"
            )
        if steps == MAX_STEPS:
            raise ReductionError(f"no convergence in {MAX_STEPS} chord steps")
        X = _chord_step(np.where(plan.pinned, delta, 0), between, plan)
        # the Frobenius norm bounds the spectral one, so the SVD runs only near the limit
        if np.linalg.norm(X) > MAX_STEP and (size := np.linalg.norm(X, 2)) > MAX_STEP:
            raise ReductionError(
                f"chord step of norm {size:.3e} > {MAX_STEP}; the perturbation is "
                "too large for the eigenvalue gaps or the Jordan structure"
            )
        T = eye + X
        M = np.linalg.solve(T, M @ T)
        S = S @ T
        steps, previous = steps + 1, residual
    return ReductionResult(S=S, D=M, residual=residual, iterations=steps, pattern_ok=residual <= tol)
