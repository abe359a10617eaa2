"""Constructive reduction of a perturbed Jordan matrix to miniversal form.

Strategy: split the matrix along eigenvalue groups first (iterated
block-elimination with Sylvester solves against the current diagonal
blocks; the lower part contracts quadratically, the upper part then
clears in one exact pass), then sweep each single-eigenvalue block with
near-identity elementary similarity transformations: normalize every
superdiagonal pivot to 1, clear its row, and finally push the leftover
entries into the template's parameter cells using the exact pivot rows.
The accumulated transformation stays near the identity, with distance
proportional to the perturbation size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReductionError, SizeMismatchError, SpectraOverlapError
from .structure import JordanType, Partition, label_layout
from .templates import FIXED, jordan_matrix, miniversal_template, pattern_check

DEFAULT_PATTERN_TOL = 1e-8
SPLIT_TOL = 1e-12  # off-diagonal block norm at which splitting stops
MAX_SWEEPS = 50
GAP_TOL = 1e-8  # least spectral separation, relative to the data scale
MAX_PASSES = 40  # leftover-pushing passes of the single-eigenvalue sweep
PIVOT_FLOOR = 0.5


# ---------------------------------------------------------------------------
# elementary similarity transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    """Multiply column i by a, divide row i by a (a != 0)."""

    i: int
    a: complex


@dataclass(frozen=True)
class AddCol:
    """Add column src times b to column dst; subtract row dst times b
    from row src."""

    src: int
    dst: int
    b: complex


@dataclass(frozen=True)
class Swap:
    """Interchange columns i and j, then rows i and j."""

    i: int
    j: int


def _apply_op(M: np.ndarray, op, S: np.ndarray | None = None) -> None:
    """Apply T^{-1} M T in place; S accumulates the product of the T's."""
    if isinstance(op, Scale):
        if op.a == 0:
            raise ValueError("scale factor must be nonzero")
        M[:, op.i] *= op.a
        M[op.i, :] /= op.a
        if S is not None:
            S[:, op.i] *= op.a
    elif isinstance(op, AddCol):
        if op.src == op.dst:
            raise ValueError("AddCol needs two distinct indices")
        M[:, op.dst] += op.b * M[:, op.src]
        M[op.src, :] -= op.b * M[op.dst, :]
        if S is not None:
            S[:, op.dst] += op.b * S[:, op.src]
    elif isinstance(op, Swap):
        if op.i == op.j:
            raise ValueError("Swap needs two distinct indices")
        M[:, [op.i, op.j]] = M[:, [op.j, op.i]]
        M[[op.i, op.j], :] = M[[op.j, op.i], :]
        if S is not None:
            S[:, [op.i, op.j]] = S[:, [op.j, op.i]]
    else:
        raise TypeError(f"unknown elementary operation {op!r}")


def apply_elementary(M, op) -> np.ndarray:
    """Return the similarity transform of M by one elementary operation."""
    out = np.array(M, dtype=complex)
    _apply_op(out, op)
    return out


# ---------------------------------------------------------------------------
# Sylvester solve
# ---------------------------------------------------------------------------


def sylvester_solve(J1, J2, C) -> np.ndarray:
    """Solve J2 M - M J1 = -C for M (shape n2 x n1).

    Requires the spectra of J1 and J2 to be separated by at least
    GAP_TOL times the data scale; refuses otherwise.
    """
    J1 = np.asarray(J1, dtype=complex)
    J2 = np.asarray(J2, dtype=complex)
    C = np.asarray(C, dtype=complex)
    n1, n2 = J1.shape[0], J2.shape[0]
    if J1.shape != (n1, n1) or J2.shape != (n2, n2) or C.shape != (n2, n1):
        raise SizeMismatchError(
            f"incompatible shapes {J1.shape}, {J2.shape}, {C.shape}"
        )
    e1 = np.linalg.eigvals(J1)
    e2 = np.linalg.eigvals(J2)
    scale = max(1.0, float(np.abs(e1).max()), float(np.abs(e2).max()))
    gap = float(np.abs(e2[:, None] - e1[None, :]).min())
    if gap < GAP_TOL * scale:
        raise SpectraOverlapError(
            f"spectra separated by {gap:.3e} < threshold {GAP_TOL * scale:.3e}"
        )
    K = np.kron(J2, np.eye(n1)) - np.kron(np.eye(n2), J1.T)
    rhs = -C.reshape(-1)
    x = np.linalg.solve(K, rhs)
    x += np.linalg.solve(K, rhs - K @ x)  # one refinement step
    M = x.reshape(n2, n1)
    norm_c = float(np.linalg.norm(C))
    residual = float(np.linalg.norm(J2 @ M - M @ J1 + C))
    if norm_c > 0 and residual > 1e-10 * norm_c:
        raise ReductionError(
            f"Sylvester residual {residual:.3e} exceeds 1e-10*|C|; "
            f"spectral gap {gap:.3e} too small for a reliable solve"
        )
    return M


# ---------------------------------------------------------------------------
# eigenvalue splitting
# ---------------------------------------------------------------------------


def _spans(sizes):
    out, off = [], 0
    for m in sizes:
        out.append((off, off + m))
        off += m
    return out


def _eliminate_block(M, S, spans, i, j):
    """One block-elimination similarity zeroing block (i, j) to first order."""
    ri, rj = spans[i], spans[j]
    C = M[ri[0] : ri[1], rj[0] : rj[1]]
    if not C.any():
        return
    Dii = M[ri[0] : ri[1], ri[0] : ri[1]]
    Djj = M[rj[0] : rj[1], rj[0] : rj[1]]
    W = sylvester_solve(Djj, Dii, C)
    # T = I + embed(W at rows i, cols j); T^{-1} = I - embed (strips disjoint)
    M[:, rj[0] : rj[1]] += M[:, ri[0] : ri[1]] @ W
    M[ri[0] : ri[1], :] -= W @ M[rj[0] : rj[1], :]
    S[:, rj[0] : rj[1]] += S[:, ri[0] : ri[1]] @ W


def _block_diagonalize(M, S, sizes):
    """Drive all off-diagonal blocks of M below SPLIT_TOL; returns sweep count."""
    t = len(sizes)
    if t <= 1:
        return 0
    spans = _spans(sizes)

    def max_under():
        return max(
            (
                float(np.linalg.norm(M[spans[i][0] : spans[i][1], spans[j][0] : spans[j][1]]))
                for i in range(t)
                for j in range(i)
            ),
            default=0.0,
        )

    sweeps = 0
    while max_under() > SPLIT_TOL:
        if sweeps >= MAX_SWEEPS:
            raise ReductionError(
                f"block splitting did not converge in {MAX_SWEEPS} sweeps; "
                "the perturbation is too large for the eigenvalue gaps"
            )
        for d in range(1, t):
            for i in range(d, t):
                _eliminate_block(M, S, spans, i, i - d)
        sweeps += 1
    # upper part clears exactly in one pass once the lower part is gone
    for d in range(1, t):
        for i in range(t - d):
            _eliminate_block(M, S, spans, i, i + d)
    return sweeps


def split_by_eigenvalue(blocks, E):
    """Block-diagonalize blkdiag(blocks) + E by a near-identity similarity.

    ``blocks`` are square matrices with pairwise disjoint spectra.
    Returns (S, transformed_diagonal_blocks); off-diagonal blocks of the
    transformed matrix are below SPLIT_TOL in Frobenius norm.
    """
    blocks = [np.asarray(B, dtype=complex) for B in blocks]
    sizes = [B.shape[0] for B in blocks]
    n = sum(sizes)
    E = np.asarray(E, dtype=complex)
    if E.shape != (n, n):
        raise SizeMismatchError(f"perturbation shape {E.shape} vs total order {n}")
    M = np.zeros((n, n), dtype=complex)
    for (a, b), B in zip(_spans(sizes), blocks):
        M[a:b, a:b] = B
    M += E
    S = np.eye(n, dtype=complex)
    _block_diagonalize(M, S, sizes)
    out = [M[a:b, a:b].copy() for a, b in _spans(sizes)]
    return S, out


# ---------------------------------------------------------------------------
# single-eigenvalue sweep
# ---------------------------------------------------------------------------


def _label_template_kinds(part: Partition):
    """Parameter-cell mask of the one-eigenvalue template (local indices)."""
    from .structure import EigLabel

    t = JordanType({EigLabel.concrete(0.0): part})
    return miniversal_template(t).kinds


def _sweep_label_block(M, S, off, part: Partition, lam, tol):
    """Reduce the block at ``off`` with eigenvalue ``lam`` to template form.

    Decisions are made on the matrix shifted by -lam*I (similarities
    commute with the shift, so applying the same operations to M gives the
    shifted result plus lam*I back).
    """
    sizes = part.parts
    m = part.total
    starts, s0 = [], off
    for sz in sizes:
        starts.append(s0)
        s0 += sz
    pivot_rows = [r for st, sz in zip(starts, sizes) for r in range(st, st + sz - 1)]
    n = M.shape[0]

    def sval(r, c):
        return M[r, c] - (lam if r == c else 0.0)

    # phase A: normalize pivots, clear pivot rows
    for i in pivot_rows:
        c = i + 1
        a = M[i, c]
        if abs(a) < PIVOT_FLOOR:
            raise ReductionError(
                f"superdiagonal pivot at ({i},{c}) has magnitude {abs(a):.3e} "
                "< 0.5; the perturbation is too large"
            )
        if a != 1.0:
            _apply_op(M, Scale(c, 1.0 / a), S)
        for j in range(n):
            if j == c:
                continue
            v = sval(i, j)
            if v != 0.0:
                _apply_op(M, AddCol(src=c, dst=j, b=-v), S)

    # phase B: push leftovers into the parameter cells using exact pivot rows
    kinds = _label_template_kinds(part)
    pivot_set = set(pivot_rows)
    fixed_cells = [
        (off + i, off + j)
        for i in range(m)
        for j in range(m)
        if kinds[i][j] == FIXED and off + j - 1 in pivot_set and off + i != off + j - 1
    ]
    fixed_cells.sort(key=lambda rc: -rc[1])

    def worst():
        top = 0.0
        for i in range(m):
            for j in range(m):
                if kinds[i][j] == FIXED:
                    r, c = off + i, off + j
                    target = 1.0 if c == r + 1 and r in pivot_set else 0.0
                    top = max(top, abs(sval(r, c) - target))
        return top

    target_tol = min(tol * 1e-2, 1e-12)
    prev = np.inf
    for _ in range(MAX_PASSES):
        w = worst()
        if w <= target_tol or w >= prev:
            break
        prev = w
        for r, c in fixed_cells:
            d = sval(r, c)
            if d != 0.0:
                _apply_op(M, AddCol(src=r, dst=c - 1, b=d), S)


def reduce_single_eigenvalue(
    M,
    part,
    lam: complex = 0.0,
    tol: float = DEFAULT_PATTERN_TOL,
):
    """Reduce a one-eigenvalue perturbed Jordan matrix to template form.

    M must be near the Jordan matrix with eigenvalue ``lam`` and block
    sizes ``part``.  Returns (S, D) with D = S^{-1} M S matching the
    deformation template within tol.
    """
    from .structure import EigLabel

    part = part if isinstance(part, Partition) else Partition(tuple(part))
    M = np.array(M, dtype=complex)
    n = part.total
    if M.shape != (n, n):
        raise SizeMismatchError(f"matrix shape {M.shape} vs partition total {n}")
    S = np.eye(n, dtype=complex)
    _sweep_label_block(M, S, 0, part, complex(lam), tol)
    tmpl = miniversal_template(JordanType({EigLabel.concrete(complex(lam)): part}))
    check = pattern_check(M, tmpl, tol)
    if not check.ok:
        raise ReductionError(
            f"pattern residual {check.residual:.3e} above tolerance {tol:.1e}"
        )
    return S, M


# ---------------------------------------------------------------------------
# full reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of a reduction: D = S^{-1} (J+E) S up to roundoff."""

    S: np.ndarray
    D: np.ndarray
    residual: float
    iterations: int
    pattern_ok: bool


def reduce_to_miniversal(t: JordanType, E, tol: float = DEFAULT_PATTERN_TOL) -> ReductionResult:
    """Reduce J + E to the miniversal template of the structure ``t``.

    ``t`` needs concrete labels.  The residual is the worst deviation of
    the result from the template over pinned entries; ``iterations``
    counts the block-splitting sweeps.
    """
    J = jordan_matrix(t)
    n = t.n
    E = np.asarray(E, dtype=complex)
    if E.shape != (n, n):
        raise SizeMismatchError(f"perturbation shape {E.shape} vs order {n}")
    M = J + E
    S = np.eye(n, dtype=complex)
    layout = label_layout(t)
    sweeps = _block_diagonalize(M, S, [p.total for _, p, _ in layout])
    for label, part, off in layout:
        _sweep_label_block(M, S, off, part, label.value, tol)
    tmpl = miniversal_template(t)
    check = pattern_check(M, tmpl, tol)
    return ReductionResult(
        S=S, D=M, residual=check.residual, iterations=sweeps, pattern_ok=check.ok
    )
