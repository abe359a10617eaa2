"""Miniversal deformation templates for similarity.

A template is the canonical matrix plus a grid marking which entries
carry free parameters.  For a Jordan structure the parameter cells sit,
within each eigenvalue's block grid, along the bottom row of every
sub-block on or above the block diagonal and along the first column of
every sub-block strictly below it; everything off the eigenvalue's own
block grid is pinned to zero.  That layout depends only on the block
grid and is written once, in ``pinned_cells``.  The number of parameter
cells equals the codimension of the similarity class.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from ._value import Value
from .errors import SizeMismatchError
from .structure import (
    MAX_MATRIX_N,
    EigLabel,
    JordanType,
    format_compact,
    format_complex,
    label_display,
)
from .tangent import check_positive

FIXED = "fixed"
STAR = "star"
EPS_RE = "eps_re"
EPS_IM = "eps_im"
DELTA = "delta"

_REAL_PARAMS = {FIXED: 0, STAR: 2, EPS_RE: 1, EPS_IM: 1, DELTA: 2}


class DeformationTemplate(Value):
    """Base matrix plus per-entry parameter kinds.

    ``base`` entries are complex numbers or symbolic eigenvalue labels;
    ``kinds[i][j]`` is one of fixed/star/eps_re/eps_im/delta.  eps and
    delta kinds appear only in the *congruence catalog tables.
    """

    n: int
    base: tuple[tuple[object, ...], ...]
    kinds: tuple[tuple[str, ...], ...]
    source: str

    def base_matrix(self) -> np.ndarray:
        """Numeric base; fails when the source had symbolic eigenvalues."""
        if any(isinstance(v, EigLabel) for row in self.base for v in row):
            raise ValueError(
                "template has symbolic eigenvalues; build it from "
                "a structure with concrete labels"
            )
        return np.array(self.base, dtype=complex)


def jordan_block(m: int, lam: complex) -> np.ndarray:
    """m x m Jordan block: lam on the diagonal, ones on the superdiagonal."""
    J = np.zeros((m, m), dtype=complex)
    np.fill_diagonal(J, lam)
    J.flat[1 :: m + 1] = 1.0
    return J


def jordan_rows(t: JordanType) -> list[tuple[EigLabel, bool]]:
    """(label, whether a 1 sits right of the diagonal) for each row of the
    Jordan matrix of ``t``: labels in canonical order, block sizes descending.
    The order check of every Jordan structure: none beyond MAX_MATRIX_N."""
    if t.n > MAX_MATRIX_N:
        raise ValueError(f"Jordan structure has order {t.n}, beyond the supported {MAX_MATRIX_N}x{MAX_MATRIX_N}")
    return [(label, k < m - 1) for label, part in t.entries for m in part.parts for k in range(m)]


def jordan_matrix(t: JordanType) -> np.ndarray:
    """Canonical Jordan matrix of a structure with concrete labels."""
    rows = jordan_rows(t)
    if any(l.is_symbolic for l in t.labels):
        raise ValueError('the Jordan matrix needs concrete eigenvalues, e.g. "(0)^3 (0)^2"')
    n = len(rows)
    J = np.zeros((n, n), dtype=complex)
    J.flat[:: n + 1] = [label.value for label, _ in rows]
    J.flat[1 :: n + 1] = [float(one) for _, one in rows[:-1]]
    return J


def star_count(tmpl: DeformationTemplate) -> int:
    """Number of free complex-parameter cells."""
    return sum(row.count(STAR) for row in tmpl.kinds)


def real_param_count(tmpl: DeformationTemplate) -> int:
    """Real parameter total: star counts 2, eps 1, delta 2."""
    return sum(_REAL_PARAMS[k] for row in tmpl.kinds for k in row)


@lru_cache(maxsize=256)
def pinned_cells(grid: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Read-only n x n mask of the pinned cells of the template whose
    eigenvalue groups have the block sizes ``grid``, in ``jordan_rows`` order."""
    n = sum(map(sum, grid))
    pinned = np.ones((n, n), dtype=bool)
    for off, sizes in zip(accumulate(map(sum, grid[:-1]), initial=0), grid):
        starts = list(accumulate(sizes[:-1], initial=off))
        for sp, mp in zip(starts, sizes):
            for sq, mq in zip(starts, sizes):
                if sp <= sq:
                    pinned[sp + mp - 1, sq : sq + mq] = False
                else:
                    pinned[sp : sp + mp, sq] = False
    pinned.setflags(write=False)
    return pinned


def miniversal_template(t: JordanType) -> DeformationTemplate:
    """Deformation template for the Jordan matrix of ``t``.

    Works for symbolic or concrete labels; the grid layout matches
    ``jordan_matrix`` (labels in canonical order, block sizes descending).
    """
    rows = jordan_rows(t)
    n = len(rows)
    base = [[0.0 + 0.0j] * n for _ in range(n)]
    for i, (label, one) in enumerate(rows):
        base[i][i] = label if label.is_symbolic else label.value
        if one:
            base[i][i + 1] = 1.0 + 0.0j
    pinned = pinned_cells(tuple(part.parts for _, part in t.entries))
    return DeformationTemplate(
        n=n,
        base=tuple(tuple(row) for row in base),
        kinds=tuple(tuple(FIXED if cell else STAR for cell in row) for row in pinned.tolist()),
        source=format_compact(t),
    )


class PatternCheck(Value):
    ok: bool
    residual: float


def pattern_check(M, tmpl: DeformationTemplate, tol: float = 1e-8) -> PatternCheck:
    """Does M agree with the template's pinned entries within tol?

    Parameter cells (star/eps/delta) are unconstrained; the residual is
    the largest deviation over fixed cells.  ``tol`` must be finite and > 0.
    """
    check_positive(tol, "pattern tolerance")
    M = np.asarray(M, dtype=complex)
    if M.shape != (tmpl.n, tmpl.n):
        raise SizeMismatchError(f"matrix shape {M.shape} vs template size {tmpl.n}")
    pinned = np.array(tmpl.kinds) == FIXED
    residual = float(np.abs(M - tmpl.base_matrix())[pinned].max(initial=0.0))  # NaN propagates
    return PatternCheck(ok=residual <= tol, residual=residual)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _short_value(v) -> str:
    if isinstance(v, EigLabel):
        return label_display(v)
    z = complex(v)
    if z == 0:
        return "0"
    if z == 1j:
        return "i"
    return format_complex(z, "{:.12g}".format, "i")


def _cell_text(base, kind) -> str:
    mark = {STAR: "*", EPS_RE: "εℝ", EPS_IM: "εiℝ", DELTA: "δ"}.get(kind)
    if mark is None:
        return _short_value(base)
    zero = (not isinstance(base, EigLabel)) and complex(base) == 0
    return mark if zero else f"{_short_value(base)}+{mark}"


def template_ascii(tmpl: DeformationTemplate) -> str:
    cells = [
        [_cell_text(tmpl.base[i][j], tmpl.kinds[i][j]) for j in range(tmpl.n)]
        for i in range(tmpl.n)
    ]
    widths = [max(len(cells[i][j]) for i in range(tmpl.n)) for j in range(tmpl.n)]
    lines = [
        "  ".join(cells[i][j].rjust(widths[j]) for j in range(tmpl.n))
        for i in range(tmpl.n)
    ]
    return "\n".join(lines) + "\n"


def template_to_json_doc(tmpl: DeformationTemplate) -> dict:
    """Entries with 0-based indices; plain zero cells are omitted."""
    entries = []
    for i in range(tmpl.n):
        for j in range(tmpl.n):
            base, kind = tmpl.base[i][j], tmpl.kinds[i][j]
            symbolic = isinstance(base, EigLabel)
            zero = (not symbolic) and complex(base) == 0
            if kind == FIXED and zero:
                continue
            entry = {"i": i, "j": j, "kind": kind}
            if symbolic:
                entry["value"] = label_display(base)
            elif not zero:
                z = complex(base)
                entry["value"] = [z.real, z.imag]
            entries.append(entry)
    return {"n": tmpl.n, "source": tmpl.source, "entries": entries}
