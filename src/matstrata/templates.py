"""Miniversal deformation templates for similarity.

A template is the canonical matrix plus a grid marking which entries
carry free parameters.  For a Jordan structure the parameter cells sit,
within each eigenvalue's block grid, along the bottom row of every
sub-block on or above the block diagonal and along the first column of
every sub-block strictly below it; everything off the eigenvalue's own
block grid is pinned to zero.  The number of parameter cells equals the
codimension of the similarity class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SizeMismatchError
from .structure import (
    EigLabel,
    JordanType,
    format_compact,
    format_complex,
    label_display,
    label_layout,
)

FIXED = "fixed"
STAR = "star"
EPS_RE = "eps_re"
EPS_IM = "eps_im"
DELTA = "delta"

_REAL_PARAMS = {FIXED: 0, STAR: 2, EPS_RE: 1, EPS_IM: 1, DELTA: 2}


@dataclass(frozen=True)
class DeformationTemplate:
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
        out = np.zeros((self.n, self.n), dtype=complex)
        for i in range(self.n):
            for j in range(self.n):
                v = self.base[i][j]
                if isinstance(v, EigLabel):
                    if v.is_symbolic:
                        raise ValueError(
                            "template has symbolic eigenvalues; build it from "
                            "a structure with concrete labels"
                        )
                    v = v.value
                out[i, j] = v
        return out


def jordan_block(m: int, lam: complex) -> np.ndarray:
    """m x m Jordan block: lam on the diagonal, ones on the superdiagonal."""
    J = np.zeros((m, m), dtype=complex)
    np.fill_diagonal(J, lam)
    for i in range(m - 1):
        J[i, i + 1] = 1.0
    return J


def jordan_matrix(t: JordanType) -> np.ndarray:
    """Canonical Jordan matrix of a structure with concrete labels."""
    if any(l.is_symbolic for l in t.labels):
        raise ValueError("jordan_matrix needs concrete eigenvalue labels")
    n = t.n
    J = np.zeros((n, n), dtype=complex)
    for label, part, off in label_layout(t):
        for m in part.parts:
            J[off : off + m, off : off + m] = jordan_block(m, label.value)
            off += m
    return J


def star_count(tmpl: DeformationTemplate) -> int:
    """Number of free complex-parameter cells."""
    return sum(row.count(STAR) for row in tmpl.kinds)


def real_param_count(tmpl: DeformationTemplate) -> int:
    """Real parameter total: star counts 2, eps 1, delta 2."""
    return sum(_REAL_PARAMS[k] for row in tmpl.kinds for k in row)


def miniversal_template(t: JordanType) -> DeformationTemplate:
    """Deformation template for the Jordan matrix of ``t``.

    Works for symbolic or concrete labels; the grid layout matches
    ``jordan_matrix`` (labels in canonical order, block sizes descending).
    """
    n = t.n
    base = [[0.0 + 0.0j] * n for _ in range(n)]
    kinds = [[FIXED] * n for _ in range(n)]
    for label, part, off in label_layout(t):
        sizes = part.parts
        starts = [off]
        for m in sizes[:-1]:
            starts.append(starts[-1] + m)
        lam = label if label.is_symbolic else label.value
        for p, mp in enumerate(sizes):
            rp = starts[p]
            for i in range(mp):
                base[rp + i][rp + i] = lam
                if i + 1 < mp:
                    base[rp + i][rp + i + 1] = 1.0 + 0.0j
            for q, mq in enumerate(sizes):
                cq = starts[q]
                if p <= q:
                    for j in range(mq):
                        kinds[rp + mp - 1][cq + j] = STAR
                else:
                    for i in range(mp):
                        kinds[rp + i][cq] = STAR
    return DeformationTemplate(
        n=n,
        base=tuple(tuple(row) for row in base),
        kinds=tuple(tuple(row) for row in kinds),
        source=format_compact(t),
    )


class PatternCheck(NamedTuple):
    ok: bool
    residual: float


def pattern_check(M, tmpl: DeformationTemplate, tol: float = 1e-8) -> PatternCheck:
    """Does M agree with the template's pinned entries within tol?

    Parameter cells (star/eps/delta) are unconstrained; the residual is
    the largest deviation over fixed cells.  ``tol`` must be finite and > 0.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"pattern tolerance must be finite and > 0, got {tol}")
    M = np.asarray(M, dtype=complex)
    if M.shape != (tmpl.n, tmpl.n):
        raise SizeMismatchError(f"matrix shape {M.shape} vs template size {tmpl.n}")
    base = tmpl.base_matrix()
    residual = 0.0
    for i in range(tmpl.n):
        for j in range(tmpl.n):
            if tmpl.kinds[i][j] == FIXED:
                residual = max(residual, abs(M[i, j] - base[i, j]))
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
