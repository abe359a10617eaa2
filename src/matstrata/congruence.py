"""Canonical forms and perturbation catalogs under congruence and *congruence.

Canonical blocks: H(m, lam) = [[0, I], [J_m(lam), 0]] (lam outside
{0, (-1)^(m+1)}, determined up to lam -> 1/lam), the +-1 anti-triangular
block Gamma(s), and the nilpotent block N(k).  For *congruence the blocks
are H*(m, lam) with |lam| != 0, 1, the unimodular anti-triangular block
U(s, mu) with |mu| = 1, and N(k).

The 2x2 and 3x3 deformation tables are transcribed literally; their
parameter counts are cross-checked against the numeric tangent ranks.
Classification of small matrices goes through the Kronecker data of the
pencil (A, A^T): common-kernel deflation, three ranks, and the pencil
eigenvalues pin down the canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CatalogError, NumericalAmbiguityError
from .graphs import (  # noqa: F401 -- the closure graphs live in graphs.py, re-exported here
    PARAM_TOL,
    _normalize_h_lambda,
    congruence_graph,
    parametric_to_dot,
    parametric_to_json_doc,
    star_graph_2x2,
)
from .structure import format_complex
from .templates import DELTA, EPS_IM, EPS_RE, FIXED, STAR, DeformationTemplate, jordan_block
from .tangent import DEFAULT_RANK_TOL, band_rank, check_tol, guarded_rank

# ---------------------------------------------------------------------------
# blocks and forms
# ---------------------------------------------------------------------------

_KIND_ORDER = {"H": 0, "H*": 0, "Gamma": 1, "U": 1, "N": 2}


@dataclass(frozen=True)
class Block:
    """One canonical direct summand; ``size`` is its matrix size."""

    kind: str
    size: int
    param: complex | None = None

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise CatalogError(f"unknown block kind {self.kind!r}")
        if self.kind in ("H", "H*"):
            if self.size % 2:
                raise CatalogError("H blocks have even size 2m")
            if self.param is None:
                raise CatalogError("H blocks need a parameter")
        elif self.kind == "U":
            if self.param is None:
                raise CatalogError("U blocks need a unimodular parameter")
        elif self.param is not None:
            raise CatalogError(f"{self.kind} blocks carry no parameter")
        if self.param is not None:
            object.__setattr__(self, "param", complex(self.param))

    @property
    def m(self) -> int:
        return self.size // 2 if self.kind in ("H", "H*") else self.size


def _block_sort_key(b: Block):
    p = b.param if b.param is not None else 0j
    return (_KIND_ORDER[b.kind], -b.size, p.real, p.imag)


@dataclass(frozen=True)
class CongruenceForm:
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for b in self.blocks:
            if b.kind in ("H*", "U"):
                raise CatalogError(f"{b.kind} blocks belong to the *congruence catalog")

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)


@dataclass(frozen=True)
class StarForm:
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for b in self.blocks:
            if b.kind in ("H", "Gamma"):
                raise CatalogError(f"{b.kind} blocks belong to the congruence catalog")

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)


def block_display(b: Block) -> str:
    if b.kind in ("H", "H*"):
        return f"{b.kind}{b.m}({format_complex(b.param, '{:.12g}'.format)})"
    if b.kind == "U":
        return f"U{b.size}({format_complex(b.param, '{:.12g}'.format)})"
    return f"{'Γ' if b.kind == 'Gamma' else 'N'}{b.size}"


def form_display(form) -> str:
    return "⊕".join(block_display(b) for b in form.blocks)


def form_equal(a, b, tol: float = 1e-8) -> bool:
    """Structural equality with parameter tolerance."""
    if type(a) is not type(b) or len(a.blocks) != len(b.blocks):
        return False
    for x, y in zip(a.blocks, b.blocks):
        if (x.kind, x.size) != (y.kind, y.size):
            return False
        px = x.param if x.param is not None else 0j
        py = y.param if y.param is not None else 0j
        if abs(px - py) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# block matrices
# ---------------------------------------------------------------------------


def _gamma_matrix(s: int) -> np.ndarray:
    G = np.zeros((s, s), dtype=complex)
    for k in range(s):
        sign = (-1.0) ** k
        G[s - 1 - k, k] = sign
        if k + 1 < s:
            G[s - 1 - k, k + 1] = sign
    return G


def _u_matrix(s: int, mu: complex) -> np.ndarray:
    A = np.zeros((s, s), dtype=complex)
    for i in range(s):
        A[i, s - 1 - i] = 1.0
        if i >= 1:
            A[i, s - i] = 1.0j
    return complex(mu) * A


def block_matrix(b: Block) -> np.ndarray:
    if b.kind in ("H", "H*"):
        m = b.m
        out = np.zeros((2 * m, 2 * m), dtype=complex)
        out[:m, m:] = np.eye(m)
        out[m:, :m] = jordan_block(m, b.param)
        return out
    if b.kind == "Gamma":
        return _gamma_matrix(b.size)
    if b.kind == "U":
        return _u_matrix(b.size, b.param)
    return jordan_block(b.size, 0.0)


def canonical_matrix(form) -> np.ndarray:
    return _direct_sum(form.blocks)


def _direct_sum(blocks) -> np.ndarray:
    n = sum(b.size for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for b in blocks:
        out[off : off + b.size, off : off + b.size] = block_matrix(b)
        off += b.size
    return out


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _normalize_hstar_lambda(lam: complex) -> complex:
    if abs(lam) <= PARAM_TOL:
        raise CatalogError("H*-block parameter 0 is excluded (that class is N)")
    if abs(abs(lam) - 1) <= PARAM_TOL:
        raise CatalogError("unimodular H*-block parameters belong to U blocks")
    if abs(lam) < 1:
        lam = 1.0 / np.conj(lam)
    return complex(lam)


def normalize_form(form):
    """Canonical representative: parameter domains enforced, one member of
    each lam ~ 1/lam (congruence) or lam ~ 1/conj(lam) (*congruence) pair,
    blocks sorted in catalog order."""
    blocks = []
    for b in form.blocks:
        if b.kind == "H":
            blocks.append(Block("H", b.size, _normalize_h_lambda(b.param, b.m)))
        elif b.kind == "H*":
            blocks.append(Block("H*", b.size, _normalize_hstar_lambda(b.param)))
        elif b.kind == "U":
            if abs(abs(b.param) - 1) > PARAM_TOL:
                raise CatalogError(
                    f"U-block parameter must be unimodular, |mu| = {abs(b.param):.6g}"
                )
            blocks.append(b)
        else:
            blocks.append(b)
    blocks.sort(key=_block_sort_key)
    return type(form)(tuple(blocks))


# ---------------------------------------------------------------------------
# deformation tables (2x2 and 3x3, transcribed)
# ---------------------------------------------------------------------------

# signature elements: ("H", m, "gen"|"neg1"), ("H*", m), ("Gamma", s),
# ("U", s), ("N", s)


def _signature(form) -> tuple:
    sig = []
    for b in form.blocks:
        if b.kind == "H":
            sig.append(("H", b.m, "neg1" if abs(b.param + 1.0) <= PARAM_TOL else "gen"))
        else:
            sig.append((b.kind, b.m))
    return tuple(sig)


_CONGRUENCE_STARS = {
    # 2x2
    (("N", 1), ("N", 1)): [(0, 0), (0, 1), (1, 0), (1, 1)],
    (("Gamma", 1), ("N", 1)): [(1, 0), (1, 1)],
    (("Gamma", 1), ("Gamma", 1)): [(1, 0)],
    (("H", 1, "neg1"),): [(0, 0), (1, 0), (1, 1)],
    (("Gamma", 2),): [(0, 0)],
    (("H", 1, "gen"),): [(1, 0)],
    # 3x3
    (("N", 1), ("N", 1), ("N", 1)): [(i, j) for i in range(3) for j in range(3)],
    (("Gamma", 1), ("N", 1), ("N", 1)): [(i, j) for i in (1, 2) for j in range(3)],
    (("Gamma", 1), ("Gamma", 1), ("N", 1)): [(1, 0), (2, 0), (2, 1), (2, 2)],
    (("Gamma", 1), ("Gamma", 1), ("Gamma", 1)): [(1, 0), (2, 0), (2, 1)],
    (("H", 1, "neg1"), ("N", 1)): [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)],
    (("H", 1, "gen"), ("N", 1)): [(1, 0), (2, 0), (2, 1), (2, 2)],
    (("N", 2), ("N", 1)): [(1, 0), (1, 2), (2, 0), (2, 2)],
    (("Gamma", 2), ("N", 1)): [(0, 0), (2, 0), (2, 1), (2, 2)],
    (("H", 1, "neg1"), ("Gamma", 1)): [(0, 0), (1, 0), (1, 1)],
    (("H", 1, "gen"), ("Gamma", 1)): [(1, 0)],
    (("Gamma", 2), ("Gamma", 1)): [(0, 0)],
    (("N", 3),): [(2, 0), (2, 2)],
    (("Gamma", 3),): [(1, 0)],
}

# slots: (i, j) for a star | ("eps", l, i, j) | ("delta", l, r, i, j)
# with l, r 1-based indices into the entry's U parameters in block order

_STAR_SLOTS = {
    # 2x2
    (("N", 1), ("N", 1)): [(i, j) for i in range(2) for j in range(2)],
    (("U", 1), ("N", 1)): [("eps", 1, 0, 0), (1, 0), (1, 1)],
    (("U", 1), ("U", 1)): [("eps", 1, 0, 0), ("delta", 2, 1, 1, 0), ("eps", 2, 1, 1)],
    (("U", 2),): [(0, 0)],
    (("H*", 1),): [(1, 0)],
    # 3x3
    (("N", 1), ("N", 1), ("N", 1)): [(i, j) for i in range(3) for j in range(3)],
    (("U", 1), ("N", 1), ("N", 1)): [("eps", 1, 0, 0)]
    + [(i, j) for i in (1, 2) for j in range(3)],
    (("U", 1), ("U", 1), ("N", 1)): [
        ("eps", 1, 0, 0),
        ("delta", 2, 1, 1, 0),
        ("eps", 2, 1, 1),
        (2, 0),
        (2, 1),
        (2, 2),
    ],
    (("U", 1), ("U", 1), ("U", 1)): [
        ("eps", 1, 0, 0),
        ("delta", 2, 1, 1, 0),
        ("eps", 2, 1, 1),
        ("delta", 3, 1, 2, 0),
        ("delta", 3, 2, 2, 1),
        ("eps", 3, 2, 2),
    ],
    (("U", 2), ("U", 1)): [(0, 0), ("delta", 2, 1, 2, 0), ("eps", 2, 2, 2)],
    (("U", 2), ("N", 1)): [(0, 0), (2, 0), (2, 1), (2, 2)],
    (("H*", 1), ("U", 1)): [(1, 0), ("eps", 1, 2, 2)],
    (("H*", 1), ("N", 1)): [(1, 0), (2, 0), (2, 1), (2, 2)],
    (("N", 2), ("N", 1)): [(1, 0), (1, 2), (2, 0), (2, 2)],
    # the anti-triangular 3x3 entry carries a corner star next to eps_1:
    # that is the unique completion whose parameter directions span a
    # complement of the tangent space (checked numerically for sampled mu),
    # and the only one matching the codimension count
    (("N", 3),): [(2, 0), (2, 2)],
    (("U", 3),): [(0, 0), ("eps", 1, 1, 1)],
}


def congruence_template(form: CongruenceForm) -> DeformationTemplate:
    """Tabulated miniversal deformation of a 2x2 or 3x3 congruence form."""
    return _tabulated_template(normalize_form(form), _CONGRUENCE_STARS)


def star_template(form: StarForm) -> DeformationTemplate:
    """Tabulated miniversal deformation of a 2x2 or 3x3 *congruence form.

    eps slots are purely real or purely imaginary depending on whether the
    attached unimodular parameter is off or on the real axis; delta slots
    vanish unless the two parameters agree up to sign.  Parameters are
    taken as given (both |lam| > 1 and |lam| < 1 are accepted).
    """
    for b in form.blocks:
        if b.kind == "H*":
            lam = b.param
            if abs(lam) <= PARAM_TOL or abs(abs(lam) - 1) <= PARAM_TOL:
                raise CatalogError("H*-block parameter must have |lam| not in {0, 1}")
        elif b.kind == "U" and abs(abs(b.param) - 1) > PARAM_TOL:
            raise CatalogError("U-block parameter must be unimodular")
    return _tabulated_template(StarForm(sorted(form.blocks, key=_block_sort_key)), _STAR_SLOTS)


def _tabulated_template(form, table) -> DeformationTemplate:
    n = form.n
    if n not in (2, 3):
        raise CatalogError(f"deformation tables cover sizes 2 and 3, not {n}")
    slots = table.get(_signature(form))
    if slots is None:
        raise CatalogError(f"no tabulated deformation for {form_display(form)}")
    mus = [b.param for b in form.blocks if b.kind == "U"]
    base = canonical_matrix(form)
    kinds = [[FIXED] * n for _ in range(n)]
    for slot in slots:
        if len(slot) == 2:
            i, j = slot
            kinds[i][j] = STAR
        elif slot[0] == "eps":
            _, l, i, j = slot
            mu = mus[l - 1]
            kinds[i][j] = EPS_IM if abs(mu.imag) <= PARAM_TOL else EPS_RE
        else:
            _, l, r, i, j = slot
            mul, mur = mus[l - 1], mus[r - 1]
            if min(abs(mul - mur), abs(mul + mur)) <= PARAM_TOL:
                kinds[i][j] = DELTA
    return DeformationTemplate(
        n=n,
        base=tuple(tuple(base[i, j] for j in range(n)) for i in range(n)),
        kinds=tuple(tuple(row) for row in kinds),
        source=form_display(form),
    )


# ---------------------------------------------------------------------------
# table entry enumeration (for sweeps over every tabulated deformation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableEntry:
    """One deformation-table row; ``make`` fills in free parameters."""

    signature: tuple
    star: bool

    @property
    def n_mu(self) -> int:
        return sum(1 for s in self.signature if s[0] == "U")

    @property
    def has_lambda(self) -> bool:
        return any(s[0] == "H*" or (s[0] == "H" and s[2] == "gen") for s in self.signature)

    def make(self, lam: complex | None = None, mus: tuple = ()):
        mus = tuple(mus)
        if len(mus) != self.n_mu:
            raise ValueError(f"entry needs {self.n_mu} unimodular parameters")
        blocks, k = [], 0
        for s in self.signature:
            if s[0] == "H":
                blocks.append(Block("H", 2 * s[1], -1.0 if s[2] == "neg1" else lam))
            elif s[0] == "H*":
                blocks.append(Block("H*", 2 * s[1], lam))
            elif s[0] == "U":
                blocks.append(Block("U", s[1], mus[k]))
                k += 1
            else:
                blocks.append(Block(s[0], s[1]))
        return StarForm(tuple(blocks)) if self.star else CongruenceForm(tuple(blocks))


def congruence_entries(size: int) -> tuple[TableEntry, ...]:
    return _entries(_CONGRUENCE_STARS, size, star=False)


def star_entries(size: int) -> tuple[TableEntry, ...]:
    return _entries(_STAR_SLOTS, size, star=True)


def _entries(table, size: int, star: bool) -> tuple[TableEntry, ...]:
    return tuple(
        TableEntry(sig, star=star)
        for sig in table
        if sum(s[1] * (2 if s[0] in ("H", "H*") else 1) for s in sig) == size
    )


# ---------------------------------------------------------------------------
# classification of 2x2 / 3x3 matrices under congruence
# ---------------------------------------------------------------------------


def _pencil_eigenvalues(A: np.ndarray, tol: float):
    """Roots of det(A - s A^T); None when the pencil is singular."""
    n = A.shape[0]
    nodes = np.array([0.0, 1.0, -1.0, 2.0, -2.0][: n + 1], dtype=complex)
    vals = np.array([np.linalg.det(A - s * A.T) for s in nodes])
    coeffs = np.linalg.solve(np.vander(nodes, n + 1, increasing=True), vals)
    scale = float(np.abs(coeffs).max()) if np.abs(coeffs).max() > 0 else 0.0
    if scale == 0 or np.all(np.abs(coeffs) <= tol * max(scale, 1.0)):
        return None
    trimmed = np.trim_zeros(np.where(np.abs(coeffs) > tol * scale, coeffs, 0.0), "b")
    finite = np.roots(trimmed[::-1]) if len(trimmed) > 1 else np.array([])
    n_inf = (n + 1) - len(trimmed)
    return list(finite) + [np.inf] * n_inf


def _common_kernel(A: np.ndarray, tol: float):
    """Orthonormal bases (complement, kernel) of ker A ∩ ker A^T."""
    _, s, vh = np.linalg.svd(np.vstack([A, A.T]))
    V = np.conj(vh).T
    r = band_rank(s, tol * s[0]) if s[0] > 0 else 0
    return V[:, :r], V[:, r:]


def _classify_core(A: np.ndarray, tol: float) -> list[Block]:
    """Classify a matrix with trivial common kernel (size 1..3)."""
    n = A.shape[0]
    if n == 1:
        return [Block("Gamma", 1)]
    s = np.linalg.svd(A, compute_uv=False)
    scale = float(s[0])
    r = band_rank(s, tol * scale)
    rp = guarded_rank(A + A.T, tol, ref=scale)
    rm = guarded_rank(A - A.T, tol, ref=scale)
    key = (r, rp, rm)
    if n == 2:
        table = {
            (2, 2, 0): [Block("Gamma", 1), Block("Gamma", 1)],
            (1, 2, 2): [Block("N", 2)],
            (2, 0, 2): [Block("H", 2, -1.0)],
            (2, 1, 2): [Block("Gamma", 2)],
        }
        if key in table:
            return table[key]
        if key == (2, 2, 2):
            lam = _extract_h_lambda(A, fixed=(), tol=tol)
            return [Block("H", 2, lam)]
    if n == 3:
        table = {
            (3, 3, 0): [Block("Gamma", 1)] * 3,
            (3, 2, 2): [Block("Gamma", 2), Block("Gamma", 1)],
            (3, 1, 2): [Block("H", 2, -1.0), Block("Gamma", 1)],
            (2, 3, 2): [Block("N", 2), Block("Gamma", 1)],
            (2, 2, 2): [Block("N", 3)],
        }
        if key in table:
            return table[key]
        if key == (3, 3, 2):
            # both candidates have cosquare eigenvalues {1, lam, 1/lam}; the
            # anti-triangular block makes 1 defective (one 3x3 block), so
            # (cosquare - I)^2 keeps rank 1 there and rank 2 for the H pair
            cosq = np.linalg.solve(A.T, A)
            K = cosq - np.eye(3)
            if guarded_rank(K @ K, tol) <= 1:
                return [Block("Gamma", 3)]
            lam = _extract_h_lambda(A, fixed=(1.0,), tol=tol)
            return [Block("H", 2, lam), Block("Gamma", 1)]
    raise NumericalAmbiguityError(
        f"rank fingerprint {key} matches no canonical form of size {n}",
        details={"ranks": key},
    )


def _extract_h_lambda(A: np.ndarray, fixed: tuple, tol: float) -> complex:
    """Pull the free pencil-eigenvalue pair {lam, 1/lam} out of det(A - s A^T)."""
    roots = _pencil_eigenvalues(A, tol)
    if roots is None:
        raise NumericalAmbiguityError("singular pencil where a regular one was expected")
    rest = list(roots)
    for f in fixed:
        idx = int(np.argmin([abs(z - f) if np.isfinite(np.abs(z)) else np.inf for z in rest]))
        if abs(rest[idx] - f) > 1e-4:
            raise NumericalAmbiguityError(
                f"expected pencil eigenvalue {f} not found",
                details={"roots": [complex(z) for z in roots]},
            )
        rest.pop(idx)
    finite = [z for z in rest if np.isfinite(np.abs(z))]
    if not finite:
        raise NumericalAmbiguityError("no finite pencil eigenvalue for the H block")
    lam = max(finite, key=abs)
    return _normalize_h_lambda(complex(lam), 1)


def classify_congruence(A, tol: float = DEFAULT_RANK_TOL) -> CongruenceForm:
    """Congruence canonical form of a 2x2 or 3x3 complex matrix.

    Tolerance-ambiguous rank decisions raise NumericalAmbiguityError
    rather than guessing.
    """
    check_tol(tol)
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n) or n not in (2, 3):
        raise CatalogError(f"classification covers 2x2 and 3x3 matrices, got {A.shape}")
    norm = float(np.linalg.norm(A))
    if norm == 0:
        return CongruenceForm(tuple([Block("N", 1)] * n))
    A = A * (np.sqrt(n) / norm)  # scalar congruence scaling
    Q, V = _common_kernel(A, tol)
    k = V.shape[1]
    blocks = [Block("N", 1)] * k
    if Q.shape[1]:
        core = Q.T @ A @ Q
        blocks = _classify_core(core, tol) + blocks
    return normalize_form(CongruenceForm(tuple(blocks)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def form_to_json_doc(form) -> dict:
    blocks = []
    for b in form.blocks:
        entry = {"kind": b.kind, "size": b.size}
        if b.param is not None:
            entry["param"] = [b.param.real, b.param.imag]
        blocks.append(entry)
    return {"star": isinstance(form, StarForm), "blocks": blocks}


def form_from_json_doc(doc) -> CongruenceForm | StarForm:
    blocks = tuple(
        Block(
            e["kind"],
            int(e["size"]),
            complex(e["param"][0], e["param"][1]) if "param" in e else None,
        )
        for e in doc["blocks"]
    )
    return StarForm(blocks) if doc.get("star") else CongruenceForm(blocks)
