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

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CatalogError, NumericalAmbiguityError
from .templates import DELTA, EPS_IM, EPS_RE, FIXED, STAR, DeformationTemplate, jordan_block
from .tangent import DEFAULT_RANK_TOL, guarded_rank

PARAM_TOL = 1e-12


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


def _fmt_param(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.12g}"
    if z.real == 0:
        return f"{z.imag:.12g}j"
    sign = "+" if z.imag > 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}j"


def block_display(b: Block) -> str:
    if b.kind in ("H", "H*"):
        return f"{b.kind}{b.m}({_fmt_param(b.param)})"
    if b.kind == "U":
        return f"U{b.size}({_fmt_param(b.param)})"
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
    n = form.n
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for b in form.blocks:
        out[off : off + b.size, off : off + b.size] = block_matrix(b)
        off += b.size
    return out


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _normalize_h_lambda(lam: complex, m: int) -> complex:
    if abs(lam) <= PARAM_TOL:
        raise CatalogError("H-block parameter 0 is excluded (that class is N)")
    excluded = (-1.0) ** (m + 1)
    if abs(lam - excluded) <= PARAM_TOL:
        raise CatalogError(
            f"H-block parameter {excluded:+g} is excluded for m={m} "
            "(that class is a Gamma pair)"
        )
    if abs(lam) < 1 - PARAM_TOL:
        lam = 1.0 / lam
    if abs(abs(lam) - 1) <= PARAM_TOL and lam.imag < 0:
        lam = 1.0 / lam
    return lam


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


def _congruence_signature(form: CongruenceForm):
    sig = []
    for b in form.blocks:
        if b.kind == "H":
            tag = "neg1" if abs(b.param + 1.0) <= PARAM_TOL else "gen"
            sig.append(("H", b.m, tag))
        else:
            sig.append((b.kind, b.size))
    return tuple(sig)


def _star_signature(form: StarForm):
    sig = []
    for b in form.blocks:
        if b.kind == "H*":
            sig.append(("H*", b.m))
        else:
            sig.append((b.kind, b.size))
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

# slots: ("star", i, j) | ("eps", l, i, j) | ("delta", l, r, i, j)
# with l, r 1-based indices into the entry's U parameters in block order.

_STAR_SLOTS = {
    # 2x2
    (("N", 1), ("N", 1)): [("star", i, j) for i in range(2) for j in range(2)],
    (("U", 1), ("N", 1)): [("eps", 1, 0, 0), ("star", 1, 0), ("star", 1, 1)],
    (("U", 1), ("U", 1)): [("eps", 1, 0, 0), ("delta", 2, 1, 1, 0), ("eps", 2, 1, 1)],
    (("U", 2),): [("star", 0, 0)],
    (("H*", 1),): [("star", 1, 0)],
    # 3x3
    (("N", 1), ("N", 1), ("N", 1)): [
        ("star", i, j) for i in range(3) for j in range(3)
    ],
    (("U", 1), ("N", 1), ("N", 1)): [("eps", 1, 0, 0)]
    + [("star", i, j) for i in (1, 2) for j in range(3)],
    (("U", 1), ("U", 1), ("N", 1)): [
        ("eps", 1, 0, 0),
        ("delta", 2, 1, 1, 0),
        ("eps", 2, 1, 1),
        ("star", 2, 0),
        ("star", 2, 1),
        ("star", 2, 2),
    ],
    (("U", 1), ("U", 1), ("U", 1)): [
        ("eps", 1, 0, 0),
        ("delta", 2, 1, 1, 0),
        ("eps", 2, 1, 1),
        ("delta", 3, 1, 2, 0),
        ("delta", 3, 2, 2, 1),
        ("eps", 3, 2, 2),
    ],
    (("U", 2), ("U", 1)): [("star", 0, 0), ("delta", 2, 1, 2, 0), ("eps", 2, 2, 2)],
    (("U", 2), ("N", 1)): [("star", 0, 0), ("star", 2, 0), ("star", 2, 1), ("star", 2, 2)],
    (("H*", 1), ("U", 1)): [("star", 1, 0), ("eps", 1, 2, 2)],
    (("H*", 1), ("N", 1)): [("star", 1, 0), ("star", 2, 0), ("star", 2, 1), ("star", 2, 2)],
    (("N", 2), ("N", 1)): [("star", 1, 0), ("star", 1, 2), ("star", 2, 0), ("star", 2, 2)],
    # the anti-triangular 3x3 entry carries a corner star next to eps_1:
    # that is the unique completion whose parameter directions span a
    # complement of the tangent space (checked numerically for sampled mu),
    # and the only one matching the codimension count
    (("N", 3),): [("star", 2, 0), ("star", 2, 2)],
    (("U", 3),): [("star", 0, 0), ("eps", 1, 1, 1)],
}


def congruence_template(form: CongruenceForm) -> DeformationTemplate:
    """Tabulated miniversal deformation of a 2x2 or 3x3 congruence form."""
    form = normalize_form(form)
    n = form.n
    if n not in (2, 3):
        raise CatalogError(f"deformation tables cover sizes 2 and 3, not {n}")
    sig = _congruence_signature(form)
    stars = _CONGRUENCE_STARS.get(sig)
    if stars is None:
        raise CatalogError(f"no tabulated deformation for {form_display(form)}")
    base = canonical_matrix(form)
    kinds = [[FIXED] * n for _ in range(n)]
    for i, j in stars:
        kinds[i][j] = STAR
    return DeformationTemplate(
        n=n,
        base=tuple(tuple(base[i, j] for j in range(n)) for i in range(n)),
        kinds=tuple(tuple(row) for row in kinds),
        source=form_display(form),
    )


def star_template(form: StarForm) -> DeformationTemplate:
    """Tabulated miniversal deformation of a 2x2 or 3x3 *congruence form.

    eps slots are purely real or purely imaginary depending on whether the
    attached unimodular parameter is off or on the real axis; delta slots
    vanish unless the two parameters agree up to sign.  Parameters are
    taken as given (both |lam| > 1 and |lam| < 1 are accepted).
    """
    blocks = []
    for b in form.blocks:
        if b.kind == "H*":
            lam = b.param
            if abs(lam) <= PARAM_TOL or abs(abs(lam) - 1) <= PARAM_TOL:
                raise CatalogError("H*-block parameter must have |lam| not in {0, 1}")
        elif b.kind == "U" and abs(abs(b.param) - 1) > PARAM_TOL:
            raise CatalogError("U-block parameter must be unimodular")
        blocks.append(b)
    blocks.sort(key=_block_sort_key)
    form = StarForm(tuple(blocks))
    n = form.n
    if n not in (2, 3):
        raise CatalogError(f"deformation tables cover sizes 2 and 3, not {n}")
    sig = _star_signature(form)
    slots = _STAR_SLOTS.get(sig)
    if slots is None:
        raise CatalogError(f"no tabulated deformation for {form_display(form)}")
    mus = [b.param for b in form.blocks if b.kind == "U"]
    base = canonical_matrix(form)
    kinds = [[FIXED] * n for _ in range(n)]
    for slot in slots:
        if slot[0] == "star":
            _, i, j = slot
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
    return tuple(
        TableEntry(sig, star=False)
        for sig in _CONGRUENCE_STARS
        if sum(s[1] * (2 if s[0] == "H" else 1) for s in sig) == size
    )


def star_entries(size: int) -> tuple[TableEntry, ...]:
    return tuple(
        TableEntry(sig, star=True)
        for sig in _STAR_SLOTS
        if sum(s[1] * (2 if s[0] == "H*" else 1) for s in sig) == size
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
    stacked = np.vstack([A, A.T])
    _, s, vh = np.linalg.svd(stacked)
    smax = s[0] if s.size and s[0] > 0 else 0.0
    if smax == 0:
        return np.zeros((A.shape[0], 0)), np.conj(vh).T
    thr = tol * smax
    band = [float(x) for x in s if thr / 10 < x < thr * 10]
    if band:
        raise NumericalAmbiguityError(
            "common-kernel decision falls inside the tolerance band",
            details={"band": band, "threshold": float(thr)},
        )
    r = int(np.sum(s >= thr))
    V = np.conj(vh).T
    return V[:, :r], V[:, r:]


def _classify_core(A: np.ndarray, tol: float) -> list[Block]:
    """Classify a matrix with trivial common kernel (size 1..3)."""
    n = A.shape[0]
    if n == 1:
        return [Block("Gamma", 1)]
    scale = float(np.linalg.svd(A, compute_uv=False)[0])
    r = guarded_rank(A, tol, ref=scale)
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
# parametric closure graphs (2x2 / 3x3 congruence, 2x2 *congruence)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One vertex family: a canonical shape with free parameters."""

    fid: str
    label: str
    dim: int
    nparams: int = 0
    domain: object = None      # params -> bool
    canon: object = None       # params -> canonical tuple (instance identity)
    make: object = None        # params -> canonical matrix (sampled member)
    sample: tuple = ()

    def check(self, params: tuple):
        params = tuple(complex(p) for p in params)
        if len(params) != self.nparams:
            raise ValueError(
                f"family {self.fid} takes {self.nparams} parameter(s), got {len(params)}"
            )
        if self.domain is not None and not self.domain(params):
            raise ValueError(f"parameters {params} outside the domain of {self.fid}")
        return params

    def canonical(self, params: tuple) -> tuple:
        return self.canon(params) if self.canon is not None else params


@dataclass(frozen=True)
class Arrow:
    src: str
    dst: str
    predicate: object = None   # (src_params, dst_params) -> bool
    condition: str = ""


@dataclass(frozen=True)
class ParametricGraph:
    kind: str
    families: tuple[Family, ...]
    arrows: tuple[Arrow, ...]

    def family(self, fid: str) -> Family:
        for f in self.families:
            if f.fid == fid:
                return f
        raise KeyError(f"no family {fid!r} in graph")


def _inst(g: ParametricGraph, inst):
    fid, params = (inst[0], tuple(np.atleast_1d(inst[1]))) if len(inst) == 2 else (inst[0], ())
    fam = g.family(fid)
    return fam, fam.check(params)


def has_arrow(g: ParametricGraph, src_inst, dst_inst, tol: float = 1e-9) -> bool:
    """Direct arrow between two concrete instances (reflexive)."""
    fs, ps = _inst(g, src_inst)
    fd, pd = _inst(g, dst_inst)
    if fs.fid == fd.fid:
        cs, cd = fs.canonical(ps), fd.canonical(pd)
        if all(abs(a - b) <= tol for a, b in zip(cs, cd)):
            return True
    for a in g.arrows:
        if a.src == fs.fid and a.dst == fd.fid:
            if a.predicate is None or a.predicate(ps, pd):
                return True
    return False


def _candidate_params(fam: Family, pool):
    if fam.nparams == 0:
        return [()]
    cands = set()
    for tup in itertools.product(pool, repeat=fam.nparams):
        try:
            tup = fam.check(tup)
        except ValueError:
            continue
        cands.add(fam.canonical(tup))
    for s in (fam.sample,):
        if s and len(s) == fam.nparams:
            cands.add(fam.canonical(fam.check(s)))
    return sorted(cands, key=lambda t: tuple((z.real, z.imag) for z in t))


def path_exists(g: ParametricGraph, src_inst, dst_inst, tol: float = 1e-9) -> bool:
    """Predicate-aware reachability over concrete instances.

    Free parameters of intermediate families are searched over candidates
    derived from the endpoint parameters (values, negations, conjugates,
    inverses) plus each family's sample point; that set witnesses every
    path the catalog's predicates admit.
    """
    fs, ps = _inst(g, src_inst)
    fd, pd = _inst(g, dst_inst)
    pool = {1.0 + 0j, -1.0 + 0j, 1j, -1j}
    for z in (*ps, *pd):
        pool.update({z, -z, np.conj(z), -np.conj(z)})
        if abs(z) > 1e-12:
            pool.update({1.0 / z, 1.0 / np.conj(z)})
    start = (fs.fid, fs.canonical(ps))
    goal = (fd.fid, fd.canonical(pd))

    def close(a, b):
        return a[0] == b[0] and all(abs(x - y) <= tol for x, y in zip(a[1], b[1]))

    seen, stack = [start], [start]
    while stack:
        cur = stack.pop()
        if close(cur, goal):
            return True
        cf, cp = g.family(cur[0]), cur[1]
        for a in g.arrows:
            if a.src != cf.fid:
                continue
            nf = g.family(a.dst)
            targets = (
                [goal[1]] if a.dst == goal[0] else _candidate_params(nf, pool)
            )
            for tp in targets:
                try:
                    tp = nf.check(tp)
                except ValueError:
                    continue
                if a.predicate is not None and not a.predicate(cp, tp):
                    continue
                nxt = (nf.fid, nf.canonical(tp))
                if not any(close(nxt, s) for s in seen):
                    seen.append(nxt)
                    stack.append(nxt)
    return False


# --- figure graphs ---------------------------------------------------------


def _unimodular(z: complex) -> bool:
    return abs(abs(z) - 1.0) <= 1e-9


def _same(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9


def _h_family_domain(params):
    (lam,) = params
    return abs(lam) > 1e-9 and not _same(lam, 1.0) and not _same(lam, -1.0)


def _h_canon(params):
    (lam,) = params
    return (_normalize_h_lambda(lam, 1),)


def _form_matrix(*blocks):
    return canonical_matrix(CongruenceForm(tuple(blocks)))


@lru_cache(maxsize=None)
def congruence_graph(n: int, kind: str = "classes") -> ParametricGraph:
    """Closure graph for congruence classes or bundles of 2x2/3x3 matrices."""
    if kind not in ("classes", "bundles"):
        raise ValueError("kind must be 'classes' or 'bundles'")
    if n == 2:
        cls_dims = {
            "zero2": 0, "h_minus1": 1, "diag_1_0": 2,
            "gamma2": 3, "diag_1_1": 3, "h_lambda": 3,
        }
        bun_dims = dict(cls_dims, h_lambda=4)
        dims = cls_dims if kind == "classes" else bun_dims
        mk = {
            "zero2": lambda p: _form_matrix(Block("N", 1), Block("N", 1)),
            "h_minus1": lambda p: _form_matrix(Block("H", 2, -1.0)),
            "diag_1_0": lambda p: _form_matrix(Block("Gamma", 1), Block("N", 1)),
            "gamma2": lambda p: _form_matrix(Block("Gamma", 2)),
            "diag_1_1": lambda p: _form_matrix(Block("Gamma", 1), Block("Gamma", 1)),
            "h_lambda": lambda p: _form_matrix(Block("H", 2, p[0])),
        }
        labels = {
            "zero2": "0₂", "h_minus1": "[[0,1],[-1,0]]", "diag_1_0": "diag(1,0)",
            "gamma2": "[[0,-1],[1,1]]", "diag_1_1": "diag(1,1)",
            "h_lambda": "[[0,1],[λ,0]]",
        }
        fams = [
            Family(
                fid=f, label=labels[f], dim=dims[f],
                nparams=1 if f == "h_lambda" else 0,
                domain=_h_family_domain if f == "h_lambda" else None,
                canon=_h_canon if f == "h_lambda" else None,
                make=mk[f], sample=(2.0 + 0j,) if f == "h_lambda" else (),
            )
            for f in dims
        ]
        edges = [
            ("zero2", "h_minus1"), ("zero2", "diag_1_0"),
            ("diag_1_0", "gamma2"), ("diag_1_0", "diag_1_1"),
            ("diag_1_0", "h_lambda"), ("h_minus1", "gamma2"),
        ]
        if kind == "bundles":
            edges += [("gamma2", "h_lambda"), ("diag_1_1", "h_lambda")]
            edges.remove(("diag_1_0", "h_lambda"))
        arrows = [Arrow(a, b) for a, b in edges]
        return ParametricGraph(kind=kind, families=tuple(fams), arrows=tuple(arrows))
    if n == 3:
        cls_dims = {
            "zero3": 0, "h_minus1_n1": 3, "diag_1_0_0": 3,
            "h_lambda_n1": 5, "gamma2_n1": 5, "diag_1_1_0": 5,
            "h_minus1_gamma1": 6, "diag_1_1_1": 6, "n3": 7,
            "h_mu_gamma1": 8, "gamma2_gamma1": 8, "gamma3": 8,
        }
        bun_dims = dict(cls_dims, h_lambda_n1=6, h_mu_gamma1=9)
        dims = cls_dims if kind == "classes" else bun_dims
        mk = {
            "zero3": lambda p: _form_matrix(*[Block("N", 1)] * 3),
            "h_minus1_n1": lambda p: _form_matrix(Block("H", 2, -1.0), Block("N", 1)),
            "diag_1_0_0": lambda p: _form_matrix(Block("Gamma", 1), Block("N", 1), Block("N", 1)),
            "h_lambda_n1": lambda p: _form_matrix(Block("H", 2, p[0]), Block("N", 1)),
            "gamma2_n1": lambda p: _form_matrix(Block("Gamma", 2), Block("N", 1)),
            "diag_1_1_0": lambda p: _form_matrix(Block("Gamma", 1), Block("Gamma", 1), Block("N", 1)),
            "h_minus1_gamma1": lambda p: _form_matrix(Block("H", 2, -1.0), Block("Gamma", 1)),
            "diag_1_1_1": lambda p: _form_matrix(*[Block("Gamma", 1)] * 3),
            "n3": lambda p: _form_matrix(Block("N", 3)),
            "h_mu_gamma1": lambda p: _form_matrix(Block("H", 2, p[0]), Block("Gamma", 1)),
            "gamma2_gamma1": lambda p: _form_matrix(Block("Gamma", 2), Block("Gamma", 1)),
            "gamma3": lambda p: _form_matrix(Block("Gamma", 3)),
        }
        labels = {
            "zero3": "0₃", "h_minus1_n1": "[[0,1],[-1,0]]⊕0",
            "diag_1_0_0": "diag(1,0,0)", "h_lambda_n1": "[[0,1],[λ,0]]⊕0",
            "gamma2_n1": "[[0,-1],[1,1]]⊕0", "diag_1_1_0": "diag(1,1,0)",
            "h_minus1_gamma1": "[[0,1],[-1,0]]⊕1", "diag_1_1_1": "diag(1,1,1)",
            "n3": "N₃", "h_mu_gamma1": "[[0,1],[μ,0]]⊕1",
            "gamma2_gamma1": "[[0,-1],[1,1]]⊕1", "gamma3": "Γ₃",
        }
        parametric = {"h_lambda_n1", "h_mu_gamma1"}
        fams = [
            Family(
                fid=f, label=labels[f], dim=dims[f],
                nparams=1 if f in parametric else 0,
                domain=_h_family_domain if f in parametric else None,
                canon=_h_canon if f in parametric else None,
                make=mk[f], sample=(2.0 + 0j,) if f in parametric else (),
            )
            for f in dims
        ]
        shared = [
            ("zero3", "h_minus1_n1"), ("zero3", "diag_1_0_0"),
            ("h_minus1_n1", "gamma2_n1"),
            ("diag_1_0_0", "gamma2_n1"),
            ("diag_1_0_0", "diag_1_1_0"),
            ("gamma2_n1", "h_minus1_gamma1"),
            ("h_lambda_n1", "n3"),
            ("diag_1_1_0", "diag_1_1_1"),
            ("h_minus1_gamma1", "gamma2_gamma1"), ("diag_1_1_1", "gamma3"),
            ("n3", "gamma2_gamma1"), ("n3", "gamma3"),
        ]
        if kind == "classes":
            edges = shared + [
                ("diag_1_0_0", "h_lambda_n1"),
                ("gamma2_n1", "n3"), ("diag_1_1_0", "n3"), ("n3", "h_mu_gamma1"),
            ]
        else:
            edges = shared + [
                ("gamma2_n1", "h_lambda_n1"), ("diag_1_1_0", "h_lambda_n1"),
                ("gamma2_gamma1", "h_mu_gamma1"), ("gamma3", "h_mu_gamma1"),
            ]
        arrows = [Arrow(a, b) for a, b in edges]
        if kind == "classes":
            # the parameter of the nonsingular part persists in the closure:
            # the degenerate lam-family sits below the mu-family only for the
            # matching parameter (up to inversion)
            def same_up_to_inversion(ps, pd):
                return _same(ps[0], pd[0]) or _same(1.0 / ps[0], pd[0])

            arrows.append(
                Arrow(
                    "h_lambda_n1",
                    "h_mu_gamma1",
                    predicate=same_up_to_inversion,
                    condition="same λ up to inversion",
                )
            )
        return ParametricGraph(kind=kind, families=tuple(fams), arrows=tuple(arrows))
    raise CatalogError(f"congruence closure graphs cover sizes 2 and 3, not {n}")


def _mu_nu_domain(params):
    mu, nu = params
    return _unimodular(mu) and _unimodular(nu) and abs(mu - nu) > 1e-9 and abs(mu + nu) > 1e-9


def _mu_nu_canon(params):
    return tuple(sorted(params, key=lambda z: (z.real, z.imag)))


def _pm_canon(params):
    (lam,) = params
    cands = [lam, -lam]
    cands.sort(key=lambda z: (z.imag, z.real))
    return (cands[-1],)


def _cone_condition(ps, pd):
    (lam,), (mu, nu) = ps, pd
    M = np.array([[mu.real, nu.real], [mu.imag, nu.imag]])
    ab = np.linalg.solve(M, np.array([lam.real, lam.imag]))
    return bool(np.all(ab >= -1e-9))


@lru_cache(maxsize=None)
def star_graph_2x2() -> ParametricGraph:
    """Closure graph for *congruence classes of 2x2 matrices (real dims)."""
    one = lambda params: _unimodular(params[0])

    def mk_diag(a, b):
        return np.array([[a, 0.0], [0.0, b]], dtype=complex)

    fams = [
        Family("zero", "0₂", 0, 0, make=lambda p: np.zeros((2, 2), dtype=complex)),
        Family(
            "diag_l_0", "diag(λ,0)", 3, 1, domain=one,
            make=lambda p: mk_diag(p[0], 0.0), sample=(1.0 + 0j,),
        ),
        Family(
            "diag_l_l", "diag(λ,λ)", 4, 1, domain=one,
            make=lambda p: mk_diag(p[0], p[0]), sample=(1.0 + 0j,),
        ),
        Family(
            "diag_l_minus_l", "diag(λ,-λ)", 4, 1, domain=one, canon=_pm_canon,
            make=lambda p: mk_diag(p[0], -p[0]), sample=(1.0 + 0j,),
        ),
        Family(
            "diag_mu_nu", "diag(μ,ν)", 6, 2, domain=_mu_nu_domain, canon=_mu_nu_canon,
            make=lambda p: mk_diag(p[0], p[1]), sample=(1.0 + 0j, 1j),
        ),
        Family(
            "h_sigma", "[[0,1],[σ,0]]", 6, 1,
            domain=lambda p: 1e-9 < abs(p[0]) < 1 - 1e-9,
            make=lambda p: np.array([[0.0, 1.0], [p[0], 0.0]], dtype=complex),
            sample=(0.5 + 0j,),
        ),
        Family(
            "u_tau", "τ·[[0,1],[1,i]]", 6, 1, domain=one,
            make=lambda p: _u_matrix(2, p[0]), sample=(1.0 + 0j,),
        ),
    ]
    arrows = [
        Arrow("zero", "diag_l_0"),
        Arrow("zero", "diag_mu_nu"),
        Arrow("zero", "u_tau"),
        Arrow(
            "diag_l_0", "diag_l_l",
            predicate=lambda ps, pd: _same(ps[0], pd[0]),
            condition="same λ",
        ),
        Arrow(
            "diag_l_0", "diag_l_minus_l",
            predicate=lambda ps, pd: _same(ps[0], pd[0]) or _same(ps[0], -pd[0]),
            condition="same λ",
        ),
        Arrow("diag_l_0", "h_sigma"),
        Arrow("diag_l_0", "diag_mu_nu", predicate=_cone_condition,
              condition="λ ∈ μℝ₊+νℝ₊"),
        Arrow(
            "diag_l_0", "u_tau",
            predicate=lambda ps, pd: (ps[0] * np.conj(pd[0])).imag >= -1e-9,
            condition="Im(λτ̄) ≥ 0",
        ),
        Arrow(
            "diag_l_minus_l", "u_tau",
            predicate=lambda ps, pd: _same(pd[0], ps[0]) or _same(pd[0], -ps[0]),
            condition="τ = ±λ",
        ),
    ]
    return ParametricGraph(kind="star_classes", families=tuple(fams), arrows=tuple(arrows))


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


def parametric_to_json_doc(g: ParametricGraph) -> dict:
    return {
        "kind": g.kind,
        "families": [
            {"id": f.fid, "label": f.label, "dim": f.dim, "nparams": f.nparams}
            for f in sorted(g.families, key=lambda f: (f.dim, f.fid))
        ],
        "arrows": [
            {"src": a.src, "dst": a.dst, "condition": a.condition}
            for a in sorted(g.arrows, key=lambda a: (a.src, a.dst))
        ],
    }


def parametric_to_dot(g: ParametricGraph) -> str:
    lines = ["digraph strata {"]
    for f in sorted(g.families, key=lambda f: (f.dim, f.fid)):
        lines.append(f'  "{f.fid}" [label="{f.label} (dim {f.dim})"];')
    for a in sorted(g.arrows, key=lambda a: (a.src, a.dst)):
        attr = f' [label="{a.condition}"]' if a.condition else ""
        lines.append(f'  "{a.src}" -> "{a.dst}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
