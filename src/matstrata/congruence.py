"""Canonical forms and perturbation catalogs under congruence and *congruence.

Canonical blocks: H(m, lam) = [[0, I], [J_m(lam), 0]] (lam outside
{0, (-1)^(m+1)}, determined up to lam -> 1/lam), the +-1 anti-triangular
block Gamma(s), and the nilpotent block N(k).  For *congruence the blocks
are H*(m, lam) with |lam| != 0, 1, the unimodular anti-triangular block
U(s, mu) with |mu| = 1, and N(k).

The 2x2 and 3x3 deformations of both catalogues are derived from the
tangent map by one walk over the matrix units at a representative of each
table row (lam = 2, every mu = 1); the actual mu then decides the kind of
each *congruence eps and delta cell.
Classification of small matrices goes through the Kronecker data of the
pencil (A, A^T): common-kernel deflation, three ranks and, for an H block,
the eigenvalues of the cosquare A^-T A pin down the canonical form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations_with_replacement

import numpy as np

from ._value import Value
from .errors import CatalogError, NumericalAmbiguityError, raise_ambiguous
from .parametric import (  # noqa: F401 -- the closure graphs live in parametric.py, re-exported here
    PARAM_TOL,
    _inst,
    _normalize_h_lambda,
    congruence_graph,
    parametric_to_dot,
    parametric_to_json_doc,
    star_graph_2x2,
)
from .structure import complex_from_pair, format_complex
from .templates import DELTA, EPS_IM, EPS_RE, FIXED, STAR, DeformationTemplate, jordan_block
from .tangent import (
    DEFAULT_RANK_TOL, action_operator, band_ranks, check_finite, check_tol, guarded_rank, unit_scale,
)

# ---------------------------------------------------------------------------
# blocks and forms
# ---------------------------------------------------------------------------

_KIND_ORDER = {"H": 0, "H*": 0, "Gamma": 1, "U": 1, "N": 2}


class Block(Value):
    """One canonical direct summand; ``size`` is its matrix size."""

    kind: str
    size: int
    param: complex | None = None

    def __init__(self, kind: str, size: int, param: complex | None = None):
        if type(kind) is not str or kind not in _KIND_ORDER:
            raise CatalogError(f"unknown block kind {kind!r}")
        if type(size) is not int:
            raise CatalogError(f"block sizes must be integers, got {size!r}")
        if size < 1:
            raise CatalogError(f"block size must be positive, got {size}")
        if kind in ("H", "H*"):
            if size % 2:
                raise CatalogError("H blocks have even size 2m")
            if param is None:
                raise CatalogError("H blocks need a parameter")
        elif kind == "U":
            if param is None:
                raise CatalogError("U blocks need a unimodular parameter")
        elif param is not None:
            raise CatalogError(f"{kind} blocks carry no parameter")
        if isinstance(param, (bool, np.bool_, str, bytes)):  # complex() would parse a string
            raise CatalogError(f"a block parameter must be a number, got {param!r}")
        if param is not None:
            param = complex(param)
        self._set(kind, size, param)

    @property
    def m(self) -> int:
        return self.size // 2 if self.kind in ("H", "H*") else self.size


def _block_sort_key(b: Block):
    p = b.param if b.param is not None else 0j
    return (_KIND_ORDER[b.kind], -b.size, p.real, p.imag)


class _Form(Value):
    """Direct sum of canonical blocks, none of them of a ``_FOREIGN`` kind."""

    blocks: tuple[Block, ...]

    def __init__(self, blocks: tuple[Block, ...]):
        blocks = tuple(blocks)
        for b in blocks:
            if b.kind in self._FOREIGN:
                raise CatalogError(f"{b.kind} blocks belong to the {self._OTHER} catalog")
        self._set(blocks)

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)


class CongruenceForm(_Form):
    _FOREIGN, _OTHER = ("H*", "U"), "*congruence"


class StarForm(_Form):
    _FOREIGN, _OTHER = ("H", "Gamma"), "congruence"


def block_display(b: Block) -> str:
    if b.kind in ("H", "H*"):
        return f"{b.kind}{b.m}({format_complex(b.param, '{:.12g}'.format)})"
    if b.kind == "U":
        return f"U{b.size}({format_complex(b.param, '{:.12g}'.format)})"
    return f"{'Γ' if b.kind == 'Gamma' else 'N'}{b.size}"


def form_display(form) -> str:
    return "⊕".join(block_display(b) for b in form.blocks)


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
    out = np.zeros((form.n, form.n), dtype=complex)
    off = 0
    for b in form.blocks:
        out[off : off + b.size, off : off + b.size] = block_matrix(b)
        off += b.size
    return out


def family_form(g, inst):
    """The form of an instance ``(fid,)`` or ``(fid, params)`` of a family of
    the parametric graph ``g``, its free parameters put in place."""
    family, params = _inst(g, inst)
    value = dict(zip(family.symbols, params))
    blocks = []
    for kind, size, *param in family.blocks:
        p = param[0] if param else None
        if isinstance(p, str):
            p = -value[p[1:]] if p[0] == "-" else value[p]
        blocks.append(Block(kind, size, p))
    return (StarForm if g.kind.startswith("star") else CongruenceForm)(tuple(blocks))


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
        elif b.kind == "U" and abs(abs(b.param) - 1) > PARAM_TOL:
            raise CatalogError(
                f"U-block parameter must be unimodular, |mu| = {abs(b.param):.6g}"
            )
        else:
            blocks.append(b)
    blocks.sort(key=_block_sort_key)
    return type(form)(tuple(blocks))


# ---------------------------------------------------------------------------
# deformation templates (2x2 and 3x3)
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


@lru_cache(maxsize=None)
def _slots(sig: tuple, star: bool) -> tuple:
    """Parameter slots of a table row, read off the tangent map at the row's
    representative (lam = 2, every mu = 1).  The walk tries E_ij in each cell
    and, on the real *congruence map, then i E_ij, and keeps each direction
    that raises the rank of the map joined with the directions kept so far.

    A slot is (i, j) for a star, ("eps", l, i, j) for a cell that keeps only
    i E_ij, and ("delta", l, r, i, j) for a cell that keeps both directions
    between two U blocks; l and r are the 1-based U indices of the blocks
    that hold row i and column j.
    """
    entry = TableEntry(sig, star)
    form = entry.make(lam=2.0, mus=(1.0,) * entry.n_mu)
    A = canonical_matrix(form)
    n = len(A)
    M = action_operator("star_congruence" if star else "congruence", A)
    units = np.eye(len(M))  # the real map's rows hold real parts, then imaginary parts
    is_u = [b.kind == "U" for b in form.blocks]  # each row's 1-based U index, 0 outside U blocks
    u_index = [k * u for k, u, b in zip(accumulate(is_u), is_u, form.blocks) for _ in range(b.size)]
    # on and below the diagonal, then above it, each bottom row first and
    # left to right; *congruence walks the diagonal first: that order
    # reproduces its published table (Dmytryshyn, Futorny & Sergeichuk,
    # LAA 2014), and no one order reproduces both tables (Gamma3 needs the
    # diagonal not first)
    rank, slots = guarded_rank(M), []
    for i, j in sorted(np.ndindex(n, n), key=lambda c: (star and c[0] != c[1], c[1] > c[0], -c[0], c[1])):
        kept = []
        for part in range(1 + star):  # E_ij, then i E_ij
            joined = np.hstack([M, units[:, [part * n * n + i * n + j]]])
            if (r := guarded_rank(joined)) > rank:
                M, rank = joined, r
                kept.append(part)
        if kept == [1]:
            slots.append(("eps", u_index[i], i, j))
        elif len(kept) == 2 and 0 < u_index[i] != u_index[j] > 0:
            slots.append(("delta", u_index[i], u_index[j], i, j))
        elif kept:
            slots.append((i, j))
    return tuple(slots)


def congruence_template(form: CongruenceForm) -> DeformationTemplate:
    """Miniversal deformation of a 2x2 or 3x3 congruence form."""
    return _tabulated_template(normalize_form(form), star=False)


def star_template(form: StarForm) -> DeformationTemplate:
    """Miniversal deformation of a 2x2 or 3x3 *congruence form.

    eps slots are purely real or purely imaginary depending on whether the
    attached unimodular parameter is off or on the real axis; delta slots
    vanish unless the two parameters agree up to sign.  Parameters are
    taken as given (both |lam| > 1 and |lam| < 1 are accepted).
    """
    normalize_form(form)  # refuses parameters outside their domains
    return _tabulated_template(StarForm(sorted(form.blocks, key=_block_sort_key)), star=True)


def _tabulated_template(form, star: bool) -> DeformationTemplate:
    """``form``'s template in the *congruence catalogue if ``star``, else congruence."""
    n = form.n
    if n not in (2, 3):
        raise CatalogError(f"deformation tables cover sizes 2 and 3, not {n}")
    mus = [b.param for b in form.blocks if b.kind == "U"]
    base = canonical_matrix(form)
    kinds = [[FIXED] * n for _ in range(n)]
    for slot in _slots(_signature(form), star):
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


class TableEntry(Value):
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
    own = (("H", 1, "neg1"), ("H", 1, "gen"), ("Gamma", 3), ("Gamma", 2), ("Gamma", 1))
    return _entries(own, size, star=False)


def star_entries(size: int) -> tuple[TableEntry, ...]:
    return _entries((("H*", 1), ("U", 3), ("U", 2), ("U", 1)), size, star=True)


def _entries(own, size: int, star: bool) -> tuple[TableEntry, ...]:
    """Every form of ``size`` (2 or 3) made of the catalog's ``own`` block
    kinds and N blocks, in catalog order."""
    kinds = own + (("N", 3), ("N", 2), ("N", 1))
    return tuple(
        TableEntry(sig, star=star)
        for r in range(1, size + 1)
        for sig in combinations_with_replacement(kinds, r)
        if sum(s[1] * (2 if s[0] in ("H", "H*") else 1) for s in sig) == size
    )


# ---------------------------------------------------------------------------
# classification of 2x2 / 3x3 matrices under congruence
# ---------------------------------------------------------------------------


def _common_kernel(A: np.ndarray, tol: float):
    """Orthonormal bases (complement, kernel) of ker A ∩ ker A^T."""
    _, s, vh = np.linalg.svd(np.concatenate((A, A.T)), full_matrices=False)
    V = np.conj(vh).T
    r = raise_ambiguous(band_ranks(s[None], tol, s[:1]))[0]  # against its own largest
    return V[:, :r], V[:, r:]


_G1, _N1 = Block("Gamma", 1), Block("N", 1)

# (n, rank A, rank A + A^T, rank A - A^T) -> the core's blocks, in catalog
# order; (2, 2, 2, 2) and (3, 3, 3, 2) need the cosquare (see _classify_core)
_FINGERPRINTS = {
    (2, 2, 2, 0): (_G1, _G1),
    (2, 1, 2, 2): (Block("N", 2),),
    (2, 2, 0, 2): (Block("H", 2, -1.0),),
    (2, 2, 1, 2): (Block("Gamma", 2),),
    (3, 3, 3, 0): (_G1, _G1, _G1),
    (3, 3, 2, 2): (Block("Gamma", 2), _G1),
    (3, 3, 1, 2): (Block("H", 2, -1.0), _G1),
    (3, 2, 3, 2): (_G1, Block("N", 2)),
    (3, 2, 2, 2): (Block("N", 3),),
}


def _classify_core(A: np.ndarray, tol: float) -> tuple[Block, ...]:
    """Classify a matrix with trivial common kernel (size 1..3)."""
    n = A.shape[0]
    if n == 1:
        return (_G1,)
    # the ranks of A, A + A^T and A - A^T, all against the scale of A
    s = np.linalg.svd(np.array((A, A + A.T, A - A.T)), compute_uv=False)  # np.stack costs 5 us more
    key = (n, *raise_ambiguous(band_ranks(s, tol, (s[0, 0],) * 3)))
    if key in _FINGERPRINTS:
        return _FINGERPRINTS[key]
    if key not in ((2, 2, 2, 2), (3, 3, 3, 2)):
        msg = f"rank fingerprint {key[1:]} matches no canonical form of size {n}"
        raise NumericalAmbiguityError(msg, details={"ranks": key[1:]})
    # rank A = n on both keys left, so A^T is invertible
    cosq = np.linalg.solve(A.T, A)
    if n == 2:
        return (Block("H", 2, _extract_h_lambda(cosq, fixed=False)),)
    # both candidates have cosquare eigenvalues {1, lam, 1/lam}; the
    # anti-triangular block makes 1 defective (one 3x3 block), so
    # (cosquare - I)^2 keeps rank 1 there and rank 2 for the H pair
    K = cosq - np.eye(3)
    if guarded_rank(K @ K, tol) <= 1:
        return (Block("Gamma", 3),)
    return (Block("H", 2, _extract_h_lambda(cosq, fixed=True)), _G1)


def _extract_h_lambda(cosq: np.ndarray, fixed: bool) -> complex:
    """lam of the free pair {lam, 1/lam} among the eigenvalues of the cosquare
    A^-T A (the roots of det(A - s A^T) = det(A^T) det(A^-T A - sI)), after
    the eigenvalue 1 of a Gamma1 summand when ``fixed``."""
    eigs = sorted(np.linalg.eigvals(cosq), key=lambda z: abs(z - 1))
    if fixed and abs(eigs[0] - 1) > 1e-4:
        raise NumericalAmbiguityError(
            "expected pencil eigenvalue 1.0 not found", details={"roots": [complex(z) for z in eigs]}
        )
    big, small = sorted(eigs[1:] if fixed else eigs, key=abs, reverse=True)
    # lam = big = 1/small: their mean spreads the roundoff of the two copies
    return _normalize_h_lambda(complex((big + 1 / small) / 2), 1)


def classify_congruence(A, tol: float = DEFAULT_RANK_TOL) -> CongruenceForm:
    """Congruence canonical form of a 2x2 or 3x3 complex matrix.

    Tolerance-ambiguous rank decisions raise NumericalAmbiguityError
    rather than guessing.
    """
    check_tol(tol)
    A = unit_scale(check_finite(A))
    n = A.shape[0]
    if n not in (2, 3):
        raise CatalogError(f"classification covers 2x2 and 3x3 matrices, got {A.shape}")
    if norm := float(np.linalg.norm(A)):  # the zero matrix has rank 0: all N1 blocks
        A = A * (np.sqrt(n) / norm)  # scalar congruence scaling
    Q, V = _common_kernel(A, tol)
    core = _classify_core(Q.T @ A @ Q, tol) if Q.shape[1] else ()
    form = CongruenceForm(core + (_N1,) * V.shape[1])  # already in catalog order
    # only an H parameter may still need its canonical member of {lam, 1/lam}
    return normalize_form(form) if core and core[0].kind == "H" else form


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
    entries = doc.get("blocks") if isinstance(doc, dict) else None
    if type(entries) is not list or not all(type(e) is dict and {"kind", "size"} <= e.keys() for e in entries):
        raise CatalogError(
            'a form is an object with a "blocks" list of objects, each holding "kind" and "size"'
        )
    blocks = tuple(
        Block(e["kind"], e["size"], complex_from_pair(e["param"]) if "param" in e else None)
        for e in entries
    )
    if type(star := doc.get("star", False)) is not bool:
        raise CatalogError(f'the form flag "star" must be true or false, got {star!r}')
    return StarForm(blocks) if star else CongruenceForm(blocks)
