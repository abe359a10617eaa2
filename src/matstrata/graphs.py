"""Closure graphs under similarity, congruence and *congruence; no numpy.

A structure J lies below J2 when every matrix similar to J is a limit of
matrices similar to J2; the test is partition dominance, one eigenvalue at
a time.  Similarity graphs are built for the nilpotent chain, for fixed
eigenvalue patterns (classes) and modulo eigenvalue renaming (classes, and
bundles, which also let eigenvalues merge), all four by one pass over
down-moves on plain block-size keys.  The congruence graphs are
parametric: a vertex is a family of canonical forms with free parameters,
and an arrow may hold only under a condition.
"""

from __future__ import annotations

import bisect
import itertools
from functools import cached_property, lru_cache

from ._value import Value
from .errors import CatalogError, SizeMismatchError
from .structure import (
    BundleType,
    EigLabel,
    JordanType,
    Partition,
    bundle_dim,
    bundle_key,
    bundle_of_key,
    bundle_types,
    format_compact,
    format_display,
    jordan_types_for_pattern,
    orbit_dim,
    partitions,
    _partition_order_key,
)

DEFAULT_MAX_N = 8


def _prefix_dominates(w_lo: tuple[int, ...], w_hi: tuple[int, ...]) -> bool:
    """Every prefix sum of w_lo is >= the matching prefix sum of w_hi."""
    s_lo = s_hi = 0
    for a, b in itertools.zip_longest(w_lo, w_hi, fillvalue=0):
        s_lo, s_hi = s_lo + a, s_hi + b
        if s_lo < s_hi:
            return False
    return True


def partition_closure_leq(q: Partition, p: Partition) -> bool:
    """Single-eigenvalue closure test: q-structure inside closure of p-structure.

    The test is dominance of the conjugates, conj(q) over conj(p); for
    partitions of one total that is dominance of p over q, so no conjugate
    is built.
    """
    if q.total != p.total:
        return False
    return _prefix_dominates(p.parts, q.parts)


def closure_leq(J: JordanType, J2: JordanType) -> bool:
    """True iff the class of J is contained in the closure of the class of J2.

    Requires the same eigenvalue labels, then the single-eigenvalue closure
    test on each label's partitions.  Reflexive (a structure reaches itself
    by the empty perturbation).
    """
    if J.n != J2.n:
        raise SizeMismatchError(f"orders differ: {J.n} vs {J2.n}")
    if set(J.labels) != set(J2.labels):
        return False
    return all(
        partition_closure_leq(J.partition_of(label), J2.partition_of(label))
        for label in J.labels
    )


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


class GraphVertex(Value):
    _fields = ("id", "notation", "dim", "structure")

    def __init__(self, id: str, notation: str, dim: int, structure: JordanType):
        self._set(id, notation, dim, structure)


class ClosureGraph(Value):
    """Hasse diagram of a closure order.

    Edge (a, b) means stratum a lies in the closure of stratum b; every
    edge strictly increases the dimension annotation.
    """

    _fields = ("kind", "vertices", "edges")

    def __init__(self, kind: str, vertices: tuple[GraphVertex, ...],
                 edges: tuple[tuple[str, str], ...]):
        self._set(kind, vertices, edges)

    @cached_property
    def _by_key(self) -> dict[str, int]:
        # a key names the first vertex whose id or notation it equals
        by_key: dict[str, int] = {}
        for i, v in enumerate(self.vertices):
            by_key.setdefault(v.id, i)
            by_key.setdefault(v.notation, i)
        return by_key

    @cached_property
    def _below(self) -> list[int]:
        """Strict down-set bitset of each vertex, read off the edges alone,
        vertex by vertex in dimension order: an edge (a, b) raises the
        dimension (checked), so ``below[a]`` is final when b ORs it in."""
        preds: list[list[int]] = [[] for _ in self.vertices]
        for a, b in self.edges:
            i, j = self._by_key[a], self._by_key[b]
            if self.vertices[i].dim >= self.vertices[j].dim:
                raise ValueError(f"edge {a!r} -> {b!r} does not raise the dimension")
            preds[j].append(i)
        below = [0] * len(preds)
        for j in sorted(range(len(preds)), key=lambda j: self.vertices[j].dim):
            for i in preds[j]:
                below[j] |= 1 << i | below[i]
        return below

    def _index(self, key) -> int:
        try:
            return self._by_key[format_compact(key) if isinstance(key, JordanType) else str(key)]
        except KeyError:
            raise KeyError(f"no vertex {key!r} in graph") from None

    def vertex(self, key) -> GraphVertex:
        return self.vertices[self._index(key)]

    def successors(self, vid: str) -> list[str]:
        return [b for a, b in self.edges if a == vid]


def _bits(x: int):
    """Indices of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _hasse_edges(below: list[int], steps: list[int]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) with vertex i strictly below vertex j.

    The order is given as Python-int bitsets over vertex indices: bit i of
    ``below[j]`` is set when vertex i lies strictly below vertex j.
    ``steps[j]`` is a subset of ``below[j]`` that generates it: every vertex
    below j lies at or below some vertex of ``steps[j]``, as the down-moves
    of j do.  Then j covers exactly the vertices of ``below[j]`` that lie
    strictly below no vertex of ``steps[j]``: one OR per step, no scan over
    all triples.
    """
    edges = []
    for j, (down, step) in enumerate(zip(below, steps)):
        under = 0
        for m in _bits(step):
            under |= below[m]
        edges.extend((i, j) for i in _bits(down & ~under))
    return edges


def build_class_graph(
    n: int,
    pattern: tuple[int, ...] | None = None,
    nilpotent: bool = False,
) -> ClosureGraph:
    """Closure graph for similarity classes of n x n matrices.

    ``nilpotent`` restricts to the single concrete eigenvalue 0;
    ``pattern`` fixes symbolic labels with the given multiplicities;
    with neither, all structures appear once modulo eigenvalue renaming.
    Those classes are the bundles, ordered by single-partition moves.
    """
    if not 1 <= n <= DEFAULT_MAX_N:
        raise ValueError(f"order {n} outside supported range 1..{DEFAULT_MAX_N}")
    if nilpotent and pattern is not None:
        raise ValueError("a nilpotent class graph takes no eigenvalue pattern")
    if nilpotent:
        zero = EigLabel.concrete(0)
        structs = [JordanType({zero: p}) for p in partitions(n)]
    elif pattern is not None:
        pattern = tuple(pattern)
        if not all(isinstance(m, int) and m >= 1 for m in pattern):
            raise ValueError(f"pattern {pattern} needs positive integer multiplicities")
        if sum(pattern) != n:
            raise ValueError(f"pattern {pattern} does not sum to {n}")
        structs = jordan_types_for_pattern(pattern)
    else:
        return _move_graph("classes", bundle_types(n), orbit_dim, lambda k: _key_moves(k, False))
    return _move_graph("classes", structs, orbit_dim, _label_moves)


@lru_cache(maxsize=None)
def _coarsenings(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The partitions q != p of the same total that p dominates: one
    eigenvalue's block sizes strictly below p in the closure order."""
    return tuple(
        q.parts for q in partitions(sum(p)) if q.parts != p and _prefix_dominates(p, q.parts)
    )


def _label_moves(key: tuple[tuple[int, ...], ...]) -> list:
    """Keys one coarsening below ``key``, every eigenvalue kept in place.
    They generate the product of the single-eigenvalue orders, which is
    ``closure_leq`` on structures with the same eigenvalues."""
    return [key[:i] + (q,) + key[i + 1 :] for i, p in enumerate(key) for q in _coarsenings(p)]


@lru_cache(maxsize=None)
def _key_moves(key: tuple[tuple[int, ...], ...], merge: bool) -> tuple:
    """Bundle keys one degeneration step below ``key``.

    Either one eigenvalue's partition coarsens (strictly lower in the
    single-eigenvalue closure order) or, with ``merge``, two eigenvalues
    merge, the merged block sizes being the part-wise sum of the two sorted
    size lists.  Coarsenings alone generate the order of classes modulo
    eigenvalue renaming: a ≤ b there when some bijection of the eigenvalues
    pairs each partition of a with one of b that dominates it.
    """
    out = set()
    for i, p in enumerate(key):
        rest = key[:i] + key[i + 1 :]
        out.update(_insert_part(rest, q) for q in _coarsenings(p))
        for j in range(i + 1, len(key)) if merge else ():
            merged = tuple(map(sum, itertools.zip_longest(p, key[j], fillvalue=0)))
            out.add(_insert_part(key[:i] + key[i + 1 : j] + key[j + 1 :], merged))
    return tuple(out)


def _insert_part(key: tuple[tuple[int, ...], ...], part: tuple[int, ...]) -> tuple:
    """``bundle_key(key + (part,))`` for a ``key`` already in label order."""
    at = bisect.bisect_right(key, _partition_order_key(part), key=_partition_order_key)
    return key[:at] + (part,) + key[at:]


def bundle_down_moves(b: JordanType) -> list[BundleType]:
    """Bundles one degeneration step below ``b`` (see ``_key_moves``),
    sorted by compact notation."""
    key = bundle_key(p.parts for _, p in b.entries)
    return sorted(map(bundle_of_key, _key_moves(key, True)), key=format_compact)


def _move_graph(kind: str, structs, dim_of, moves) -> ClosureGraph:
    """Closure graph of ``structs``, each keyed by its eigenvalues' block-size
    tuples in label order, ``moves(key)`` giving the keys one degeneration
    step below.  One pass over the vertices in ``(dim, notation)`` order:
    the moves of vertex j lower ``dim_of``, so they point to earlier
    vertices (checked), and ``below[j]`` is the OR over moves d of
    ``bit d | below[d]``; the moves generate ``below[j]``, so
    ``_hasse_edges`` reads the covers off them."""
    verts = [GraphVertex(format_compact(s), format_display(s), dim_of(s), s) for s in structs]
    verts.sort(key=lambda v: (v.dim, v.notation))
    index = {tuple(p.parts for _, p in v.structure.entries): j for j, v in enumerate(verts)}
    below, steps = [], []
    for j, key in enumerate(index):
        step = 0
        for d in moves(key):
            i = index[d]
            if i >= j:
                raise RuntimeError(
                    f"down-move {verts[i].id} of {verts[j].id} does not come earlier "
                    f"in the {dim_of.__name__.removesuffix('_dim')}-dimension order"
                )
            step |= 1 << i
        down = step
        for i in _bits(step):
            down |= below[i]
        below.append(down)
        steps.append(step)
    edges = sorted((verts[i].id, verts[j].id) for i, j in _hasse_edges(below, steps))
    return ClosureGraph(kind=kind, vertices=tuple(verts), edges=tuple(edges))


def build_bundle_graph(n: int) -> ClosureGraph:
    """Closure graph for similarity bundles of n x n matrices."""
    if not 1 <= n <= DEFAULT_MAX_N:
        raise ValueError(f"order {n} outside supported range 1..{DEFAULT_MAX_N}")
    return _move_graph("bundles", bundle_types(n), bundle_dim, lambda k: _key_moves(k, True))


def reachable(g: ClosureGraph, a, b) -> bool:
    """Directed path (possibly empty) from vertex a to vertex b: one bit
    test in b's strict down-set."""
    i, j = g._index(a), g._index(b)
    return i == j or bool(g._below[j] >> i & 1)


# ---------------------------------------------------------------------------
# parametric closure graphs (2x2 / 3x3 congruence, 2x2 *congruence)
# ---------------------------------------------------------------------------

PARAM_TOL = 1e-12


def _normalize_h_lambda(lam: complex, m: int) -> complex:
    """The member of the H-block pair {lam, 1/lam} kept as canonical."""
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


class Family(Value):
    """One vertex family: a canonical shape with free parameters.

    ``blocks`` are (kind, size) or (kind, size, param); a string param such
    as "λ" or "-λ" refers to a free parameter, numbered in order of first
    appearance, any other param is fixed.
    """

    _fields = ("fid", "label", "dim", "blocks", "domain", "canon", "sample")

    def __init__(self, fid: str, label: str, dim: int, blocks: tuple = (),
                 domain: object = None,     # params -> bool
                 canon: object = None,      # params -> canonical tuple (instance identity)
                 sample: tuple = ()):
        self._set(fid, label, dim, blocks, domain, canon, sample)

    @property
    def symbols(self) -> tuple[str, ...]:
        names = [b[2].lstrip("-") for b in self.blocks if len(b) > 2 and isinstance(b[2], str)]
        return tuple(dict.fromkeys(names))

    @property
    def nparams(self) -> int:
        return len(self.symbols)

    def make(self, params):
        """Canonical matrix (a numpy array) of the member with these parameters."""
        from .congruence import Block, _direct_sum

        value = dict(zip(self.symbols, params))
        blocks = []
        for kind, size, *param in self.blocks:
            p = param[0] if param else None
            if isinstance(p, str):
                p = -value[p[1:]] if p[0] == "-" else value[p]
            blocks.append(Block(kind, size, p))
        return _direct_sum(blocks)

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


class Arrow(Value):
    _fields = ("src", "dst", "predicate", "condition")

    def __init__(self, src: str, dst: str,
                 predicate: object = None,  # (src_params, dst_params) -> bool
                 condition: str = ""):
        self._set(src, dst, predicate, condition)


class ParametricGraph(Value):
    _fields = ("kind", "families", "arrows")

    def __init__(self, kind: str, families: tuple[Family, ...], arrows: tuple[Arrow, ...]):
        self._set(kind, families, arrows)

    def family(self, fid: str) -> Family:
        for f in self.families:
            if f.fid == fid:
                return f
        raise KeyError(f"no family {fid!r} in graph")


def _inst(g: ParametricGraph, inst):
    """Family and checked parameters of an instance ``(fid,)`` or ``(fid, params)``."""
    params = inst[1] if len(inst) == 2 else ()
    try:
        params = tuple(params)
    except TypeError:  # one bare number
        params = (params,)
    fam = g.family(inst[0])
    return fam, fam.check(params)


def has_arrow(g: ParametricGraph, src_inst, dst_inst) -> bool:
    """Direct arrow between two concrete instances (reflexive)."""
    fs, ps = _inst(g, src_inst)
    fd, pd = _inst(g, dst_inst)
    if fs.fid == fd.fid and all(map(_same, fs.canonical(ps), fd.canonical(pd))):
        return True
    return any(
        a.src == fs.fid and a.dst == fd.fid and (a.predicate is None or a.predicate(ps, pd))
        for a in g.arrows
    )


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
    cands.add(fam.canonical(fam.check(fam.sample)))
    return sorted(cands, key=lambda t: tuple((z.real, z.imag) for z in t))


def path_exists(g: ParametricGraph, src_inst, dst_inst) -> bool:
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
        zc = z.conjugate()
        pool.update({z, -z, zc, -zc})
        if abs(z) > 1e-12:
            pool.update({1.0 / z, 1.0 / zc})
    start = (fs.fid, fs.canonical(ps))
    goal = (fd.fid, fd.canonical(pd))

    def close(a, b):
        return a[0] == b[0] and all(map(_same, a[1], b[1]))

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
            targets = [goal[1]] if a.dst == goal[0] else _candidate_params(nf, pool)
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


# --- parameter domains and arrow conditions ---------------------------------


def _unimodular(params) -> bool:
    return all(abs(abs(z) - 1.0) <= 1e-9 for z in params)


def _same(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9


def _h_family_domain(params):
    (lam,) = params
    return abs(lam) > 1e-9 and not _same(lam, 1.0) and not _same(lam, -1.0)


def _h_canon(params):
    (lam,) = params
    return (_normalize_h_lambda(lam, 1),)


def _mu_nu_domain(params):
    mu, nu = params
    return _unimodular(params) and abs(mu - nu) > 1e-9 and abs(mu + nu) > 1e-9


def _mu_nu_canon(params):
    return tuple(sorted(params, key=lambda z: (z.real, z.imag)))


def _pm_canon(params):
    """The member of {lam, -lam} with the larger (imag, real)."""
    return (max(params[0], -params[0], key=lambda z: (z.imag, z.real)),)


def _same_up_to_sign(ps, pd):
    return _same(ps[0], pd[0]) or _same(ps[0], -pd[0])


def _same_up_to_inversion(ps, pd):
    return _same(ps[0], pd[0]) or _same(1.0 / ps[0], pd[0])


def _cone_condition(ps, pd):
    """lam = a·mu + b·nu with a, b >= 0, solved by Cramer's rule (the domain
    keeps mu and nu independent over the reals)."""
    (lam,), (mu, nu) = ps, pd
    det = mu.real * nu.imag - nu.real * mu.imag
    a = (lam.real * nu.imag - nu.real * lam.imag) / det
    b = (mu.real * lam.imag - lam.real * mu.imag) / det
    return a >= -1e-9 and b >= -1e-9


def _phase_condition(ps, pd):
    return (ps[0] * pd[0].conjugate()).imag >= -1e-9


# parameter domain of a family: membership test, canonical member of an
# instance's class (None: the parameters themselves), sample point
_DOMAINS = {
    None: (None, None, ()),
    "H": (_h_family_domain, _h_canon, (2.0 + 0j,)),
    "unit": (_unimodular, None, (1.0 + 0j,)),
    "unit±": (_unimodular, _pm_canon, (1.0 + 0j,)),
    "unit pair": (_mu_nu_domain, _mu_nu_canon, (1.0 + 0j, 1j)),
    "disc": (lambda p: 1e-9 < abs(p[0]) < 1 - 1e-9, None, (0.5 + 0j,)),
}

# --- the graphs, as row tables ----------------------------------------------
# family row: id, label, blocks, parameter domain, then its dimension in each
# graph kind; arrow row: src, dst, and for a conditional arrow the predicate
# (src params, dst params) -> bool and its text

_CONGRUENCE_FAMILIES = {
    2: (
        ("zero2", "0₂", (("N", 1), ("N", 1)), None, 0, 0),
        ("h_minus1", "[[0,1],[-1,0]]", (("H", 2, -1.0),), None, 1, 1),
        ("diag_1_0", "diag(1,0)", (("Gamma", 1), ("N", 1)), None, 2, 2),
        ("gamma2", "[[0,-1],[1,1]]", (("Gamma", 2),), None, 3, 3),
        ("diag_1_1", "diag(1,1)", (("Gamma", 1), ("Gamma", 1)), None, 3, 3),
        ("h_lambda", "[[0,1],[λ,0]]", (("H", 2, "λ"),), "H", 3, 4),
    ),
    3: (
        ("zero3", "0₃", (("N", 1),) * 3, None, 0, 0),
        ("h_minus1_n1", "[[0,1],[-1,0]]⊕0", (("H", 2, -1.0), ("N", 1)), None, 3, 3),
        ("diag_1_0_0", "diag(1,0,0)", (("Gamma", 1), ("N", 1), ("N", 1)), None, 3, 3),
        ("h_lambda_n1", "[[0,1],[λ,0]]⊕0", (("H", 2, "λ"), ("N", 1)), "H", 5, 6),
        ("gamma2_n1", "[[0,-1],[1,1]]⊕0", (("Gamma", 2), ("N", 1)), None, 5, 5),
        ("diag_1_1_0", "diag(1,1,0)", (("Gamma", 1), ("Gamma", 1), ("N", 1)), None, 5, 5),
        ("h_minus1_gamma1", "[[0,1],[-1,0]]⊕1", (("H", 2, -1.0), ("Gamma", 1)), None, 6, 6),
        ("diag_1_1_1", "diag(1,1,1)", (("Gamma", 1),) * 3, None, 6, 6),
        ("n3", "N₃", (("N", 3),), None, 7, 7),
        ("h_mu_gamma1", "[[0,1],[μ,0]]⊕1", (("H", 2, "μ"), ("Gamma", 1)), "H", 8, 9),
        ("gamma2_gamma1", "[[0,-1],[1,1]]⊕1", (("Gamma", 2), ("Gamma", 1)), None, 8, 8),
        ("gamma3", "Γ₃", (("Gamma", 3),), None, 8, 8),
    ),
}

# arrows of both graphs, then those of the class graph only, then those of
# the bundle graph only
_CONGRUENCE_ARROWS = {
    2: (
        [
            ("zero2", "h_minus1"), ("zero2", "diag_1_0"), ("diag_1_0", "gamma2"),
            ("diag_1_0", "diag_1_1"), ("h_minus1", "gamma2"),
        ],
        [("diag_1_0", "h_lambda")],
        [("gamma2", "h_lambda"), ("diag_1_1", "h_lambda")],
    ),
    3: (
        [
            ("zero3", "h_minus1_n1"), ("zero3", "diag_1_0_0"),
            ("h_minus1_n1", "gamma2_n1"),
            ("diag_1_0_0", "gamma2_n1"),
            ("diag_1_0_0", "diag_1_1_0"),
            ("gamma2_n1", "h_minus1_gamma1"),
            ("h_lambda_n1", "n3"),
            ("diag_1_1_0", "diag_1_1_1"),
            ("h_minus1_gamma1", "gamma2_gamma1"), ("diag_1_1_1", "gamma3"),
            ("n3", "gamma2_gamma1"), ("n3", "gamma3"),
        ],
        [
            ("diag_1_0_0", "h_lambda_n1"),
            ("gamma2_n1", "n3"), ("diag_1_1_0", "n3"), ("n3", "h_mu_gamma1"),
            # the parameter of the nonsingular part persists in the closure:
            # the degenerate lam-family sits below the mu-family only for the
            # matching parameter (up to inversion)
            ("h_lambda_n1", "h_mu_gamma1", _same_up_to_inversion, "same λ up to inversion"),
        ],
        [
            ("gamma2_n1", "h_lambda_n1"), ("diag_1_1_0", "h_lambda_n1"),
            ("gamma2_gamma1", "h_mu_gamma1"), ("gamma3", "h_mu_gamma1"),
        ],
    ),
}

# the 2x2 *congruence class graph (real dimensions)
_STAR_FAMILIES = (
    ("zero", "0₂", (("N", 1), ("N", 1)), None, 0),
    ("diag_l_0", "diag(λ,0)", (("U", 1, "λ"), ("N", 1)), "unit", 3),
    ("diag_l_l", "diag(λ,λ)", (("U", 1, "λ"), ("U", 1, "λ")), "unit", 4),
    ("diag_l_minus_l", "diag(λ,-λ)", (("U", 1, "λ"), ("U", 1, "-λ")), "unit±", 4),
    ("diag_mu_nu", "diag(μ,ν)", (("U", 1, "μ"), ("U", 1, "ν")), "unit pair", 6),
    ("h_sigma", "[[0,1],[σ,0]]", (("H*", 2, "σ"),), "disc", 6),
    ("u_tau", "τ·[[0,1],[1,i]]", (("U", 2, "τ"),), "unit", 6),
)

_STAR_ARROWS = (
    ("zero", "diag_l_0"),
    ("zero", "diag_mu_nu"),
    ("zero", "u_tau"),
    ("diag_l_0", "diag_l_l", lambda ps, pd: _same(ps[0], pd[0]), "same λ"),
    ("diag_l_0", "diag_l_minus_l", _same_up_to_sign, "same λ"),
    ("diag_l_0", "h_sigma"),
    ("diag_l_0", "diag_mu_nu", _cone_condition, "λ ∈ μℝ₊+νℝ₊"),
    ("diag_l_0", "u_tau", _phase_condition, "Im(λτ̄) ≥ 0"),
    ("diag_l_minus_l", "u_tau", _same_up_to_sign, "τ = ±λ"),
)


def _parametric_graph(kind: str, column: int, family_rows, arrow_rows) -> ParametricGraph:
    """A parametric graph from its row tables, each family's dimension taken
    from dimension ``column`` of its row."""
    families = tuple(
        Family(fid, label, dims[column], blocks, *_DOMAINS[domain])
        for fid, label, blocks, domain, *dims in family_rows
    )
    return ParametricGraph(kind, families, tuple(Arrow(*a) for a in arrow_rows))


@lru_cache(maxsize=None)
def congruence_graph(n: int, kind: str = "classes") -> ParametricGraph:
    """Closure graph for congruence classes or bundles of 2x2/3x3 matrices."""
    if kind not in ("classes", "bundles"):
        raise ValueError("kind must be 'classes' or 'bundles'")
    if n not in _CONGRUENCE_FAMILIES:
        raise CatalogError(f"congruence closure graphs cover sizes 2 and 3, not {n}")
    column = ("classes", "bundles").index(kind)
    shared, *own = _CONGRUENCE_ARROWS[n]
    return _parametric_graph(kind, column, _CONGRUENCE_FAMILIES[n], shared + own[column])


@lru_cache(maxsize=None)
def star_graph_2x2() -> ParametricGraph:
    """Closure graph for *congruence classes of 2x2 matrices (real dims)."""
    return _parametric_graph("star_classes", 0, _STAR_FAMILIES, _STAR_ARROWS)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def graph_to_json_doc(g: ClosureGraph) -> dict:
    return {
        "kind": g.kind,
        "vertices": [
            {"id": v.id, "notation": v.notation, "dim": v.dim} for v in g.vertices
        ],
        "edges": [list(e) for e in g.edges],
    }


def graph_to_dot(g: ClosureGraph) -> str:
    return dot_text(
        [(v.id, v.notation, v.dim) for v in g.vertices], [(a, b, "") for a, b in g.edges]
    )


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
    return dot_text(
        [(f.fid, f.label, f.dim) for f in sorted(g.families, key=lambda f: (f.dim, f.fid))],
        [(a.src, a.dst, a.condition) for a in sorted(g.arrows, key=lambda a: (a.src, a.dst))],
    )


def dot_text(nodes, edges) -> str:
    """DOT text for any closure graph: nodes are (id, label, dim) and edges
    (src, dst, condition), a non-empty condition becoming the edge label."""
    lines = ["digraph strata {"]
    lines += [f'  "{vid}" [label="{label} (dim {dim})"];' for vid, label, dim in nodes]
    for a, b, condition in edges:
        attr = f' [label="{condition}"]' if condition else ""
        lines.append(f'  "{a}" -> "{b}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
