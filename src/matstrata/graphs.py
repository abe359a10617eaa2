"""Closure graphs under similarity; no numpy.

A structure J lies below J2 when every matrix similar to J is a limit of
matrices similar to J2; the test is partition dominance, one eigenvalue at
a time.  Similarity graphs are built for the nilpotent chain, for fixed
eigenvalue patterns (classes) and modulo eigenvalue renaming (classes, and
bundles, which also let eigenvalues merge), all four by one pass over
down-moves on plain block-size keys.  The parametric congruence and
*congruence graphs live in ``parametric``; ``dot_text`` here writes both
kinds as DOT.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from ._value import Value
from .errors import SizeMismatchError
from .structure import (
    MAX_MATRIX_N,
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
)


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
    id: str
    notation: str
    dim: int
    structure: JordanType


class ClosureGraph(Value):
    """Hasse diagram of a closure order.

    Edge (a, b) means stratum a lies in the closure of stratum b; every
    edge strictly increases the dimension annotation.
    """

    kind: str
    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[str, str], ...]

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
        return _down_sets(preds, sorted(range(len(preds)), key=lambda j: self.vertices[j].dim))

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


def _down_sets(preds: list[list[int]], order) -> list[int]:
    """Strict down-set of each vertex as a Python-int bitset over vertex
    indices, bit i of ``below[j]`` set when vertex i lies strictly below
    vertex j.  ``preds[j]`` lists vertices below j that generate its down-set
    (every vertex below j lies at or below one of them), and ``order`` visits
    each vertex after its ``preds``, so ``below[j]`` is the OR over them of
    ``bit i | below[i]``."""
    below = [0] * len(preds)
    for j in order:
        for i in preds[j]:
            below[j] |= 1 << i | below[i]
    return below


def _hasse_edges(below: list[int], preds: list[list[int]]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) with vertex i strictly below vertex j, from the
    down-sets and generators of ``_down_sets``: j covers exactly the vertices
    of ``below[j]`` that lie strictly below none of ``preds[j]``, one OR per
    generator, no scan over all triples.
    """
    edges = []
    for j, (down, pred) in enumerate(zip(below, preds)):
        under = 0
        for m in pred:
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
    if type(n) is not int or not 1 <= n <= MAX_MATRIX_N:
        raise ValueError(f"order {n} outside supported range 1..{MAX_MATRIX_N}")
    if nilpotent and pattern is not None:
        raise ValueError("a nilpotent class graph takes no eigenvalue pattern")
    if nilpotent:
        zero = EigLabel.concrete(0)
        structs = [JordanType({zero: p}) for p in partitions(n)]
    elif pattern is not None:
        pattern = tuple(pattern)
        if not all(type(m) is int and m >= 1 for m in pattern):
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
        out.update(bundle_key(rest + (q,)) for q in _coarsenings(p))
        for j in range(i + 1, len(key)) if merge else ():
            merged = tuple(map(sum, itertools.zip_longest(p, key[j], fillvalue=0)))
            out.add(bundle_key(key[:i] + key[i + 1 : j] + key[j + 1 :] + (merged,)))
    return tuple(out)


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
    vertices (checked); they generate its down-set, so ``_down_sets`` and
    ``_hasse_edges`` read the order and its covers off them."""
    verts = [GraphVertex(format_compact(s), format_display(s), dim_of(s), s) for s in structs]
    verts.sort(key=lambda v: (v.dim, v.notation))
    index = {tuple(p.parts for _, p in v.structure.entries): j for j, v in enumerate(verts)}
    preds = [[index[d] for d in moves(key)] for key in index]
    for j, pred in enumerate(preds):
        for i in pred:
            if i >= j:
                raise RuntimeError(
                    f"down-move {verts[i].id} of {verts[j].id} does not come earlier "
                    f"in the {dim_of.__name__.removesuffix('_dim')}-dimension order"
                )
    below = _down_sets(preds, range(len(preds)))
    edges = sorted((verts[i].id, verts[j].id) for i, j in _hasse_edges(below, preds))
    return ClosureGraph(kind=kind, vertices=tuple(verts), edges=tuple(edges))


def build_bundle_graph(n: int) -> ClosureGraph:
    """Closure graph for similarity bundles of n x n matrices."""
    if type(n) is not int or not 1 <= n <= MAX_MATRIX_N:
        raise ValueError(f"order {n} outside supported range 1..{MAX_MATRIX_N}")
    return _move_graph("bundles", bundle_types(n), bundle_dim, lambda k: _key_moves(k, True))


def reachable(g: ClosureGraph, a, b) -> bool:
    """Directed path (possibly empty) from vertex a to vertex b: one bit
    test in b's strict down-set."""
    i, j = g._index(a), g._index(b)
    return i == j or bool(g._below[j] >> i & 1)


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
