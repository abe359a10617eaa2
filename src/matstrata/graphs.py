"""Closure order on Jordan structures and Hasse-diagram construction.

A structure J lies below J2 when every matrix similar to J is a limit of
matrices similar to J2; the test is the prefix-sum inequality between the
block-count (conjugate) sequences, one eigenvalue at a time.  Graphs are
built for fixed eigenvalue patterns (classes) and for structures modulo
eigenvalue renaming (bundles, which also allow eigenvalues to merge).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import SizeMismatchError
from .structure import (
    BundleType,
    EigLabel,
    JordanType,
    Partition,
    bundle_dim,
    bundle_types,
    canonical_bundle_labeling,
    format_compact,
    format_display,
    jordan_types_for_pattern,
    orbit_dim,
    partitions,
    weyr_of,
)

DEFAULT_MAX_N = 8


def _prefix_dominates(w_lo: tuple[int, ...], w_hi: tuple[int, ...]) -> bool:
    """Every prefix sum of w_lo is >= the matching prefix sum of w_hi."""
    k = max(len(w_lo), len(w_hi))
    s_lo = s_hi = 0
    for j in range(k):
        s_lo += w_lo[j] if j < len(w_lo) else 0
        s_hi += w_hi[j] if j < len(w_hi) else 0
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

    Requires the same eigenvalue labels with the same total multiplicity,
    then per-label prefix-sum dominance of the block-count sequences.
    Reflexive (a structure reaches itself by the empty perturbation).
    """
    if J.n != J2.n:
        raise SizeMismatchError(f"orders differ: {J.n} vs {J2.n}")
    if set(J.labels) != set(J2.labels):
        return False
    for label in J.labels:
        p, p2 = J.partition_of(label), J2.partition_of(label)
        if p.total != p2.total:
            return False
        if not _prefix_dominates(weyr_of(J, label), weyr_of(J2, label)):
            return False
    return True


def _bundle_leq_same_labels(a: JordanType, b: JordanType) -> bool:
    """Exists an eigenvalue bijection under which closure_leq(a, b) holds."""
    a_parts = [p for _, p in a.entries]
    b_parts = [p for _, p in b.entries]
    if len(a_parts) != len(b_parts):
        return False
    if sorted(p.total for p in a_parts) != sorted(p.total for p in b_parts):
        return False
    # bipartite matching: a_i may pair with b_j when totals agree and
    # dominance holds
    k = len(a_parts)
    allowed = [
        [
            j
            for j in range(k)
            if a_parts[i].total == b_parts[j].total
            and partition_closure_leq(a_parts[i], b_parts[j])
        ]
        for i in range(k)
    ]
    match_of_b = [None] * k

    def augment(i, seen):
        for j in allowed[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_of_b[j] is None or augment(match_of_b[j], seen):
                match_of_b[j] = i
                return True
        return False

    return all(augment(i, set()) for i in range(k))


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphVertex:
    id: str
    notation: str
    dim: int
    structure: JordanType


@dataclass(frozen=True)
class ClosureGraph:
    """Hasse diagram of a closure order.

    Edge (a, b) means stratum a lies in the closure of stratum b; every
    edge strictly increases the dimension annotation.
    """

    kind: str
    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def _by_key(self) -> dict[str, GraphVertex]:
        # a key names the first vertex whose id or notation it equals
        by_key: dict[str, GraphVertex] = {}
        for v in self.vertices:
            by_key.setdefault(v.id, v)
            by_key.setdefault(v.notation, v)
        return by_key

    @cached_property
    def _successors(self) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {}
        for a, b in self.edges:
            succ.setdefault(a, []).append(b)
        return succ

    def vertex(self, key) -> GraphVertex:
        try:
            return self._by_key[_vertex_key(key)]
        except KeyError:
            raise KeyError(f"no vertex {key!r} in graph") from None

    def successors(self, vid: str) -> list[str]:
        return list(self._successors.get(vid, ()))


def _vertex_key(key) -> str:
    if isinstance(key, JordanType):
        return format_compact(key)
    return str(key)


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
    below j lies at or below some vertex of ``steps[j]`` (``below[j]``
    itself always qualifies; the down-moves of a bundle are smaller).  Then
    j covers exactly the vertices of ``below[j]`` that lie strictly below no
    vertex of ``steps[j]``: one OR per step, no scan over all triples.
    """
    edges = []
    for j, (down, step) in enumerate(zip(below, steps)):
        under = 0
        for m in _bits(step):
            under |= below[m]
        edges.extend((i, j) for i in _bits(down & ~under))
    return edges


def _strict_below(structs, leq) -> list[int]:
    """Strict down-set bitsets of the order ``leq`` on ``structs``.

    ``below[j]`` has bit i set when ``leq(structs[i], structs[j])`` holds
    for i != j, from k^2 ``leq`` calls.  Two structures below each other
    make the relation no order, which raises.
    """
    below = [0] * len(structs)
    for j, b in enumerate(structs):
        for i, a in enumerate(structs):
            if i != j and leq(a, b):
                below[j] |= 1 << i
    for j, down in enumerate(below):
        if any(below[i] >> j & 1 for i in _bits(down)):
            raise ValueError("closure relation is not antisymmetric")
    return below


def _sorted_vertices(structs, dim_of) -> list[GraphVertex]:
    verts = [
        GraphVertex(format_compact(s), format_display(s), dim_of(s), s) for s in structs
    ]
    verts.sort(key=lambda v: (v.dim, v.notation))
    return verts


def _assemble(kind, verts, below, steps) -> ClosureGraph:
    edges = [(verts[i].id, verts[j].id) for i, j in _hasse_edges(below, steps)]
    edges.sort()
    return ClosureGraph(kind=kind, vertices=tuple(verts), edges=tuple(edges))


def build_class_graph(
    n: int,
    pattern: tuple[int, ...] | None = None,
    nilpotent: bool = False,
    max_n: int = DEFAULT_MAX_N,
) -> ClosureGraph:
    """Closure graph for similarity classes of n x n matrices.

    ``nilpotent`` restricts to the single concrete eigenvalue 0;
    ``pattern`` fixes symbolic labels with the given multiplicities;
    with neither, all structures appear once modulo eigenvalue renaming.
    """
    if not 1 <= n <= max_n:
        raise ValueError(f"order {n} outside supported range 1..{max_n}")
    if nilpotent:
        zero = EigLabel.concrete(0)
        structs = [JordanType({zero: p}) for p in partitions(n)]
        leq = closure_leq
    elif pattern is not None:
        if sum(pattern) != n:
            raise ValueError(f"pattern {pattern} does not sum to {n}")
        structs = list(jordan_types_for_pattern(tuple(pattern)))
        leq = closure_leq
    else:
        structs = list(bundle_types(n))
        leq = _bundle_leq_same_labels
    verts = _sorted_vertices(structs, orbit_dim)
    below = _strict_below([v.structure for v in verts], leq)
    return _assemble("classes", verts, below, below)


def bundle_down_moves(b: JordanType) -> list[BundleType]:
    """Bundles one degeneration step below ``b``.

    Either one eigenvalue's partition coarsens (strictly lower in the
    single-eigenvalue closure order) or two eigenvalues merge, the merged
    block sizes being the part-wise sum of the two sorted size lists.
    """
    out = set()
    entries = list(b.entries)
    for i, (label, p) in enumerate(entries):
        for q in partitions(p.total):
            if q != p and partition_closure_leq(q, p):
                moved = entries[:i] + [(label, q)] + entries[i + 1 :]
                out.add(canonical_bundle_labeling(JordanType(moved)))
    for i, j in itertools.combinations(range(len(entries)), 2):
        pi, pj = entries[i][1].parts, entries[j][1].parts
        k = max(len(pi), len(pj))
        merged = Partition(
            tuple(
                (pi[m] if m < len(pi) else 0) + (pj[m] if m < len(pj) else 0)
                for m in range(k)
            )
        )
        rest = [e for m, e in enumerate(entries) if m not in (i, j)]
        moved = rest + [(EigLabel.symbolic(99), merged)]
        out.add(canonical_bundle_labeling(JordanType(moved)))
    return sorted(out, key=format_compact)


def build_bundle_graph(n: int, max_n: int = DEFAULT_MAX_N) -> ClosureGraph:
    """Closure graph for similarity bundles of n x n matrices.

    One pass over the bundles in ``(bundle_dim, notation)`` order, calling
    ``bundle_down_moves`` once per bundle.  Every down-move strictly lowers
    the bundle dimension, so the moves of vertex j point to lower indices
    (checked, not assumed) whose strict down-sets are already known, and
    ``below[j]`` is the OR over moves d of ``bit d | below[d]``, a
    Python-int bitset.  Anything below j lies at or below one of its moves,
    so the moves generate ``below[j]`` and ``_hasse_edges`` reads the
    covers of j off them directly.
    """
    if not 1 <= n <= max_n:
        raise ValueError(f"order {n} outside supported range 1..{max_n}")
    verts = _sorted_vertices(bundle_types(n), bundle_dim)
    index = {v.structure: i for i, v in enumerate(verts)}
    below, moves = [], []
    for j, v in enumerate(verts):
        step = 0
        for d in bundle_down_moves(v.structure):
            i = index[d]
            if i >= j:
                raise RuntimeError(
                    f"down-move {format_compact(d)} of {v.id} does not come "
                    "earlier in the bundle-dimension order"
                )
            step |= 1 << i
        down = step
        for i in _bits(step):
            down |= below[i]
        below.append(down)
        moves.append(step)
    return _assemble("bundles", verts, below, moves)


def reachable(g: ClosureGraph, a, b) -> bool:
    """Directed path (possibly empty) from vertex a to vertex b."""
    src, dst = g.vertex(a).id, g.vertex(b).id
    stack, seen = [src], {src}
    while stack:
        cur = stack.pop()
        if cur == dst:
            return True
        for nxt in g.successors(cur):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


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
