"""The move-driven graph engine against the references it replaced.

The references below are written out here from the engines that came
before the tuple-key one: a bipartite-matching closure test for classes
modulo eigenvalue renaming, JordanType-level down-moves, the enumeration
of bundles as BundleTypes, a DFS for reachability, and the pairwise
``closure_leq`` scan with its Hasse reduction that built the nilpotent and
fixed-pattern class graphs.
"""

import itertools

import pytest

from matstrata import (
    BundleType,
    EigLabel,
    JordanType,
    Partition,
    build_bundle_graph,
    build_class_graph,
    bundle_down_moves,
    bundle_types,
    canonical_bundle_labeling,
    closure_leq,
    format_compact,
    format_display,
    graphs,
    orbit_codim,
    orbit_dim,
    partitions,
    reachable,
    structure,
    weyr_of,
)
from matstrata.graphs import ClosureGraph, GraphVertex, partition_closure_leq
from matstrata.structure import jordan_types_for_pattern


def reference_bundle_leq(a, b) -> bool:
    """Some eigenvalue bijection pairs each partition of a with one of b of
    the same total that dominates it (augmenting-path matching)."""
    a_parts = [p for _, p in a.entries]
    b_parts = [p for _, p in b.entries]
    if len(a_parts) != len(b_parts):
        return False
    if sorted(p.total for p in a_parts) != sorted(p.total for p in b_parts):
        return False
    k = len(a_parts)
    allowed = [
        [j for j in range(k) if partition_closure_leq(a_parts[i], b_parts[j])]
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


def reference_down_moves(b):
    """Bundle down-moves built from JordanTypes and canonical relabeling."""
    out = set()
    entries = list(b.entries)
    for i, (label, p) in enumerate(entries):
        for q in partitions(p.total):
            if q != p and partition_closure_leq(q, p):
                moved = entries[:i] + [(label, q)] + entries[i + 1 :]
                out.add(canonical_bundle_labeling(JordanType(moved)))
    for i, j in itertools.combinations(range(len(entries)), 2):
        pi, pj = entries[i][1].parts, entries[j][1].parts
        merged = Partition(tuple(map(sum, itertools.zip_longest(pi, pj, fillvalue=0))))
        rest = [e for m, e in enumerate(entries) if m not in (i, j)]
        out.add(canonical_bundle_labeling(JordanType(rest + [(EigLabel.symbolic(99), merged)])))
    return sorted(out, key=format_compact)


def order_key(p):
    return (-p.total,) + tuple(-x for x in p.parts)


def reference_bundle_types(n):
    """Every multiset of partitions of total n as a BundleType, sorted."""
    universe = sorted((p for m in range(1, n + 1) for p in partitions(m)), key=order_key)

    def gen(remaining, start):
        if remaining == 0:
            yield ()
            return
        for idx in range(start, len(universe)):
            p = universe[idx]
            if p.total <= remaining:
                for rest in gen(remaining - p.total, idx):
                    yield (p,) + rest

    out = {
        BundleType(tuple((EigLabel.symbolic(i + 1), p) for i, p in enumerate(combo)))
        for combo in gen(n, 0)
    }
    return sorted(out, key=lambda b: tuple(order_key(p) for _, p in b.entries))


def dfs_reachable(g, a, b) -> bool:
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


def reference_scan_graph(structs):
    """Class graph from ``closure_leq`` on every ordered pair of vertices:
    j covers i when i lies strictly below j and below no vertex that lies
    strictly below j."""
    verts = [GraphVertex(format_compact(s), format_display(s), orbit_dim(s), s) for s in structs]
    verts.sort(key=lambda v: (v.dim, v.notation))
    below = [
        {i for i, a in enumerate(verts) if a is not b and closure_leq(a.structure, b.structure)}
        for b in verts
    ]
    edges = sorted(
        (verts[i].id, verts[j].id)
        for j, down in enumerate(below)
        for i in down
        if not any(i in below[m] for m in down)
    )
    return ClosureGraph("classes", tuple(verts), tuple(edges))


def compositions(n):
    """Every ordered tuple of positive integers summing to n."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        yield from ((first,) + rest for rest in compositions(n - first))


def key_of(b):
    return tuple(p.parts for _, p in b.entries)


@pytest.mark.parametrize("n", range(1, 10))
def test_bundle_types_match_reference_enumeration(n):
    got, want = bundle_types(n), reference_bundle_types(n)
    assert list(got) == want
    assert [repr(b) for b in got] == [repr(b) for b in want]
    assert all(type(b) is BundleType for b in got)


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_codim_matches_weyr_squares(n):
    for b in bundle_types(n):
        assert orbit_codim(b) == sum(sum(w * w for w in weyr_of(b, l)) for l in b.labels)


@pytest.mark.parametrize("n", range(1, 9))
def test_down_moves_match_reference_and_tuple_moves(n):
    for b in bundle_types(n):
        got = bundle_down_moves(b)
        assert got == reference_down_moves(b), b
        mapped = sorted(map(structure.bundle_of_key, graphs._key_moves(key_of(b), True)),
                        key=format_compact)
        assert got == mapped, b


@pytest.mark.parametrize("n", range(1, 8))
def test_key_moves_do_not_depend_on_the_key_order(n):
    # _key_moves takes any key, whatever the order of its eigenvalues
    for b in bundle_types(n):
        key = key_of(b)
        for merge in (False, True):
            want = sorted(graphs._key_moves(key, merge))
            for perm in set(itertools.permutations(key)):
                assert sorted(graphs._key_moves(perm, merge)) == want, (b, perm)


def test_down_moves_of_a_structure_with_concrete_labels():
    t = JordanType({EigLabel.concrete(0): Partition((2,)), EigLabel.concrete(1): Partition((2,))})
    assert bundle_down_moves(t) == reference_down_moves(t)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_order_modulo_renaming_equals_bipartite_matching(n):
    g = build_class_graph(n)
    for a, b in itertools.product(g.vertices, repeat=2):
        assert reachable(g, a.id, b.id) == reference_bundle_leq(a.structure, b.structure), (
            a.id, b.id,
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_nilpotent_graph_equals_pairwise_scan(n):
    zero = EigLabel.concrete(0)
    want = reference_scan_graph([JordanType({zero: p}) for p in partitions(n)])
    assert build_class_graph(n, nilpotent=True) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_fixed_pattern_graphs_equal_pairwise_scan(n):
    for pattern in compositions(n):
        want = reference_scan_graph(jordan_types_for_pattern(pattern))
        assert build_class_graph(n, pattern=pattern) == want, pattern


def _graphs_for_reachability():
    yield from (build_bundle_graph(n) for n in range(1, 7))
    yield from (build_class_graph(n, nilpotent=True) for n in range(1, 7))
    yield build_class_graph(5)
    yield build_class_graph(4, pattern=(2, 2))


def test_reachable_bit_test_equals_dfs():
    for g in _graphs_for_reachability():
        for a, b in itertools.product(g.vertices, repeat=2):
            assert reachable(g, a.id, b.id) == dfs_reachable(g, a.id, b.id), (g.kind, a, b)


def _hand_made(vertices, edges):
    verts = tuple(GraphVertex(vid, vid.upper(), dim, None) for vid, dim in vertices)
    return ClosureGraph("hand", verts, tuple(edges))


def test_reachable_on_a_hand_made_graph_out_of_dimension_order():
    # vertices listed against their dimension order, a diamond plus a tail
    g = _hand_made(
        [("top", 9), ("mid1", 5), ("bottom", 1), ("mid2", 6), ("tail", 3)],
        [("bottom", "mid1"), ("bottom", "mid2"), ("mid1", "top"), ("mid2", "top"),
         ("tail", "mid2")],
    )
    for a, b in itertools.product(g.vertices, repeat=2):
        assert reachable(g, a.id, b.id) == dfs_reachable(g, a.id, b.id), (a.id, b.id)
    assert reachable(g, "BOTTOM", "top") and not reachable(g, "tail", "mid1")
    with pytest.raises(KeyError):
        reachable(g, "nowhere", "top")


def test_hand_made_edge_that_keeps_the_dimension_is_refused():
    g = _hand_made([("a", 1), ("b", 1)], [("a", "b")])
    with pytest.raises(ValueError, match="does not raise the dimension"):
        reachable(g, "a", "b")


def test_graphs_build_without_jordan_type_moves_or_relabeling(monkeypatch):
    def refuse(*args):
        raise AssertionError("called while building a graph")

    graphs._coarsenings.cache_clear()
    monkeypatch.setattr(graphs, "bundle_down_moves", refuse)
    monkeypatch.setattr(structure, "canonical_bundle_labeling", refuse)
    assert len(graphs.build_bundle_graph(8).vertices) == 223
    assert len(graphs.build_class_graph(8).vertices) == 223
