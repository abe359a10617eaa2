import itertools
import json

import pytest

from matstrata import (
    EigLabel,
    JordanType,
    Partition,
    SizeMismatchError,
    build_bundle_graph,
    build_class_graph,
    bundle_down_moves,
    canonical_bundle_labeling,
    closure_leq,
    graph_to_dot,
    graph_to_json_doc,
    reachable,
)
from matstrata.structure import jordan_types_for_pattern

sym = EigLabel.symbolic
conc = EigLabel.concrete


def jt(d):
    return JordanType({k: Partition(v) for k, v in d.items()})


def nil(parts):
    return jt({conc(0): parts})


class TestClosureLeq:
    def test_nilpotent_chain_step(self):
        assert closure_leq(nil((2, 1, 1)), nil((2, 2)))

    def test_label_multiplicities_must_match(self):
        a = jt({sym(1): (3,), sym(2): (1,)})
        b = jt({sym(1): (2,), sym(2): (1, 1)})
        assert not closure_leq(a, b)

    def test_reflexive(self):
        t = jt({sym(1): (2, 1), sym(2): (1,)})
        assert closure_leq(t, t)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            closure_leq(nil((2,)), nil((2, 1)))

    def test_partial_order_exhaustive(self):
        from matstrata.structure import partitions

        for n in range(1, 7):
            for mults in partitions(n):
                structs = jordan_types_for_pattern(mults.parts)
                rel = {
                    (i, j): closure_leq(a, b)
                    for i, a in enumerate(structs)
                    for j, b in enumerate(structs)
                }
                for i, a in enumerate(structs):
                    assert rel[(i, i)]
                for (i, j), ij in rel.items():
                    if ij and rel[(j, i)]:
                        assert structs[i] == structs[j]
                for i, j, k in itertools.product(range(len(structs)), repeat=3):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]


class TestClassGraphs:
    def test_nilpotent_4x4_chain(self):
        g = build_class_graph(4, nilpotent=True)
        assert [v.notation for v in g.vertices] == ["0000", "0²00", "0²0²", "0³0", "0⁴"]
        assert len(g.edges) == 4
        ids = [v.id for v in g.vertices]
        assert list(g.edges) == sorted(zip(ids, ids[1:]))

    def test_nilpotent_6x6(self):
        g = build_class_graph(6, nilpotent=True)
        assert len(g.vertices) == 11
        assert len(g.edges) == 12
        assert sorted((v.dim for v in g.vertices), reverse=True) == [
            30, 28, 26, 24, 24, 22, 18, 18, 16, 10, 0,
        ]

    def test_quotient_4x4(self):
        g = build_class_graph(4)
        assert len(g.vertices) == 14
        assert len(g.edges) == 9
        assert sorted(set(v.dim for v in g.vertices)) == [0, 6, 8, 10, 12]

    def test_fixed_pattern(self):
        g = build_class_graph(3, pattern=(2, 1))
        assert [v.notation for v in g.vertices] == ["λλμ", "λ²μ"]
        assert len(g.edges) == 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            build_class_graph(13)
        with pytest.raises(ValueError):
            build_class_graph(4, pattern=(3,))

    @pytest.mark.parametrize("pattern", [(-1, 4), (0, 3), (1.5, 1.5), (3, 0), (True, 2)])
    def test_malformed_pattern_refused(self, pattern):
        with pytest.raises(ValueError, match="positive integer multiplicities"):
            build_class_graph(3, pattern=pattern)

    def test_nilpotent_with_pattern_refused(self):
        with pytest.raises(ValueError, match="takes no eigenvalue pattern"):
            build_class_graph(4, nilpotent=True, pattern=(2, 2))


class TestBundleMoves:
    def test_coalescence_example(self):
        src = canonical_bundle_labeling(jt({sym(1): (1, 1, 1), sym(2): (1,)}))
        target = canonical_bundle_labeling(jt({sym(1): (2, 1, 1)}))
        assert target in bundle_down_moves(src)

    def test_partwise_sum(self):
        src = canonical_bundle_labeling(jt({sym(1): (2,), sym(2): (2,)}))
        target = canonical_bundle_labeling(jt({sym(1): (4,)}))
        assert target in bundle_down_moves(src)

    def test_single_maximal_block_has_dominance_moves_only(self):
        src = canonical_bundle_labeling(jt({sym(1): (4,)}))
        moves = bundle_down_moves(src)
        assert all(len(m.labels) == 1 for m in moves)
        assert canonical_bundle_labeling(jt({sym(1): (3, 1)})) in moves


class TestBundleGraphs:
    def test_2x2(self):
        g = build_bundle_graph(2)
        assert [(v.notation, v.dim) for v in g.vertices] == [
            ("λλ", 1), ("λ²", 3), ("λμ", 4),
        ]
        nota = {v.id: v.notation for v in g.vertices}
        assert {(nota[a], nota[b]) for a, b in g.edges} == {
            ("λλ", "λ²"), ("λ²", "λμ"),
        }

    @pytest.mark.parametrize("n", [0, 13])
    def test_order_outside_range_refused(self, n):
        with pytest.raises(ValueError, match="outside supported range"):
            build_bundle_graph(n)

    @pytest.mark.parametrize("n", [True, 2.0, 3.0])
    def test_order_that_is_not_an_int_refused(self, n):
        for build in (build_bundle_graph, build_class_graph):
            with pytest.raises(ValueError, match="outside supported range"):
                build(n)

    def test_12x12_counts(self):
        g = build_bundle_graph(12)
        assert len(g.vertices) == 2870 and len(g.edges) == 15234

    @pytest.mark.parametrize("n", range(9, 13))
    def test_ids_and_notations_unique_past_order_eight(self, n):
        for g in (build_bundle_graph(n), build_class_graph(n), build_class_graph(n, nilpotent=True)):
            for name in ("id", "notation"):
                values = [getattr(v, name) for v in g.vertices]
                assert len(set(values)) == len(values), (n, g.kind, name)

    def test_1x1(self):
        g = build_bundle_graph(1)
        assert len(g.vertices) == 1 and not g.edges

    def test_4x4_counts(self):
        g = build_bundle_graph(4)
        assert len(g.vertices) == 14 and len(g.edges) == 20
        assert sorted((v.dim for v in g.vertices), reverse=True) == [
            16, 15, 14, 14, 13, 13, 12, 12, 11, 10, 9, 8, 7, 1,
        ]


def _graphs_under_test():
    return [
        build_class_graph(4, nilpotent=True),
        build_class_graph(6, nilpotent=True),
        build_class_graph(4),
        build_class_graph(4, pattern=(2, 2)),
        build_bundle_graph(3),
        build_bundle_graph(4),
        build_bundle_graph(5),
    ]


class TestGraphInvariants:
    def test_edges_increase_dimension(self):
        for g in _graphs_under_test():
            dim = {v.id: v.dim for v in g.vertices}
            for a, b in g.edges:
                assert dim[a] < dim[b], (g.kind, a, b)

    def test_hasse_no_composite_edges(self):
        for g in _graphs_under_test():
            succ = {v.id: set(g.successors(v.id)) for v in g.vertices}
            for a, b in g.edges:
                for m in succ[a]:
                    if m != b:
                        assert b not in _descendants(succ, m), (a, m, b)

    def test_acyclic(self):
        for g in _graphs_under_test():
            succ = {v.id: set(g.successors(v.id)) for v in g.vertices}
            for v in succ:
                assert v not in _descendants(succ, v)

    def test_single_label_bundles_match_class_graph(self):
        for n in (4, 5, 6):
            cls = build_class_graph(n, nilpotent=True)
            bun = build_bundle_graph(n)
            singles = {
                v.id: v.structure for v in bun.vertices if len(v.structure.labels) == 1
            }
            # partition-level vertex bijection
            cls_parts = {v.structure.entries[0][1] for v in cls.vertices}
            bun_parts = {s.entries[0][1] for s in singles.values()}
            assert cls_parts == bun_parts
            part_of = {vid: s.entries[0][1] for vid, s in singles.items()}
            bun_edges = {
                (part_of[a], part_of[b])
                for a, b in bun.edges
                if a in singles and b in singles
            }
            cls_edges = {
                (
                    cls.vertex(a).structure.entries[0][1],
                    cls.vertex(b).structure.entries[0][1],
                )
                for a, b in cls.edges
            }
            assert bun_edges == cls_edges

    def test_class_edges_map_to_bundle_paths(self):
        cls = build_class_graph(4)
        bun = build_bundle_graph(4)
        for a, b in cls.edges:
            sa = canonical_bundle_labeling(cls.vertex(a).structure)
            sb = canonical_bundle_labeling(cls.vertex(b).structure)
            assert reachable(bun, sa, sb)


def _descendants(succ, v):
    out, stack = set(), [v]
    while stack:
        cur = stack.pop()
        for nxt in succ[cur]:
            if nxt not in out:
                out.add(nxt)
                stack.append(nxt)
    return out


class TestReachable:
    def test_chain_end_to_end(self):
        g = build_class_graph(6, nilpotent=True)
        assert reachable(g, nil((1,) * 6), nil((6,)))

    def test_lazy_path(self):
        g = build_bundle_graph(4)
        v = canonical_bundle_labeling(jt({sym(1): (2, 2)}))
        assert reachable(g, v, v)

    def test_no_path_between_incomparable_bundles(self):
        g = build_bundle_graph(4)
        a = canonical_bundle_labeling(jt({sym(1): (3, 1)}))
        b = canonical_bundle_labeling(jt({sym(1): (1, 1, 1), sym(2): (1,)}))
        assert not reachable(g, a, b)
        assert not reachable(g, b, a)

    def test_unknown_vertex(self):
        g = build_bundle_graph(2)
        with pytest.raises(KeyError):
            reachable(g, "a^9", "a")


class TestSerialization:
    def test_json_round_trip_and_ordering(self):
        g = build_class_graph(4, nilpotent=True)
        doc = graph_to_json_doc(g)
        assert json.dumps(doc) == json.dumps(graph_to_json_doc(g))
        dims = [v["dim"] for v in doc["vertices"]]
        assert dims == sorted(dims)
        ids = {v["id"] for v in doc["vertices"]}
        assert all(a in ids and b in ids for a, b in doc["edges"])

    def test_dot_contains_vertices_and_edges(self):
        g = build_bundle_graph(2)
        dot = graph_to_dot(g)
        assert dot.startswith("digraph")
        assert '"a^2" -> "a b"' in dot
        assert "λμ (dim 4)" in dot
