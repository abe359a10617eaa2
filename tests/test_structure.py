import numpy as np
import pytest

from matstrata import (
    BundleType,
    CompactParseError,
    EigLabel,
    JordanType,
    Partition,
    bundle_dim,
    bundle_types,
    canonical_bundle_labeling,
    conjugate_partition,
    format_compact,
    format_display,
    jordan_matrix,
    orbit_codim,
    orbit_dim,
    parse_compact,
    partitions,
    structure,
    weyr_of,
)

sym = EigLabel.symbolic
conc = EigLabel.concrete


def jt(d):
    return JordanType({k: Partition(v) for k, v in d.items()})


class TestPartition:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Partition(())

    def test_total(self):
        assert Partition((3, 1)).total == 4

    @pytest.mark.parametrize("parts", [(2.7, 1), ("3",), (2.0,), (1j,)])
    def test_rejects_parts_that_are_not_integers(self, parts):
        with pytest.raises(TypeError):
            Partition(parts)

    def test_rejects_non_integer_parts_inside_a_structure(self):
        with pytest.raises(TypeError):
            JordanType({conc(0): (2.5, 1.2)})

    def test_integer_parts_become_ints(self):
        p = Partition((np.int64(3), True))
        assert p.parts == (3, 1) and all(type(x) is int for x in p.parts)
        assert p == Partition((3, 1)) and hash(p) == hash(Partition((3, 1)))


class TestConjugate:
    @pytest.mark.parametrize(
        "p,expect",
        [((3, 1), (2, 1, 1)), ((5,), (1, 1, 1, 1, 1)), ((2, 2), (2, 2))],
    )
    def test_examples(self, p, expect):
        assert conjugate_partition(Partition(p)).parts == expect

    def test_involution_exhaustive(self):
        for n in range(1, 13):
            for p in partitions(n):
                assert conjugate_partition(conjugate_partition(p)) == p


def _partitions_by_compositions(n):
    """Every partition of n, each once: the compositions of n (one per
    subset of the n - 1 cut points) with their parts sorted descending."""
    out = set()
    for cuts in range(1 << (n - 1)):
        parts, run = [], 1
        for k in range(n - 1):
            if cuts >> k & 1:
                parts.append(run)
                run = 0
            run += 1
        out.add(tuple(sorted(parts + [run], reverse=True)))
    return out


PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
BUNDLE_COUNTS = [1, 3, 6, 14, 27, 58, 111, 223, 424, 817, 1527, 2870]  # OEIS A001970


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_partitions_match_compositions(self, n):
        got = [p.parts for p in partitions(n)]
        assert got == sorted(_partitions_by_compositions(n), reverse=True)
        assert len(got) == PARTITION_COUNTS[n - 1]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bundle_types_count_and_order(self, n):
        keys = [tuple(p.parts for _, p in b.entries) for b in bundle_types(n)]
        assert len(keys) == BUNDLE_COUNTS[n - 1]
        assert all(structure.bundle_key(k) == k for k in keys)
        order = [tuple(map(structure._partition_order_key, k)) for k in keys]
        assert all(a < b for a, b in zip(order, order[1:]))


class TestWeyr:
    # block-count sequences for the five nilpotent 4x4 structures
    @pytest.mark.parametrize(
        "parts,weyr",
        [
            ((1, 1, 1, 1), (4,)),
            ((2, 1, 1), (3, 1)),
            ((2, 2), (2, 2)),
            ((3, 1), (2, 1, 1)),
            ((4,), (1, 1, 1, 1)),
        ],
    )
    def test_nilpotent_4x4_table(self, parts, weyr):
        t = jt({conc(0): parts})
        assert weyr_of(t, conc(0)) == weyr

    def test_absent_label(self):
        t = jt({sym(1): (2,)})
        assert weyr_of(t, sym(2)) == ()


class TestCompactNotation:
    def test_parse_merges_tokens(self):
        t = parse_compact("a^2 a b")
        assert t.partition_of(sym(1)).parts == (2, 1)
        assert t.partition_of(sym(2)).parts == (1,)

    def test_parse_single(self):
        assert parse_compact("a").n == 1

    def test_parse_repeated_exponents(self):
        t = parse_compact("a^3 a^3")
        assert t.partition_of(sym(1)).parts == (3, 3)

    def test_concrete_labels(self):
        t = parse_compact("(0)^3 (2+1j)")
        assert t.n == 4
        assert t.partition_of(conc(2 + 1j)).parts == (1,)

    def test_error_position_bad_char(self):
        with pytest.raises(CompactParseError) as err:
            parse_compact("a^2 ?")
        assert err.value.position == 4

    def test_error_bad_exponent(self):
        with pytest.raises(CompactParseError):
            parse_compact("a^0")
        with pytest.raises(CompactParseError):
            parse_compact("a^")

    @pytest.mark.parametrize("text", ["a^-", "(0)^-", "a^-x"])
    def test_error_bare_minus_exponent(self, text):
        with pytest.raises(CompactParseError, match=r"missing exponent after '\^'") as err:
            parse_compact(text)
        assert err.value.position == text.index("^") + 1  # 2 for "a^-"

    def test_error_unterminated_literal(self):
        with pytest.raises(CompactParseError):
            parse_compact("(2+1j")

    def test_round_trip_symbolic_up_to_order_6(self):
        for n in range(1, 7):
            for b in bundle_types(n):
                text = format_compact(b)
                assert format_compact(parse_compact(text)) == text

    def test_round_trip_concrete(self):
        t = jt({conc(0): (3, 2), conc(1.5 - 2j): (1,)})
        assert parse_compact(format_compact(t)) == t

    def test_display(self):
        assert format_display(parse_compact("a^2 a b")) == "λ²λμ"
        assert format_display(parse_compact("(0)^2 (0) (0)")) == "0²00"


class TestDimensions:
    def test_worked_codim_example(self):
        assert orbit_codim(jt({sym(1): (2, 1), sym(2): (1,)})) == 6

    def test_zero_matrix_class_is_a_point(self):
        assert orbit_codim(jt({sym(1): (1, 1, 1, 1)})) == 16

    def test_single_large_block_6x6(self):
        assert orbit_codim(jt({conc(0): (6,)})) == 6

    def test_orbit_dim_examples(self):
        assert orbit_dim(jt({sym(1): (4,)})) == 12
        assert orbit_dim(jt({conc(0): (3, 3)})) == 24
        assert orbit_dim(jt({sym(1): (1,)})) == 0

    def test_bundle_dims_4x4(self):
        assert bundle_dim(canonical_bundle_labeling(jt({sym(1): (4,)}))) == 13
        assert bundle_dim(canonical_bundle_labeling(jt({sym(1): (1, 1, 1, 1)}))) == 1
        four = jt({sym(i): (1,) for i in range(1, 5)})
        assert bundle_dim(canonical_bundle_labeling(four)) == 16

    def test_bundle_minus_orbit_counts_labels(self):
        for n in range(1, 7):
            for b in bundle_types(n):
                assert bundle_dim(b) - orbit_dim(b) == len(b.labels)


class TestBundleLabeling:
    def test_relabeling_collapses(self):
        a = jt({conc(5): (2,), conc(7): (1, 1)})
        b = jt({sym(1): (1, 1), sym(2): (2,)})
        assert canonical_bundle_labeling(a) == canonical_bundle_labeling(b)

    def test_swap_collapses(self):
        a = jt({sym(1): (3, 2), sym(2): (5,)})
        b = jt({sym(1): (5,), sym(2): (3, 2)})
        assert canonical_bundle_labeling(a) == canonical_bundle_labeling(b)

    def test_distinct_partitions_stay_distinct(self):
        a = jt({sym(1): (2, 1)})
        b = jt({sym(1): (3,)})
        assert canonical_bundle_labeling(a) != canonical_bundle_labeling(b)

    def test_idempotent(self):
        for b in bundle_types(5):
            assert canonical_bundle_labeling(b) == b

    def test_bundle_type_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            BundleType({sym(2): Partition((2,))})

    def test_count_4x4(self):
        assert len(bundle_types(4)) == 14

    def test_key_built_bundles_equal_checked_ones(self):
        # bundle_of_key skips the constructor's normalisation for a canonical key
        for n in range(1, 9):
            for b in bundle_types(n):
                checked = BundleType(b.entries)
                assert checked == b and checked.entries == b.entries and type(checked) is BundleType

    @pytest.mark.parametrize("key,message", [
        (((1,), (2,)), "not canonically numbered"),
        (((1, 1), (2,)), "not canonically numbered"),
        ((), "at least one eigenvalue"),
        (((1, 2),), "weakly decreasing"),
    ])
    def test_bundle_of_key_refuses_like_the_constructor(self, key, message):
        with pytest.raises(ValueError, match=message):
            structure.bundle_of_key(key)


class TestJordanMatrix:
    def test_layout(self):
        t = jt({conc(0): (2,), conc(3): (1,)})
        J = jordan_matrix(t)
        assert J[0, 1] == 1 and J[2, 2] == 3 and J[0, 0] == 0

    def test_symbolic_rejected(self):
        with pytest.raises(ValueError):
            jordan_matrix(jt({sym(1): (2,)}))
