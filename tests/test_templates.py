import itertools

import numpy as np
import pytest

from matstrata import (
    EigLabel,
    JordanType,
    Partition,
    SizeMismatchError,
    bundle_types,
    jordan_matrix,
    miniversal_template,
    orbit_codim,
    parse_compact,
    partitions,
    pattern_check,
    similarity_codim_numeric,
    star_count,
    template_ascii,
    template_to_json_doc,
)
from matstrata import templates
from matstrata.templates import FIXED, STAR, jordan_block, jordan_rows, pinned_cells
from conftest import label_layout

sym = EigLabel.symbolic
conc = EigLabel.concrete


def jt(d):
    return JordanType({k: Partition(v) for k, v in d.items()})


def star_set(tmpl):
    return {
        (i, j)
        for i in range(tmpl.n)
        for j in range(tmpl.n)
        if tmpl.kinds[i][j] == STAR
    }


class TestPatterns:
    def test_blocks_3_2(self):
        tmpl = miniversal_template(jt({conc(0): (3, 2)}))
        assert star_set(tmpl) == {
            (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
            (3, 0), (4, 0), (4, 3), (4, 4),
        }
        assert star_count(tmpl) == 9

    def test_two_labels_4x4(self):
        tmpl = miniversal_template(jt({sym(1): (2, 1), sym(2): (1,)}))
        assert star_set(tmpl) == {(1, 0), (1, 1), (1, 2), (2, 0), (2, 2), (3, 3)}
        assert star_count(tmpl) == 6

    def test_single_block_bottom_row(self):
        n = 4
        tmpl = miniversal_template(jt({sym(1): (n,)}))
        assert star_set(tmpl) == {(n - 1, j) for j in range(n)}

    def test_star_count_equal_blocks(self):
        assert star_count(miniversal_template(jt({sym(1): (2, 2)}))) == 8

    def test_one_by_one(self):
        assert star_count(miniversal_template(jt({sym(1): (1,)}))) == 1


def reference_jordan_block(m, lam):
    """One Jordan block, entry by entry."""
    J = np.zeros((m, m), dtype=complex)
    np.fill_diagonal(J, lam)
    for i in range(m - 1):
        J[i, i + 1] = 1.0
    return J


def reference_jordan_matrix(t):
    """The Jordan matrix from the label layout, one diagonal slice each."""
    n = t.n
    J = np.zeros((n, n), dtype=complex)
    J.flat[:: n + 1] = [label.value for label, part in t.entries for _ in range(part.total)]
    ones = [float(k < m - 1) for _, part in t.entries for m in part.parts for k in range(m)]
    J.flat[1 :: n + 1] = ones[:-1]
    return J


def reference_base(t):
    """The template base, block by block from the label layout."""
    n = t.n
    base = [[0.0 + 0.0j] * n for _ in range(n)]
    for label, part, off in label_layout(t):
        lam = label if label.is_symbolic else label.value
        for m in part.parts:
            for i in range(off, off + m):
                base[i][i] = lam
                if i + 1 < off + m:
                    base[i][i + 1] = 1.0 + 0.0j
            off += m
    return tuple(tuple(row) for row in base)


def cell_bits(base):
    """Each cell's type and exact text: repr tells -0.0 from 0.0 in either part."""
    return [(type(v), repr(v)) for row in base for v in row]


# signed zeros in either part, a negative, an imaginary and a near-overflow value
LABEL_POOL = (-0.0, -1, 1j, 1e200, complex(-2, -0.0), complex(0.5, -0.0))


def labelled_structures(max_n):
    """Every structure of order <= max_n, once with symbolic labels and once per
    rotation of ``LABEL_POOL`` over its eigenvalues."""
    for n in range(1, max_n + 1):
        for b in bundle_types(n):
            yield b
            for r in range(len(LABEL_POOL)):
                yield JordanType({
                    conc(LABEL_POOL[(i + r) % len(LABEL_POOL)]): p for i, (_, p) in enumerate(b.entries)
                })


class TestJordanRows:
    """``jordan_block``, ``jordan_matrix`` and the template base match their
    written-out references bit for bit, signed zeros included."""

    def test_jordan_block(self):
        for m in range(1, 7):
            for lam in LABEL_POOL + (0.0, complex(-0.0, -0.0)):
                assert jordan_block(m, lam).tobytes() == reference_jordan_block(m, lam).tobytes(), (m, lam)

    def test_jordan_matrix_and_template_base(self):
        count = 0
        for t in labelled_structures(6):
            tmpl = miniversal_template(t)
            assert cell_bits(tmpl.base) == cell_bits(reference_base(t)), t
            if not any(l.is_symbolic for l in t.labels):
                J = jordan_matrix(t)
                assert J.tobytes() == reference_jordan_matrix(t).tobytes(), t
                assert tmpl.base_matrix().tobytes() == J.tobytes(), t
                count += 1
        assert count == 6 * sum(len(bundle_types(n)) for n in range(1, 7))

    def test_signed_zero_survives(self):
        J = jordan_matrix(jt({conc(complex(-2, -0.0)): (2,), conc(-0.0): (1,)}))
        assert np.signbit(J.real.diagonal()).tolist() == [True, True, True]
        assert np.signbit(J.imag.diagonal()).tolist() == [True, True, False]


class TestOrderEnvelope:
    """``jordan_rows`` refuses a structure beyond MAX_MATRIX_N, and both
    builders reach it before they allocate anything."""

    @pytest.mark.parametrize("text", ["(0)^13", "a^13", "(0)^12 (1)"])
    @pytest.mark.parametrize("build", [jordan_matrix, miniversal_template])
    def test_order_beyond_the_envelope_refused(self, monkeypatch, build, text):
        monkeypatch.setattr(np, "zeros", None)  # the Jordan matrix's first allocation
        monkeypatch.setattr(templates, "pinned_cells", None)  # the template's mask
        n = parse_compact(text).n
        with pytest.raises(ValueError, match=f"^Jordan structure has order {n}, beyond the supported 12x12$"):
            build(parse_compact(text))

    @pytest.mark.parametrize("text", ["(0)^12", "a^12", "a^6 (1)^6"])
    def test_largest_order_accepted(self, text):
        t = parse_compact(text)
        assert len(jordan_rows(t)) == miniversal_template(t).n == 12

    def test_symbolic_labels_refused_by_the_jordan_matrix_alone(self):
        with pytest.raises(ValueError, match=r'^the Jordan matrix needs concrete eigenvalues, e\.g\. "\(0\)\^3 \(0\)\^2"$'):
            jordan_matrix(parse_compact("a^2 (1)"))


class TestAgreement:
    def test_star_count_equals_closed_form_up_to_6(self):
        for n in range(1, 7):
            for b in bundle_types(n):
                assert star_count(miniversal_template(b)) == orbit_codim(b)

    def test_triple_agreement_order_4(self):
        pool = [0, 1, 2 + 1j, -2]
        for n in range(1, 5):
            for b in bundle_types(n):
                t = JordanType(
                    {conc(pool[i]): p for i, (_, p) in enumerate(b.entries)}
                )
                k = orbit_codim(t)
                assert star_count(miniversal_template(t)) == k
                assert similarity_codim_numeric(jordan_matrix(t)) == k

    def test_direct_sum_over_labels(self):
        t = jt({conc(0): (2, 1), conc(1): (2,)})
        tmpl = miniversal_template(t)
        # off-label blocks are pinned to zero
        base = tmpl.base_matrix()
        for i in range(3):
            for j in range(3, 5):
                assert tmpl.kinds[i][j] == FIXED and base[i, j] == 0
                assert tmpl.kinds[j][i] == FIXED and base[j, i] == 0
        # per-label sub-templates equal the standalone ones
        t0 = miniversal_template(jt({conc(0): (2, 1)}))
        t1 = miniversal_template(jt({conc(1): (2,)}))
        assert [row[:3] for row in tmpl.kinds[:3]] == [r for r in t0.kinds]
        assert [row[3:] for row in tmpl.kinds[3:]] == [r for r in t1.kinds]


def written_out_kinds(t):
    """The layout as the module docstring states it: in each eigenvalue's
    block grid, the bottom row of every sub-block on or above the block
    diagonal and the first column of every one below it are free."""
    kinds = [[FIXED] * t.n for _ in range(t.n)]
    for _, part, off in label_layout(t):
        starts = [off + sum(part.parts[:p]) for p in range(len(part.parts))]
        for p, (sp, mp) in enumerate(zip(starts, part.parts)):
            for q, (sq, mq) in enumerate(zip(starts, part.parts)):
                free = [(sp + mp - 1, sq + j) for j in range(mq)] if p <= q else [(sp + i, sq) for i in range(mp)]
                for i, j in free:
                    kinds[i][j] = STAR
    return tuple(map(tuple, kinds))


class TestSharedMask:
    def test_template_kinds_are_the_shared_mask(self):
        count = 0
        for n in range(1, 9):
            for k in (1, 2, 3):
                for cuts in itertools.combinations(range(1, n), k - 1):
                    mults = np.diff((0, *cuts, n))
                    for combo in itertools.product(*(partitions(m) for m in mults)):
                        t = JordanType({sym(i + 1): p for i, p in enumerate(combo)})
                        tmpl = miniversal_template(t)
                        mask = pinned_cells(tuple(p.parts for p in combo))
                        assert np.array_equal(np.array(tmpl.kinds) == FIXED, mask)
                        assert tmpl.kinds == written_out_kinds(t)
                        count += 1
        assert count == 919

    def test_mask_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            pinned_cells(((2, 1), (1,)))[0, 0] = False


class TestPatternCheck:
    def test_unperturbed(self):
        t = jt({conc(0): (3, 2)})
        res = pattern_check(jordan_matrix(t), miniversal_template(t), tol=1e-12)
        assert res.ok and res.residual == 0

    def test_star_values_are_free(self, rng):
        t = jt({conc(0): (3, 2)})
        tmpl = miniversal_template(t)
        M = jordan_matrix(t)
        for i, j in star_set(tmpl):
            M[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
        assert pattern_check(M, tmpl, tol=1e-12).ok

    def test_off_pattern_violation(self):
        t = jt({conc(0): (3, 2)})
        tmpl = miniversal_template(t)
        M = jordan_matrix(t)
        M[0, 3] = 1e-3
        res = pattern_check(M, tmpl, tol=1e-8)
        assert not res.ok
        assert res.residual == pytest.approx(1e-3)

    def test_nan_on_pinned_cell_fails(self):
        # a NaN must fail the check, not drop out of the max
        t = jt({conc(0): (2,), conc(1): (1,)})
        M = jordan_matrix(t)
        M[0, 2] = np.nan
        res = pattern_check(M, miniversal_template(t), tol=1e-8)
        assert not res.ok and np.isnan(res.residual)

    def test_size_mismatch(self):
        t = jt({conc(0): (2,)})
        with pytest.raises(SizeMismatchError):
            pattern_check(np.zeros((3, 3)), miniversal_template(t))

    def test_symbolic_base_rejected(self):
        tmpl = miniversal_template(jt({sym(1): (2,)}))
        with pytest.raises(ValueError):
            pattern_check(np.zeros((2, 2)), tmpl)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        t = jt({conc(0): (2,)})
        with pytest.raises(ValueError, match="pattern tolerance"):
            pattern_check(jordan_matrix(t), miniversal_template(t), tol=tol)


class TestRendering:
    def test_json_doc(self):
        tmpl = miniversal_template(jt({conc(0): (2,)}))
        doc = template_to_json_doc(tmpl)
        assert doc["n"] == 2
        kinds = {(e["i"], e["j"]): e["kind"] for e in doc["entries"]}
        assert kinds[(0, 1)] == "fixed"
        assert kinds[(1, 0)] == "star" and kinds[(1, 1)] == "star"

    def test_ascii_symbolic(self):
        text = template_ascii(miniversal_template(jt({sym(1): (2, 1), sym(2): (1,)})))
        assert "λ+*" in text and "μ+*" in text
