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
    pattern_check,
    similarity_codim_numeric,
    star_count,
    template_ascii,
    template_to_json_doc,
)
from matstrata.templates import FIXED, STAR

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
