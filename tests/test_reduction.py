import itertools
import math
import re

import numpy as np
import pytest

from matstrata import (
    EigLabel,
    JordanType,
    Partition,
    ReductionError,
    SizeMismatchError,
    SpectraOverlapError,
    jordan_matrix,
    miniversal_template,
    numeric_weyr,
    parse_compact,
    partitions,
    pattern_check,
    reduce_to_miniversal,
    reduction,
    sylvester_solve,
)
from conftest import label_layout, random_complex

conc = EigLabel.concrete


def jt(d):
    return JordanType({k: Partition(v) for k, v in d.items()})


def kron_sylvester(J1, J2, C):
    """Reference: J2 M - M J1 = -C as one dense Kronecker system."""
    n1, n2 = len(J1), len(J2)
    K = np.kron(J2, np.eye(n1)) - np.kron(np.eye(n2), J1.T)
    return np.linalg.solve(K, -C.reshape(-1)).reshape(n2, n1)


class TestSylvester:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 4), (4, 1), (2, 5), (5, 3), (6, 6)])
    def test_matches_kronecker_on_triangular(self, rng, n1, n2):
        # non-constant diagonals, one spectrum shifted away from the other
        J1 = np.triu(random_complex(rng, n1))
        J2 = np.triu(random_complex(rng, n2)) + 5 * np.eye(n2)
        C = rng.standard_normal((n2, n1)) + 1j * rng.standard_normal((n2, n1))
        M = sylvester_solve(J1, J2, C)
        ref = kron_sylvester(J1, J2, C)
        assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("a,b", [((1,), (3,)), ((3,), (1,)), ((2, 1), (3,)), ((3, 2), (2, 2))])
    def test_matches_kronecker_on_jordan(self, rng, a, b):
        J1, J2 = jordan_matrix(jt({conc(0.3j): a})), jordan_matrix(jt({conc(1): b}))
        C = rng.standard_normal((len(J2), len(J1))) + 1j * rng.standard_normal((len(J2), len(J1)))
        M = sylvester_solve(J1, J2, C)
        ref = kron_sylvester(J1, J2, C)
        assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("which", [0, 1])
    def test_non_triangular_refused(self, which):
        J = [jordan_matrix(jt({conc(0): (2,)})), jordan_matrix(jt({conc(1): (3,)}))]
        J[which][-1, 0] = 1e-9
        with pytest.raises(ValueError, match="upper-triangular"):
            sylvester_solve(J[0], J[1], np.ones((3, 2)))

    @pytest.mark.parametrize("kind", [str, bool])
    @pytest.mark.parametrize("which", ["J1", "J2", "C"])
    def test_string_or_boolean_entries_refused(self, which, kind):
        # np.asarray(..., dtype=complex) would parse the strings and take the booleans
        args = {"J1": np.eye(2), "J2": 2 * np.eye(3), "C": np.ones((3, 2))}
        args[which] = args[which].astype(kind)
        with pytest.raises(TypeError, match=f"^{which} entries must be numbers, got "):
            sylvester_solve(**args)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-inf j"])
    @pytest.mark.parametrize("which", ["J1", "J2", "C"])
    def test_non_finite_entry_refused_before_the_solve(self, which, bad):
        args = {"J1": jordan_matrix(jt({conc(0): (2,)})), "J2": jordan_matrix(jt({conc(1): (3,)})),
                "C": np.ones((3, 2), dtype=complex)}
        args[which][1, 1 if which != "C" else 0] = bad
        with pytest.raises(ValueError, match=f"^{which} must be finite, got a NaN or infinite entry$"):
            sylvester_solve(**args)

    @pytest.mark.parametrize("which", ["J1", "J2"])
    def test_order_beyond_envelope_refused(self, which):
        big, one = np.eye(13), np.array([[2.0]])
        J1, J2 = (big, one) if which == "J1" else (one, big)
        with pytest.raises(ValueError, match=f"^{which} has order 13, beyond the supported 12x12$"):
            sylvester_solve(J1, J2, np.ones((len(J2), len(J1))))

    @pytest.mark.parametrize("shapes", [
        ((2, 3), (3, 3), (3, 2)),  # J1 not square
        ((2, 2), (3, 2), (3, 2)),  # J2 not square
        ((2, 2), (3, 3), (2, 3)),  # C is n1 x n2, not n2 x n1
    ])
    def test_incompatible_shapes_refused(self, shapes):
        J1, J2, C = (np.zeros(shape) for shape in shapes)
        with pytest.raises(SizeMismatchError, match="incompatible shapes"):
            sylvester_solve(J1, J2, C)

    def test_scalar(self):
        M = sylvester_solve(np.array([[0.0]]), np.array([[1.0]]), np.array([[2.5]]))
        assert np.allclose(M, [[-2.5]])

    def test_zero_rhs(self):
        J1 = np.array([[0, 1], [0, 0]], dtype=complex)
        J2 = J1 + np.eye(2)
        M = sylvester_solve(J1, J2, np.zeros((2, 2)))
        assert np.allclose(M, 0)

    def test_random_residual(self, rng):
        J1 = np.array([[0, 1], [0, 0]], dtype=complex)
        J2 = J1 + np.eye(2)
        C = random_complex(rng, 2)
        M = sylvester_solve(J1, J2, C)
        assert np.linalg.norm(J2 @ M - M @ J1 + C) <= 1e-10 * np.linalg.norm(C)

    def test_overlapping_spectra_rejected(self):
        J = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(SpectraOverlapError):
            sylvester_solve(J, J.copy(), np.eye(2))

    def test_overlapping_spectra_rejected_for_zero_rhs(self):
        J = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(SpectraOverlapError):
            sylvester_solve(J, J + 1e-9 * np.eye(2), np.zeros((2, 2)))


GRID_EIGS = (0.0, 1.0, -1.0, 2j, 1 + 1j, -2.0)


def layouts(orders, groups):
    """Every structure of the given orders and numbers of eigenvalue groups,
    as block-size tuples per group."""
    for n in orders:
        for k in groups:
            for cuts in itertools.combinations(range(1, n), k - 1):
                mults = np.diff((0, *cuts, n))
                yield from itertools.product(*([p.parts for p in partitions(m)] for m in mults))


def small_layouts():
    """Every structure of order <= 6 with two or three eigenvalue groups."""
    return layouts(range(2, 7), (2, 3))


def shaped_layouts():
    """The layouts of ``bench/inputs.py``'s ``shaped_structure`` with two or
    three groups, orders 2..12: near-equal multiplicities, the partition of
    each picked by the draw."""
    for n in range(2, 13):
        for draw in (1, 2, 4, 5):
            k = min(1 + draw % 3, n)
            mults = [n // k + (1 if i < n % k else 0) for i in range(k)]
            yield tuple(
                partitions(m)[(draw // 3 + i) * 7 % len(partitions(m))].parts for i, m in enumerate(mults)
            )


def gauge_cells(t):
    """Cells on which a chord step's X is zero by construction: inside each
    group, the top row of each sub-block on or above the block diagonal and
    the last column of each one below it."""
    G = np.zeros((t.n, t.n), dtype=bool)
    for _, part, off in label_layout(t):
        starts = off + np.cumsum((0,) + part.parts[:-1])
        for p, (sp, mp) in enumerate(zip(starts, part.parts)):
            for q, (sq, mq) in enumerate(zip(starts, part.parts)):
                if p <= q:
                    G[sp, sq : sq + mq] = True
                else:
                    G[sp : sp + mp, sq + mq - 1] = True
    return G


def reference_group_step(X, R, sizes) -> None:
    """The row-by-row recursion the chains replaced: fill X on one
    eigenvalue group so that X[i, j-1] - X[i+1, j] = R[i, j] on every
    pinned cell of each sub-block of the block grid.

    A sub-block (p, q) with p <= q is pinned off its bottom row: its rows
    fill downward from a zero top row.  One with p > q is pinned off its
    first column: its columns fill leftward from a zero last column.
    """
    starts = np.cumsum((0,) + sizes[:-1])
    ends = starts + np.array(sizes) - 1
    for p, (sp, mp) in enumerate(zip(starts, sizes)):
        firsts = starts[p:]  # first column of each sub-block right of the diagonal
        for r in range(sp, sp + mp - 1):
            X[r + 1, sp + 1 :] = X[r, sp:-1]
            X[r + 1, firsts] = 0
            X[r + 1, sp:] -= R[r, sp:]
    for q, (sq, mq) in enumerate(zip(starts[:-1], sizes[:-1])):
        below, lasts = starts[q + 1], ends[q + 1 :]  # last row of each sub-block below
        for c in range(sq + mq - 1, sq, -1):
            X[below:-1, c - 1] = X[below + 1 :, c]
            X[lasts, c - 1] = 0
            X[below:, c - 1] += R[below:, c]


def reference_chord_step(R, between, spans, sizes) -> np.ndarray:
    """The chord step with each group filled by ``reference_group_step``."""
    X = np.zeros_like(R) if between is None else between.solve(R)
    for (a0, a1), parts in zip(spans, sizes):
        reference_group_step(X[a0:a1, a0:a1], R[a0:a1, a0:a1], parts)
    return X


def grid_of(t):
    return tuple(part.parts for _, part in t.entries)


def chord_inputs(layout):
    """Structure, Jordan matrix, plan and between-group solver of a layout."""
    t = jt({conc(lam): parts for lam, parts in zip(GRID_EIGS, layout)})
    J, plan = jordan_matrix(t), reduction._Plan(grid_of(t))
    return t, J, plan, reduction._BetweenGroups(J, grid_of(t)) if len(layout) > 1 else None


class TestChordStep:
    # all between-group cells in one masked pass, then each group's chains
    @pytest.mark.parametrize("layout", [*small_layouts(), *shaped_layouts()], ids=str)
    def test_solves_pinned_cells_and_matches_kronecker(self, rng, layout):
        t, J, plan, between = chord_inputs(layout)
        n = t.n
        pinned = np.array(miniversal_template(t).kinds) == "fixed"
        R = np.where(pinned, random_complex(rng, n), 0)
        X = reduction._chord_step(R, between, plan)
        free = ~gauge_cells(t)
        assert not X[~free].any()
        assert np.linalg.norm((X @ J - J @ X - R)[pinned]) <= 1e-12 * np.linalg.norm(R)
        # XJ - JX on the pinned cells, for X zero off ``free``, as one dense system
        K = np.kron(np.eye(n), J.T) - np.kron(J, np.eye(n))
        ref = np.linalg.solve(K[np.ix_(pinned.reshape(-1), free.reshape(-1))], R[pinned])
        assert np.linalg.norm(X[free] - ref) <= 1e-12 * np.linalg.norm(ref)


class TestChainFill:
    # the cumulative sums along the chains against the row-by-row recursion
    def test_equals_the_recursion_bit_for_bit(self, rng):
        count = 0
        for layout in layouts(range(1, 9), (1, 2, 3)):
            t, J, plan, between = chord_inputs(layout)
            n = t.n
            # exact +0.0 and -0.0 in both parts of about a third of the cells
            parts = rng.standard_normal((2, n, n))
            parts[rng.random((2, n, n)) < 0.15] = 0.0
            parts[rng.random((2, n, n)) < 0.15] = -0.0
            R = np.empty((n, n), dtype=complex)
            R.real, R.imag = parts
            X = reduction._chord_step(R, between, plan)
            spans = [(off, off + part.total) for _, part, off in label_layout(t)]
            ref = reference_chord_step(R, between, spans, grid_of(t))
            assert np.array_equal(X, ref), layout
            # the step applies T = I + X, the same bits; with one group both
            # start from zeros, so X itself has the same bits, signed zeros too
            assert (np.eye(n) + X).tobytes() == (np.eye(n) + ref).tobytes(), layout
            if between is None:
                assert X.tobytes() == ref.tobytes(), layout
            count += 1
        assert count == 919

    def test_plan_keeps_no_eigenvalue(self):
        # (0)^2 (1e-9) has the grid of (0)^2 (1), whose setup is then cached,
        # but its gap of 1e-9 is still below GAP_TOL
        E = np.zeros((3, 3), dtype=complex)
        E[0, 2] = 1e-5
        assert reduce_to_miniversal(jt({conc(0): (2,), conc(1): (1,)}), E).pattern_ok
        with pytest.raises(SpectraOverlapError, match="spectra separated by 1.000e-09"):
            reduce_to_miniversal(jt({conc(0): (2,), conc(1e-9): (1,)}), E)

    def test_cached_plan_is_read_only(self):
        plan = reduction._setup(jt({conc(0): (3, 1), conc(1): (2, 2)}), ("0j", "(1+0j)"))[1]
        arrays = [field for field in vars(plan).values() if isinstance(field, np.ndarray)]
        assert len(arrays) == 5 and all(a.size for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]


EIG_POOL = (0.0, 1.0, -1.0, 2j, 1 + 1j, -2.0)  # as in bench/inputs.py


def shaped_structures():
    """``bench/inputs.py``'s ``shaped_structure`` for orders 2..12 and
    draws 0..5, the structures a numerics pass reduces."""
    for n in range(2, 13):
        for draw in range(6):
            k = min(1 + draw % 3, n)
            mults = [n // k + (1 if i < n % k else 0) for i in range(k)]
            yield JordanType({
                conc(EIG_POOL[(draw + i) % len(EIG_POOL)]):
                partitions(m)[(draw // 3 + i) * 7 % len(partitions(m))]
                for i, m in enumerate(mults)
            })


def outcome(t, E):
    """Everything a reduction returns, as bytes where it is an array."""
    try:
        res = reduce_to_miniversal(t, E)
    except ReductionError as exc:
        return repr(exc)
    return res.S.tobytes(), res.D.tobytes(), res.residual, res.iterations, res.pattern_ok


class TestSetupCache:
    # what depends on the structure alone is built once; no result may tell
    def test_cached_setup_is_read_only(self):
        t = jt({conc(0): (3, 1), conc(1): (2, 2)})
        J, plan, between, scale, eye = reduction._setup(t, ("0j", "(1+0j)"))  # the key of t
        arrays = [J, eye, *(a for a in vars(between).values() if isinstance(a, np.ndarray))]
        assert len(arrays) == 12 and all(a.size for a in arrays)
        assert between.J is J and between.any_close is False and np.array_equal(plan.pinned, reduction.pinned_cells(((3, 1), (2, 2))))
        assert scale == np.linalg.norm(J) and np.array_equal(eye, np.eye(8))
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    def test_between_cell_index_is_read_only(self):
        # each pair of groups in row-major order, its between cells in row-major
        # order, once into XJ - JX - R and once into R
        t = jt({conc(0): (3, 1), conc(1): (2,), conc(2): (1,)})
        between = reduction._setup(t, ("0j", "(1+0j)", "(2+0j)"))[2]
        assert between.pairs.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]
        spans = [range(0, 4), range(4, 6), range(6, 7)]
        cells = [i * 7 + j for a, b in between.pairs for i in spans[a] for j in spans[b]]
        assert between.cells.tolist() == cells + [c + 49 for c in cells]
        assert between.runs.tolist() == [0, 8, 12, 20, 22, 26, 28, 36, 40, 48, 50, 54]
        for a in (between.pairs, between.cells, between.runs):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    @pytest.mark.parametrize("layout", [((2, 1),), ((2, 1), (1,))], ids=str)
    def test_results_are_fresh_arrays(self, layout):
        t = jt({conc(lam): parts for lam, parts in zip((0, 1), layout)})
        E = np.zeros((t.n, t.n))
        first = reduce_to_miniversal(t, E)
        assert first.iterations == 0
        for a in (first.S, first.D):
            assert a.flags.writeable
            a[...] = 7
        again = reduce_to_miniversal(t, E)
        assert np.array_equal(again.S, np.eye(t.n)) and np.array_equal(again.D, jordan_matrix(t))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_bytes_warm_and_cold(self, seed):
        rng = np.random.default_rng(seed)
        cases = [
            (t, 1e-5 * (rng.standard_normal((t.n, t.n)) + 1j * rng.standard_normal((t.n, t.n))) / np.sqrt(2))
            for t in shaped_structures()
        ]

        def run(clear=False, copy=False):
            out = []
            for t, E in cases:
                if clear:
                    reduction._setup.cache_clear()
                out.append(outcome(JordanType(t.entries) if copy else t, E))
            return out

        cold = run(clear=True)
        assert len(cold) == 66 and all(isinstance(o, tuple) and o[4] for o in cold)
        assert run() == cold and run() == cold  # filling the cache, then hitting it
        assert run(copy=True) == cold  # a new but equal structure finds the entry

    def test_signed_zero_labels_keep_their_bits(self):
        # labels 0.0 and -0.0 are equal and hash alike, but J + E keeps each sign
        E = np.full((2, 2), -0.0 - 0.0j)
        labels = {sign: jt({conc(math.copysign(0.0, sign)): (2,)}) for sign in (1.0, -1.0)}
        cold = {}
        for sign, t in labels.items():
            reduction._setup.cache_clear()
            cold[sign] = outcome(t, E)
        assert cold[1.0] != cold[-1.0]
        assert np.frombuffer(cold[-1.0][1], complex)[0].real.hex() == "-0x0.0p+0"
        for order in ((1.0, -1.0), (-1.0, 1.0)):
            reduction._setup.cache_clear()
            for _ in range(2):
                assert {sign: outcome(labels[sign], E) for sign in order} == cold

    def test_close_spectra_refused_on_every_call(self):
        t = jt({conc(0): (2,), conc(1e-9): (1,)})
        E = np.zeros((3, 3), dtype=complex)
        E[0, 2] = 1e-5
        for clear in (True, False, False, True, False):
            if clear:
                reduction._setup.cache_clear()
            hits = reduction._setup.cache_info().hits
            with pytest.raises(SpectraOverlapError, match="spectra separated by 1.000e-09"):
                reduce_to_miniversal(t, E)
            assert reduction._setup.cache_info().hits == hits + (not clear)


class TestFloatRange:
    """|J|_F is normed on J divided by its power of two, and the between-group
    residual on R divided by its own, so no square over- or underflows at the
    ends of the float range."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1.0, 1e150, 1e200])
    def test_scaled_structure_reduces_in_one_step(self, s):
        t = jt({conc(s): (2,), conc(2 * s): (1,)})
        E = np.zeros((3, 3), dtype=complex)
        E[0, 2] = s * 1e-5
        res = reduce_to_miniversal(t, E, tol=s * 1e-8)
        assert res.iterations == 1 and res.pattern_ok
        assert reduction._setup(t, (repr(complex(s)), repr(complex(2 * s))))[3] == pytest.approx(s * math.sqrt(6 + s**-2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_message_is_unscaled(self):
        # one pass of the between-group solve where four are needed leaves a
        # residual on block (0, 1); at 2^664 (about 1e200) its square would overflow
        J0, grid = jordan_matrix(jt({conc(0): (3,), conc(1): (2,)})), ((3,), (2,))
        R0 = np.zeros((5, 5), dtype=complex)
        R0[:3, 3:] = 1e-5
        X = R0 * reduction._BetweenGroups(J0, grid).inv_gap
        want = np.linalg.norm((X @ J0 - J0 @ X - R0)[:3, 3:])
        for k in (0, 664):
            J, R = (np.ldexp(Z.view(float), k).view(complex) for Z in (J0, R0))
            between = reduction._BetweenGroups(J, grid)
            between.passes = 1
            with pytest.raises(ReductionError, match=re.escape(f"Sylvester residual {np.ldexp(want, k):.3e} exceeds")):
                between.solve(R)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(("j", "c"), [(0, 0), (664, 0), (0, -600), (664, 664)])
    def test_ill_conditioned_solve_refused_at_any_scale(self, j, c):
        # a 3-block 2e-8 away from a 1-block: the exact passes still leave a
        # residual of about 0.73 |C| in roundoff, whatever the scales of J and C
        J1, J2 = np.ldexp(np.eye(3) + np.eye(3, k=1), j), np.ldexp([[1 + 2e-8]], j)
        C = np.ldexp([[1.0, 0.3, 0.7]], c)
        with pytest.raises(ReductionError, match=r"Sylvester residual (\S+) exceeds") as info:
            sylvester_solve(J1, J2, C)
        residual = float(re.search(r"residual (\S+)", str(info.value))[1])
        assert np.ldexp(residual, -c) == pytest.approx(0.728, abs=5e-4)


def random_grid(rng):
    """Block grid of 2-4 eigenvalue groups, order at most 12, each group's
    partition drawn at random."""
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k, 13))
    mults = np.diff((0, *np.sort(rng.choice(np.arange(1, n), k - 1, replace=False)), n))
    return tuple(partitions(int(m))[rng.integers(len(partitions(int(m))))].parts for m in mults)


class TestPairNorms:
    """Each pair of groups' norms come from one gather of the between cells;
    the two-stage reduction over the whole grid that it replaced is the reference."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [0, 664, -664])
    def test_match_the_two_stage_reduction(self, rng, k):
        for _ in range(200):
            grid = random_grid(rng)
            sizes = [sum(parts) for parts in grid]
            n = sum(sizes)
            J = np.diag(np.repeat(np.arange(len(grid)), sizes)).astype(complex)
            between = reduction._BetweenGroups(J, grid)
            group = np.repeat(np.arange(len(grid)), sizes)
            Z, R = (np.ldexp(rng.standard_normal((n, 2 * n)), k).view(complex) for _ in range(2))
            ref = [
                between._blocks(np.hypot, np.where(group[:, None] != group, np.abs(Y), 0))[tuple(between.pairs.T)]
                for Y in (Z, R)
            ]
            # hypot sums in another order: a few ulps apart, never over- or underflowing
            np.testing.assert_allclose(between.pair_norms(Z, R), ref, rtol=8 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("cells", [((2, 0), (0, 4)), ((0, 4), (2, 0))], ids=["(1,0) first", "(0,2) first"])
    def test_first_failing_pair_in_row_major_order_reported(self, cells):
        # one pass where two or three are needed: pairs (0, 2) and (1, 0) both fail,
        # and (0, 2), with gap 3.5, comes first whichever cell is filled first
        J = jordan_matrix(jt({conc(0): (2,), conc(1): (2,), conc(3.5): (1,)}))
        between = reduction._BetweenGroups(J, ((2,), (2,), (1,)))
        between.passes = 1
        R = np.zeros((5, 5), dtype=complex)
        for i, j in cells:
            R[i : i + 2, j] = 1e-5
        X = R * between.inv_gap
        want = np.linalg.norm((X @ J - J @ X - R)[:2, 4:])
        with pytest.raises(ReductionError, match=re.escape(f"residual {want:.3e} exceeds 1e-10*|C|; spectral gap 3.500e+00")):
            between.solve(R)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_residual_refused(self):
        J = jordan_matrix(jt({conc(0): (2,), conc(1): (1,)}))
        R = np.zeros((3, 3), dtype=complex)
        R[2, 0] = complex(np.nan, 0)
        with pytest.raises(ReductionError, match=r"^Sylvester residual nan exceeds 1e-10\*\|C\|; spectral gap 1.000e\+00"):
            reduction._BetweenGroups(J, ((2,), (1,))).solve(R)


class TestSplit:
    # several eigenvalue groups: the between-group pass
    def test_identity_when_unperturbed(self):
        t = jt({conc(0): (1,), conc(1): (1,)})
        res = reduce_to_miniversal(t, np.zeros((2, 2)))
        assert np.array_equal(res.S, np.eye(2))
        assert np.array_equal(res.D, jordan_matrix(t)) and res.iterations == 0

    def test_two_points_converge_fast(self, rng):
        E = random_complex(rng, 2, norm=1e-4)
        res = reduce_to_miniversal(jt({conc(0): (1,), conc(1): (1,)}), E)
        assert res.pattern_ok and res.iterations <= 5
        assert np.linalg.norm(res.S @ res.D - (np.diag([0.0, 1.0]) + E) @ res.S) <= 1e-12

    def test_single_group_is_identity_operation(self):
        t = jt({conc(0): (2,)})
        res = reduce_to_miniversal(t, np.zeros((2, 2)))
        assert np.array_equal(res.S, np.eye(2))
        assert np.array_equal(res.D, jordan_matrix(t)) and res.iterations == 0


class TestSingleEigenvalue:
    # one eigenvalue: the triangular recursion over the block grid
    def test_unperturbed(self):
        t = jt({conc(0.5): (2, 1)})
        res = reduce_to_miniversal(t, np.zeros((3, 3)))
        assert np.array_equal(res.S, np.eye(3))
        assert np.array_equal(res.D, jordan_matrix(t)) and res.iterations == 0

    def test_blocks_3_2(self, rng):
        t = jt({conc(0): (3, 2)})
        E = random_complex(rng, 5, norm=1e-3)
        res = reduce_to_miniversal(t, E)
        assert pattern_check(res.D, miniversal_template(t), tol=1e-10).ok
        assert np.linalg.norm(res.S @ res.D - (jordan_matrix(t) + E) @ res.S) <= 1e-10

    def test_small_coupling_realizes_single_block(self):
        # two 2x2 blocks plus one coupling entry carry the full 4x4 structure
        for lam in (0.0, 1.0):
            E = np.zeros((4, 4))
            E[1, 2] = 1e-4
            res = reduce_to_miniversal(jt({conc(lam): (2, 2)}), E)
            assert numeric_weyr(res.D, lam, tol=1e-8) == (1, 1, 1, 1)

    def test_collapsed_pivot_rejected(self):
        # J2(0) + E has superdiagonal 0.1: no near-identity S restores the 1
        E = np.array([[0, -0.9], [0, 0]], dtype=complex)
        with pytest.raises(ReductionError):
            reduce_to_miniversal(jt({conc(0): (2,)}), E)


class TestFullReduction:
    def test_unperturbed(self):
        t = jt({conc(0): (3, 2), conc(1): (1,)})
        res = reduce_to_miniversal(t, np.zeros((6, 6)))
        assert np.array_equal(res.S, np.eye(6))
        assert res.residual == 0 and res.pattern_ok

    @pytest.mark.parametrize("order", [2, 4])
    def test_perturbation_of_another_order_refused(self, order):
        with pytest.raises(SizeMismatchError, match=rf"perturbation shape \({order}, {order}\) vs order 3"):
            reduce_to_miniversal(jt({conc(0): (2, 1)}), np.zeros((order, order)))

    def test_mixed_structure(self, rng):
        t = jt({conc(0): (3, 2), conc(1): (1,)})
        E = random_complex(rng, 6, norm=1e-4)
        res = reduce_to_miniversal(t, E)
        assert res.pattern_ok and res.residual <= 1e-8
        J = jordan_matrix(t)
        assert np.linalg.norm(res.S @ res.D - (J + E) @ res.S) <= 1e-10

    def test_worked_4x4_template(self, rng):
        t = jt({conc(0): (2, 1), conc(1): (1,)})
        E = random_complex(rng, 4, norm=1e-4)
        res = reduce_to_miniversal(t, E)
        assert pattern_check(res.D, miniversal_template(t), tol=1e-8).ok

    def test_near_identity_scaling(self, rng):
        t = jt({conc(0): (3, 2)})
        ratios = []
        for eps in (1e-3, 1e-4, 1e-5):
            worst = 0.0
            for _ in range(5):
                E = random_complex(rng, 5, norm=eps)
                res = reduce_to_miniversal(t, E)
                worst = max(worst, np.linalg.norm(res.S - np.eye(5)) / eps)
            ratios.append(worst)
        assert max(ratios) / min(ratios) < 10

    def test_spectrum_preserved(self, rng):
        t = jt({conc(0): (2, 1), conc(1): (1,)})
        E = random_complex(rng, 4, norm=1e-4)
        res = reduce_to_miniversal(t, E)
        got = np.sort_complex(np.linalg.eigvals(res.D))
        expect = np.sort_complex(np.linalg.eigvals(jordan_matrix(t) + E))
        assert np.max(np.abs(got - expect)) <= 1e-8

    def test_pattern_support(self, rng):
        t = jt({conc(0): (2, 2)})
        E = random_complex(rng, 4, norm=1e-4)
        res = reduce_to_miniversal(t, E, tol=1e-8)
        tmpl = miniversal_template(t)
        base = tmpl.base_matrix()
        for i in range(4):
            for j in range(4):
                if tmpl.kinds[i][j] == "fixed":
                    assert abs(res.D[i, j] - base[i, j]) <= 1e-8

    def test_close_eigenvalues_refused(self):
        # a gap of 1e-6 needs S far from the identity; it used to be returned
        E = 1e-5 * np.ones((3, 3))
        with pytest.raises(ReductionError):
            reduce_to_miniversal(jt({conc(0): (2,), conc(1e-6): (1,)}), E)
        res = reduce_to_miniversal(jt({conc(0): (2,), conc(1e-1): (1,)}), E)
        assert res.pattern_ok and np.linalg.norm(res.S - np.eye(3)) <= 1e3 * np.linalg.norm(E)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_refused_before_any_step(self, tol):
        # this perturbation would be refused by the first step
        E = np.array([[0, -0.9], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="pattern tolerance must be finite"):
            reduce_to_miniversal(jt({conc(0): (2,)}), E, tol=tol)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("cell", [(0, 1), (1, 0), (0, 2)])
    def test_non_finite_perturbation_refused_before_any_step(self, bad, cell):
        # (1, 0) is a parameter cell, which the pinned residual never reads
        E = np.zeros((3, 3), dtype=complex)
        E[cell] = bad
        with pytest.raises(ValueError, match="perturbation must be finite"):
            reduce_to_miniversal(jt({conc(0): (2,), conc(1): (1,)}), E)

    def test_close_groups_refused_where_coupled(self):
        # the groups lie 1e-9 apart, below GAP_TOL, and E couples them
        E = np.zeros((3, 3), dtype=complex)
        E[0, 2] = 1e-5
        with pytest.raises(SpectraOverlapError, match="spectra separated by 1.000e-09"):
            reduce_to_miniversal(jt({conc(0): (2,), conc(1e-9): (1,)}), E)

    def test_close_groups_reduce_when_uncoupled(self):
        # the same groups with E zero on every between-group cell: each group
        # reduces on its own and no pair of groups is solved
        E = np.zeros((3, 3), dtype=complex)
        E[0, :2] = 1e-5, 2e-5
        t = jt({conc(0): (2,), conc(1e-9): (1,)})
        res = reduce_to_miniversal(t, E)
        assert res.pattern_ok and res.iterations == 2
        assert not res.S[:2, 2].any() and not res.S[2, :2].any()
        assert np.linalg.norm(res.S @ res.D - (jordan_matrix(t) + E) @ res.S) <= 1e-15

    def test_step_limit_refused(self, monkeypatch):
        # the uncoupled input above takes two chord steps
        E = np.zeros((3, 3), dtype=complex)
        E[0, :2] = 1e-5, 2e-5
        monkeypatch.setattr(reduction, "MAX_STEPS", 1)
        with pytest.raises(ReductionError, match="no convergence in 1 chord steps"):
            reduce_to_miniversal(jt({conc(0): (2,), conc(1e-9): (1,)}), E)

    def test_tolerance_below_roundoff_is_reported_not_refused(self):
        # the stopping target min(tol/100, 1e-12) max(1, |J|_F) used to lie
        # below roundoff here, and a residual of 1.1e-16 "did not halve"
        rng = np.random.default_rng(3)
        E = 1e-6 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        t = parse_compact("(0)^2 (1)")
        res = reduce_to_miniversal(t, E, tol=1e-16)
        J = jordan_matrix(t)
        assert res.residual <= 16 * np.finfo(float).eps * np.linalg.norm(J)
        assert res.pattern_ok == (res.residual <= 1e-16)
        assert np.linalg.norm(res.S @ res.D - (J + E) @ res.S) <= 1e-15

    def test_residual_that_does_not_halve_refused(self):
        # the parameter cell (0, 0) widens the gap from 1 to 1.5, which the
        # chord steps, solved against the gap of J, do not see: the residual
        # 0.2 falls only to about 0.1, while each step stays below MAX_STEP
        E = np.array([[-0.5, 0.2], [0.2, 0]], dtype=complex)
        with pytest.raises(ReductionError, match="did not halve from 2.000e-01"):
            reduce_to_miniversal(jt({conc(0): (1,), conc(1): (1,)}), E)

    def test_parameter_cells_only_take_no_step(self, rng):
        t = jt({conc(0): (3, 1), conc(2): (2,)})
        stars = np.array(miniversal_template(t).kinds) != "fixed"
        E = np.where(stars, random_complex(rng, t.n, norm=1e-3), 0)
        res = reduce_to_miniversal(t, E)
        assert res.iterations == 0 and np.array_equal(res.S, np.eye(t.n))
        assert np.array_equal(res.D, jordan_matrix(t) + E)
