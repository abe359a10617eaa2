"""Transversality certificates for every deformation-catalogue row.

A star count equal to the codimension is necessary but not sufficient: the
template's free directions must also span a complement of the tangent
space of the orbit.  So the tangent image at the canonical matrix, joined
with those directions, must have full rank.
"""

import itertools

import numpy as np
import pytest

from matstrata import (
    EigLabel,
    JordanType,
    Partition,
    congruence_template,
    format_compact,
    miniversal_template,
    star_template,
)
from matstrata.congruence import _slots, congruence_entries, form_display, star_entries
from matstrata.structure import partitions
from matstrata.tangent import action_operator, guarded_rank
from matstrata.templates import DELTA, EPS_IM, EPS_RE, STAR, DeformationTemplate

# the directions E_ij (1) and i E_ij (1j) that each parameter cell frees
COMPLEX_DIRECTIONS = {STAR: (1,)}
REAL_DIRECTIONS = {STAR: (1, 1j), EPS_RE: (1,), EPS_IM: (1j,), DELTA: (1, 1j)}


def spans_complement(action, tmpl) -> bool:
    """Does the tangent image of ``action`` at the template's base, joined
    with the template's free directions, span the whole space?"""
    n = tmpl.n
    real = action == "star_congruence"
    directions = REAL_DIRECTIONS if real else COMPLEX_DIRECTIONS
    cells = [(i * n + j, z) for i, j in np.ndindex(n, n) for z in directions.get(tmpl.kinds[i][j], ())]
    D = np.zeros((n * n, len(cells)), dtype=complex)
    for col, (row, z) in enumerate(cells):
        D[row, col] = z
    if real:  # the real operator's rows hold real parts above imaginary parts
        D = np.vstack([D.real, D.imag])
    joined = np.hstack([action_operator(action, tmpl.base_matrix()).matrix, D])
    return guarded_rank(joined) == len(joined)


def _structure(*parts):
    return JordanType({EigLabel.concrete(float(v)): Partition(p) for v, p in enumerate(parts)})


# every nilpotent and two-eigenvalue (0 and 1) structure of order <= 6
SIMILARITY = [_structure(p) for n in range(1, 7) for p in partitions(n)] + [
    _structure(p, q)
    for n in range(2, 7)
    for a in range(1, n)
    for p in partitions(a)
    for q in partitions(n - a)
]

CONGRUENCE = congruence_entries(2) + congruence_entries(3)
STAR_MUS = [1 + 0j, -1 + 0j, 1j, np.exp(1j * np.pi / 3)]


def test_catalogue_sizes():
    assert len(SIMILARITY) == 109
    assert len(CONGRUENCE) == 21


@pytest.mark.parametrize("t", SIMILARITY, ids=format_compact)
def test_similarity_templates(t):
    assert spans_complement("similarity", miniversal_template(t))


@pytest.mark.parametrize("lam", [2.0, 3 + 1j, 0.5])
@pytest.mark.parametrize("entry", CONGRUENCE, ids=lambda e: repr(e.signature))
def test_congruence_templates(entry, lam):
    form = entry.make(lam=lam)
    assert spans_complement("congruence", congruence_template(form)), form_display(form)


@pytest.mark.parametrize("entry", star_entries(2) + star_entries(3), ids=lambda e: repr(e.signature))
def test_star_congruence_templates(entry):
    for lam in [0.3, 0.5j] if entry.has_lambda else [None]:
        for mus in itertools.product(STAR_MUS, repeat=entry.n_mu):
            form = entry.make(lam=lam, mus=mus)
            assert spans_complement("star_congruence", star_template(form)), form_display(form)


# the *congruence table as published (Dmytryshyn, Futorny & Sergeichuk, LAA
# 2014): (i, j) for a star, ("eps", l, i, j) and ("delta", l, r, i, j) with
# l, r 1-based indices into the row's U parameters in block order
PUBLISHED_STAR_SLOTS = {
    # 2x2
    (("N", 1), ("N", 1)): [(i, j) for i in range(2) for j in range(2)],
    (("U", 1), ("N", 1)): [("eps", 1, 0, 0), (1, 0), (1, 1)],
    (("U", 1), ("U", 1)): [("eps", 1, 0, 0), ("delta", 2, 1, 1, 0), ("eps", 2, 1, 1)],
    (("U", 2),): [(0, 0)],
    (("H*", 1),): [(1, 0)],
    # 3x3
    (("N", 1), ("N", 1), ("N", 1)): [(i, j) for i in range(3) for j in range(3)],
    (("U", 1), ("N", 1), ("N", 1)): [("eps", 1, 0, 0)]
    + [(i, j) for i in (1, 2) for j in range(3)],
    (("U", 1), ("U", 1), ("N", 1)): [
        ("eps", 1, 0, 0),
        ("delta", 2, 1, 1, 0),
        ("eps", 2, 1, 1),
        (2, 0),
        (2, 1),
        (2, 2),
    ],
    (("U", 1), ("U", 1), ("U", 1)): [
        ("eps", 1, 0, 0),
        ("delta", 2, 1, 1, 0),
        ("eps", 2, 1, 1),
        ("delta", 3, 1, 2, 0),
        ("delta", 3, 2, 2, 1),
        ("eps", 3, 2, 2),
    ],
    (("U", 2), ("U", 1)): [(0, 0), ("delta", 2, 1, 2, 0), ("eps", 2, 2, 2)],
    (("U", 2), ("N", 1)): [(0, 0), (2, 0), (2, 1), (2, 2)],
    (("H*", 1), ("U", 1)): [(1, 0), ("eps", 1, 2, 2)],
    (("H*", 1), ("N", 1)): [(1, 0), (2, 0), (2, 1), (2, 2)],
    (("N", 2), ("N", 1)): [(1, 0), (1, 2), (2, 0), (2, 2)],
    (("N", 2),): [(1, 0)],
    (("U", 1), ("N", 2)): [("eps", 1, 0, 0), (2, 1)],
    # the anti-triangular 3x3 entry carries a corner star next to eps_1
    (("N", 3),): [(2, 0), (2, 2)],
    (("U", 3),): [(0, 0), ("eps", 1, 1, 1)],
}

# the congruence rows, in walk order, as the walk gave them before it
# also derived the *congruence table
CONGRUENCE_SLOTS = {
    (("H", 1, "neg1"),): [(1, 0), (1, 1), (0, 0)],
    (("H", 1, "gen"),): [(1, 0)],
    (("Gamma", 2),): [(0, 0)],
    (("N", 2),): [(1, 0)],
    (("Gamma", 1), ("Gamma", 1)): [(1, 0)],
    (("Gamma", 1), ("N", 1)): [(1, 0), (1, 1)],
    (("N", 1), ("N", 1)): [(1, 0), (1, 1), (0, 0), (0, 1)],
    (("Gamma", 3),): [(1, 0)],
    (("N", 3),): [(2, 0), (2, 2)],
    (("H", 1, "neg1"), ("Gamma", 1)): [(1, 0), (1, 1), (0, 0)],
    (("H", 1, "neg1"), ("N", 1)): [(2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (0, 0)],
    (("H", 1, "gen"), ("Gamma", 1)): [(1, 0)],
    (("H", 1, "gen"), ("N", 1)): [(2, 0), (2, 1), (2, 2), (1, 0)],
    (("Gamma", 2), ("Gamma", 1)): [(0, 0)],
    (("Gamma", 2), ("N", 1)): [(2, 0), (2, 1), (2, 2), (0, 0)],
    (("Gamma", 1), ("N", 2)): [(2, 1)],
    (("N", 2), ("N", 1)): [(2, 0), (2, 2), (1, 0), (1, 2)],
    (("Gamma", 1), ("Gamma", 1), ("Gamma", 1)): [(2, 0), (2, 1), (1, 0)],
    (("Gamma", 1), ("Gamma", 1), ("N", 1)): [(2, 0), (2, 1), (2, 2), (1, 0)],
    (("Gamma", 1), ("N", 1), ("N", 1)): [(2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (1, 2)],
    (("N", 1), ("N", 1), ("N", 1)): [(2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (0, 0), (1, 2), (0, 1), (0, 2)],
}


def test_every_entry_has_a_reference_row():
    assert {e.signature for e in star_entries(2) + star_entries(3)} == set(PUBLISHED_STAR_SLOTS)
    assert {e.signature for e in CONGRUENCE} == set(CONGRUENCE_SLOTS)
    assert (len(PUBLISHED_STAR_SLOTS), len(CONGRUENCE_SLOTS)) == (18, 21)


@pytest.mark.parametrize("sig", PUBLISHED_STAR_SLOTS, ids=repr)
def test_star_walk_reproduces_the_published_table(sig):
    assert set(_slots(sig, True)) == set(PUBLISHED_STAR_SLOTS[sig])


@pytest.mark.parametrize("sig", CONGRUENCE_SLOTS, ids=repr)
def test_congruence_walk_rows_pinned(sig):
    assert _slots(sig, False) == tuple(CONGRUENCE_SLOTS[sig])


EPS_ENTRIES = [
    e
    for e in star_entries(2) + star_entries(3)
    if any(slot[0] == "eps" for slot in PUBLISHED_STAR_SLOTS[e.signature])
]


@pytest.mark.parametrize("entry", EPS_ENTRIES, ids=lambda e: repr(e.signature))
def test_certificate_fails_with_an_eps_cell_turned_real(entry):
    """At a real mu an eps cell frees only i E_ij: E_ij lies in the span of
    the tangent space and the directions kept before it, so freeing E_ij
    instead must leave a gap the certificate sees."""
    for mus in itertools.product([1, -1], repeat=entry.n_mu):
        tmpl = star_template(entry.make(lam=0.3, mus=mus))
        cells = [(i, j) for i, j in np.ndindex(tmpl.n, tmpl.n) if tmpl.kinds[i][j] == EPS_IM]
        assert cells and spans_complement("star_congruence", tmpl)
        for i, j in cells:
            kinds = [list(row) for row in tmpl.kinds]
            kinds[i][j] = EPS_RE
            flipped = DeformationTemplate(tmpl.n, tmpl.base, tuple(map(tuple, kinds)), tmpl.source)
            assert not spans_complement("star_congruence", flipped), (tmpl.source, i, j)
