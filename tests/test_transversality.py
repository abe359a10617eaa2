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
from matstrata.congruence import congruence_entries, form_display, star_entries
from matstrata.structure import partitions
from matstrata.tangent import action_operator, guarded_rank
from matstrata.templates import DELTA, EPS_IM, EPS_RE, STAR

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
