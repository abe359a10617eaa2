import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, n, norm=None, strict_upper=False):
    R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if strict_upper:
        R = np.triu(R, 1)
    if norm is not None:
        R *= norm / np.linalg.norm(R)
    return R


def well_conditioned(rng, n, spread=0.3):
    R = random_complex(rng, n)
    return np.eye(n) + spread * R / np.linalg.norm(R)


def label_layout(t):
    """(label, partition, row offset) for each label of ``t`` in canonical order:
    the block layout of its Jordan matrix, written out independently of the package."""
    out, off = [], 0
    for label, part in t.entries:
        out.append((label, part, off))
        off += part.total
    return out
