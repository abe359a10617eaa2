"""Empirical side: numerical Jordan structure of perturbed matrices.

Eigenvalues are clustered by single linkage, the block-count sequence of
each cluster comes from rank differences of powers, and Monte-Carlo
surveys check that every structure observed near a canonical matrix is
reachable in the bundle closure graph.  A small search routine finds
sparse perturbations realizing individual graph edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAmbiguityError
from .graphs import build_bundle_graph, closure_leq, reachable
from .structure import (
    EigLabel,
    JordanType,
    Partition,
    canonical_bundle_labeling,
    conjugate_partition,
    format_compact,
    format_display,
)
from .tangent import DEFAULT_RANK_TOL, guarded_rank
from .templates import jordan_matrix

DEFAULT_CLUSTER_RADIUS = 1e-6


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    # exactly triangular matrices keep their diagonal as exact eigenvalues;
    # generic eig would scatter defective ones by roundoff^(1/m)
    if not np.tril(A, -1).any():
        return np.diag(A).astype(complex)
    if not np.triu(A, 1).any():
        return np.diag(A).astype(complex)
    return np.linalg.eigvals(A)


def eigen_clusters(A, cluster_radius: float = DEFAULT_CLUSTER_RADIUS):
    """Single-linkage grouping of the eigenvalues of A.

    Returns (center, multiplicity) pairs sorted by center; multiplicities
    sum to n.
    """
    if cluster_radius <= 0:
        raise ValueError("cluster radius must be positive")
    A = np.asarray(A, dtype=complex)
    eigs = _eigenvalues(A)
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(n), 2):
        if abs(eigs[i] - eigs[j]) <= cluster_radius:
            parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(eigs[i])
    out = [(complex(np.mean(v)), len(v)) for v in groups.values()]
    out.sort(key=lambda cm: (cm[0].real, cm[0].imag))
    return out


def numeric_weyr(A, lam, tol: float = DEFAULT_RANK_TOL) -> tuple[int, ...]:
    """Block-count sequence of A at the eigenvalue lam.

    Entry j is rank((A - lam I)^(j-1)) - rank((A - lam I)^j); ranks use a
    singular-value threshold relative to each power's own largest
    singular value.  Ill-separated singular values raise
    NumericalAmbiguityError.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    B = A - complex(lam) * np.eye(n)
    P = np.eye(n, dtype=complex)
    prev = n
    w = []
    for _ in range(n):
        P = P @ B
        r = guarded_rank(P, tol)
        wj = prev - r
        if wj < 0 or (w and wj > w[-1]):
            raise NumericalAmbiguityError(
                "rank sequence of powers is not monotone",
                details={"w": w + [wj]},
            )
        if wj == 0:
            break
        w.append(wj)
        prev = r
        if r == 0:
            break
    return tuple(w)


def numeric_jordan_type(
    A,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    tol: float = DEFAULT_RANK_TOL,
) -> JordanType:
    """Jordan structure estimate with cluster centers as eigenvalues."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    entries = {}
    for center, mult in eigen_clusters(A, cluster_radius):
        w = (1,) if mult == 1 else numeric_weyr(A, center, tol)
        if sum(w) != mult:
            raise NumericalAmbiguityError(
                f"cluster at {center:.6g} has multiplicity {mult} but the "
                f"rank sequence accounts for {sum(w)}",
                details={"center": center, "w": w},
            )
        entries[EigLabel.concrete(center)] = conjugate_partition(Partition(w))
    t = JordanType(entries)
    assert t.n == n
    return t


# ---------------------------------------------------------------------------
# Monte-Carlo surveys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbReport:
    """Outcome of a random-perturbation survey around one structure."""

    base: JordanType
    eps: float
    trials: int
    seed: int
    mode: str
    cluster_radius: float
    tol: float
    observed: tuple[tuple[int, str], ...]  # (trial index, observed bundle)
    violations: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, notation in self.observed:
            out[notation] = out.get(notation, 0) + 1
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))


def _random_direction(rng, n: int, mode: str) -> np.ndarray:
    R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if mode == "strict_upper":
        R = np.triu(R, 1)
    elif mode != "dense":
        raise ValueError(f"unknown perturbation mode {mode!r}")
    norm = np.linalg.norm(R)
    return R / norm if norm > 0 else R


def random_survey(
    t: JordanType,
    eps: float,
    trials: int,
    seed: int,
    mode: str = "dense",
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    tol: float = DEFAULT_RANK_TOL,
    graph=None,
) -> PerturbReport:
    """Perturb the canonical matrix of ``t`` and record observed bundles.

    Every observed bundle must be reachable from the bundle of ``t`` in
    the bundle closure graph; trials that are not (or whose structure
    estimate is ambiguous) land in the violation list.  Identical seeds
    give identical reports.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    J = jordan_matrix(t)
    n = t.n
    if graph is None:
        graph = build_bundle_graph(n)
    base = canonical_bundle_labeling(t)
    children = np.random.SeedSequence(seed).spawn(trials)
    observed, violations = [], []
    for k in range(trials):
        rng = np.random.default_rng(children[k])
        A = J + eps * _random_direction(rng, n, mode)
        try:
            est = numeric_jordan_type(A, cluster_radius, tol)
            b = canonical_bundle_labeling(est)
        except NumericalAmbiguityError as exc:
            violations.append({"trial": k, "reason": f"ambiguous estimate: {exc}"})
            observed.append((k, "?"))
            continue
        notation = format_display(b)
        observed.append((k, notation))
        if not reachable(graph, base, b):
            violations.append(
                {"trial": k, "reason": "unreachable bundle", "observed": notation}
            )
    return PerturbReport(
        base=t,
        eps=eps,
        trials=trials,
        seed=seed,
        mode=mode,
        cluster_radius=cluster_radius,
        tol=tol,
        observed=tuple(observed),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# sparse witnesses for graph edges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrowWitness:
    positions: tuple[tuple[int, int], ...]
    matrix: np.ndarray


def _is_single_zero_label(t: JordanType) -> bool:
    return len(t.labels) == 1 and not t.labels[0].is_symbolic and t.labels[0].value == 0


def find_arrow_witness(
    J: JordanType,
    J2: JordanType,
    eps: float = 1e-3,
    tol: float = DEFAULT_RANK_TOL,
) -> ArrowWitness | None:
    """Sparse strictly-upper perturbation moving J into the class of J2.

    Searches single entries of magnitude eps first, then pairs (each
    eps/sqrt(2)).  Both structures must be nilpotent (single eigenvalue 0)
    with closure_leq(J, J2).  Returns None when the search space is
    exhausted.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not (_is_single_zero_label(J) and _is_single_zero_label(J2)):
        raise ValueError("witness search covers nilpotent structures only")
    if not closure_leq(J, J2):
        raise ValueError(
            f"{format_compact(J)} does not perturb into {format_compact(J2)}"
        )
    n = J.n
    target = J2.entries[0][1]
    Jm = jordan_matrix(J)
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def try_entries(entries, value):
        E = np.zeros((n, n), dtype=complex)
        for i, j in entries:
            E[i, j] = value
        A = Jm + E
        w = numeric_weyr(A, 0.0, tol)
        if sum(w) == n and conjugate_partition(Partition(w)) == target:
            return ArrowWitness(positions=tuple(entries), matrix=E)
        return None

    for pos in positions:
        hit = try_entries([pos], eps)
        if hit:
            return hit
    for pair in itertools.combinations(positions, 2):
        hit = try_entries(list(pair), eps / np.sqrt(2))
        if hit:
            return hit
    return None
