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
from functools import lru_cache

import numpy as np

from .errors import NumericalAmbiguityError
from .graphs import build_bundle_graph, closure_leq, reachable
from .structure import (
    EigLabel,
    JordanType,
    Partition,
    bundle_key,
    bundle_of_key,
    canonical_bundle_labeling,
    conjugate_partition,
    format_compact,
    format_display,
)
from .tangent import DEFAULT_RANK_TOL, RANK_BAND, band_rank, check_tol
from .templates import jordan_matrix

DEFAULT_CLUSTER_RADIUS = 1e-6
# trials a survey estimates together; a fixed size keeps its memory flat
SURVEY_STACK = 64
# a stacked |z| may differ from the scalar one in the last bit, so a trial
# counts as having all eigenvalues apart only with this much room
_APART_MARGIN = 1.0 + 1e-9


def _check_radius(cluster_radius: float) -> None:
    if not (math.isfinite(cluster_radius) and cluster_radius > 0):
        raise ValueError(f"cluster radius must be finite and > 0, got {cluster_radius}")


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of the stack A (k, n, n), as (k, n)."""
    i = np.arange(A.shape[1])
    lower = i[:, None] > i
    # exactly triangular matrices keep their diagonal as exact eigenvalues;
    # generic eig would scatter defective ones by roundoff^(1/m)
    full = A[:, lower].any(axis=1) & A[:, lower.T].any(axis=1)
    if full.all():
        return np.linalg.eigvals(A)
    eigs = np.diagonal(A, axis1=1, axis2=2).copy()
    if full.any():
        eigs[full] = np.linalg.eigvals(A[full])
    return eigs


def _linkage(eigs: np.ndarray, cluster_radius: float) -> list[tuple[complex, int]]:
    """Single-linkage clusters of one eigenvalue vector, sorted by center."""
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


def _clusters(eigs: np.ndarray, cluster_radius: float) -> list:
    """_linkage of each row of eigs (k, n).

    A row whose eigenvalues are all farther apart than the radius is all
    singletons, sorted by center; equal rows (every strictly upper
    perturbation of one Jordan matrix) share one linkage.
    """
    close = np.abs(eigs[:, :, None] - eigs[:, None, :]) <= cluster_radius * _APART_MARGIN
    apart = close.sum(axis=(1, 2)) == eigs.shape[1]  # each eigenvalue close to itself only
    ordered = []
    if apart.any():
        order = np.lexsort((eigs.imag, eigs.real), axis=1)
        ordered = np.take_along_axis(eigs, order, axis=1).tolist()
    out, memo = [], {}
    for k, sep in enumerate(apart.tolist()):
        if sep:
            out.append([(z, 1) for z in ordered[k]])
            continue
        key = eigs[k].tobytes()
        if key not in memo:
            memo[key] = _linkage(eigs[k], cluster_radius)
        out.append(memo[key])
    return out


def _weyr(A: np.ndarray, lam: np.ndarray, tol: float) -> list:
    """numeric_weyr of each A[k] at lam[k]: the block-count tuple, or the
    NumericalAmbiguityError it raises.

    Every row takes the same power, SVD and band steps as on its own; only
    a row with a singular value in the band calls band_rank, which raises
    the error.
    """
    m, n = A.shape[0], A.shape[1]
    P = np.eye(n, dtype=complex)  # broadcast against the stack by the first product
    B = A - lam[:, None, None] * P
    out: list = [None] * m
    running = [(k, [], n) for k in range(m)]  # (row, block counts so far, previous rank)
    for _ in range(n):
        P = P @ B
        s = np.linalg.svd(P, compute_uv=False)
        thr = tol * s[:, :1]
        inside = (thr / RANK_BAND < s) & (s < thr * RANK_BAND)
        rows = zip(running, s[:, 0].tolist(), inside.tolist(), (s >= thr).tolist())
        kept, running = [], []
        for i, ((k, w, prev), top, band, above) in enumerate(rows):
            if top == 0.0:
                r = 0
            elif any(band):
                try:
                    band_rank(s[i], thr[i, 0])
                except NumericalAmbiguityError as exc:
                    out[k] = exc
                continue
            else:
                r = sum(above)
            wj = prev - r
            if wj < 0 or (w and wj > w[-1]):
                out[k] = NumericalAmbiguityError(
                    "rank sequence of powers is not monotone",
                    details={"w": w + [wj]},
                )
                continue
            if wj:
                w.append(wj)
            if wj == 0 or r == 0:
                out[k] = tuple(w)
                continue
            kept.append(i)
            running.append((k, w, r))
        if not running:
            break
        if len(kept) < len(s):
            P, B = P[kept], B[kept]
    for k, w, _ in running:  # only when n = 0
        out[k] = tuple(w)
    return out


@lru_cache(maxsize=1024)
def _block_sizes(w: tuple[int, ...]) -> Partition:
    return conjugate_partition(Partition(w))


def _cluster_sizes(found):
    """(center, block sizes) per cluster from (center, multiplicity, weyr
    result) per cluster, or the first error met in center order."""
    out = []
    for center, mult, w in found:
        if isinstance(w, NumericalAmbiguityError):
            return w
        if sum(w) != mult:
            return NumericalAmbiguityError(
                f"cluster at {center:.6g} has multiplicity {mult} but the "
                f"rank sequence accounts for {sum(w)}",
                details={"center": center, "w": w},
            )
        out.append((center, _block_sizes(w)))
    return out


def _estimate_sizes(A: np.ndarray, cluster_radius: float, tol: float) -> list:
    """_cluster_sizes of each matrix of the stack A (k, n, n)."""
    clusters = _clusters(_eigenvalues(A), cluster_radius)
    # one Weyr stack for every cluster of multiplicity > 1, read back in order
    jobs = [(k, c) for k, cs in enumerate(clusters) for c, mult in cs if mult > 1]
    ws = iter(())
    if jobs:
        rows, centers = zip(*jobs)
        ws = iter(_weyr(A[list(rows)], np.array(centers), tol))
    return [
        _cluster_sizes([(c, mult, (1,) if mult == 1 else next(ws)) for c, mult in cs])
        for cs in clusters
    ]


def _estimate(A: np.ndarray, cluster_radius: float, tol: float) -> list:
    """numeric_jordan_type of each matrix of the stack A (k, n, n): the
    JordanType, or the NumericalAmbiguityError it raises on its own."""
    return [
        s if isinstance(s, NumericalAmbiguityError)
        else JordanType({EigLabel.concrete(c): p for c, p in s})
        for s in _estimate_sizes(A, cluster_radius, tol)
    ]


def eigen_clusters(A, cluster_radius: float = DEFAULT_CLUSTER_RADIUS):
    """Single-linkage grouping of the eigenvalues of A.

    Returns (center, multiplicity) pairs sorted by center; multiplicities
    sum to n.  The radius must be finite and > 0.
    """
    _check_radius(cluster_radius)
    A = np.asarray(A, dtype=complex)
    return _clusters(_eigenvalues(A[None]), cluster_radius)[0]


def numeric_weyr(A, lam, tol: float = DEFAULT_RANK_TOL) -> tuple[int, ...]:
    """Block-count sequence of A at the eigenvalue lam.

    Entry j is rank((A - lam I)^(j-1)) - rank((A - lam I)^j); ranks use a
    singular-value threshold relative to each power's own largest
    singular value.  Ill-separated singular values raise
    NumericalAmbiguityError.
    """
    check_tol(tol)
    A = np.asarray(A, dtype=complex)
    w = _weyr(A[None], np.array([complex(lam)]), tol)[0]
    if isinstance(w, NumericalAmbiguityError):
        raise w
    return w


def numeric_jordan_type(
    A,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    tol: float = DEFAULT_RANK_TOL,
) -> JordanType:
    """Jordan structure estimate with cluster centers as eigenvalues."""
    _check_radius(cluster_radius)
    check_tol(tol)
    A = np.asarray(A, dtype=complex)
    t = _estimate(A[None], cluster_radius, tol)[0]
    if isinstance(t, NumericalAmbiguityError):
        raise t
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


def _random_directions(children, n: int, mode: str) -> np.ndarray:
    """One unit-Frobenius-norm direction per seed sequence, as a (k, n, n)
    stack; each draw is normalised on its own, as a lone draw would be."""
    X = np.array([np.random.default_rng(c).standard_normal((2, n, n)) for c in children])
    R = X[:, 0] + 1j * X[:, 1]
    if mode == "strict_upper":
        R = np.triu(R, 1)
    norms = np.array([np.linalg.norm(r) for r in R])
    return R / np.where(norms > 0, norms, 1.0)[:, None, None]


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
    estimate is ambiguous) land in the violation list.  Trial k draws its
    direction from the k-th child of ``SeedSequence(seed)``, so identical
    seeds give identical reports.  Trials are estimated SURVEY_STACK at a
    time with the estimator behind numeric_jordan_type; the report equals
    one estimated a trial at a time.
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
    if mode not in ("dense", "strict_upper"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    _check_radius(cluster_radius)
    check_tol(tol)
    seeds = np.random.SeedSequence(seed)
    # sorted block sizes -> (notation, reachable from the base)
    labels: dict[tuple, tuple[str, bool]] = {}
    observed, violations = [], []
    for start in range(0, trials, SURVEY_STACK):
        A = J + eps * _random_directions(seeds.spawn(min(SURVEY_STACK, trials - start)), n, mode)
        for k, est in enumerate(_estimate_sizes(A, cluster_radius, tol), start):
            if isinstance(est, NumericalAmbiguityError):
                violations.append({"trial": k, "reason": f"ambiguous estimate: {est}"})
                observed.append((k, "?"))
                continue
            key = tuple(sorted(p.parts for _, p in est))
            if key not in labels:
                b = bundle_of_key(bundle_key(key))
                labels[key] = (format_display(b), reachable(graph, base, b))
            notation, ok = labels[key]
            observed.append((k, notation))
            if not ok:
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
