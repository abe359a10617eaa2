"""Empirical side: numerical Jordan structure of perturbed matrices.

One estimator works on a stack of matrices, a single matrix being a stack of
one.  It takes eigenvalues from ``numpy.linalg.eigvals``, whose LAPACK
balancing returns those of a permuted-triangular matrix (a strict-upper survey
draw) exactly, clusters them by single linkage in one vectorised pass, and
takes the block-count sequence of each cluster from rank differences of powers
of A - lambda I, every rank decided by the band rule of ``tangent.band_ranks``.
Scaling A - lambda I exactly (``tangent.unit_scale``) keeps every power finite
and moves no rank.  Monte-Carlo surveys check that every structure observed
near a canonical matrix is reachable in the bundle closure graph.  A small
search routine finds sparse perturbations realizing individual graph edges.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ._value import Value
from .errors import NumericalAmbiguityError, raise_ambiguous
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
from .tangent import (
    DEFAULT_RANK_TOL, _closure, band_ranks, check_finite, check_positive, check_tol, unit_scale,
)
from .templates import jordan_matrix, jordan_rows

DEFAULT_CLUSTER_RADIUS = 1e-6
# trials a survey estimates together; a fixed size keeps its memory flat
SURVEY_STACK = 64


def _clusters(eigs: np.ndarray, cluster_radius: float) -> list:
    """Single-linkage clusters of each row of eigs (k, n): (center,
    multiplicity) pairs sorted by center.

    Eigenvalues within the radius are linked over chains of any length (``_closure``);
    a cluster is named by its lowest member and centered at the mean of its members.
    """
    k, n = eigs.shape
    linked = _closure(np.abs(eigs[:, :, None] - eigs[:, None, :]) <= cluster_radius)
    rows, heads = np.nonzero(linked.argmax(-1) == np.arange(n))
    members = linked[rows, heads]
    mults = members.sum(axis=1)
    centers = eigs[rows, heads]
    for m in set(mults.tolist()) - {1}:  # sum members contiguously, in order, as np.mean does
        at = mults == m
        centers[at] = eigs[rows[at]][members[at]].reshape(-1, m).sum(axis=1) / m
    order = np.lexsort((centers.imag, centers.real, rows))
    out = [[] for _ in range(k)]
    for r, c, m in zip(rows.tolist(), centers[order].tolist(), mults[order].tolist()):
        out[r].append((c, m))
    return out


def _weyr(A: np.ndarray, lam: np.ndarray, tol: float) -> list:
    """numeric_weyr of each A[k] at lam[k]: the block-count tuple, or the
    NumericalAmbiguityError it raises.

    Every row takes the same power, SVD and band_ranks steps as on its own.
    """
    m, n = A.shape[0], A.shape[1]
    P = np.eye(n, dtype=complex)  # broadcast against the stack by the first product
    B = unit_scale(A - lam[:, None, None] * P)  # each row scaled exactly, so no power overflows
    out: list = [()] * m  # what each row gets when n = 0 and no power is taken
    running = [(k, [], n) for k in range(m)]  # (row, block counts so far, previous rank)
    for _ in range(n):
        P = P @ B
        s = np.linalg.svd(P, compute_uv=False)
        rows = zip(running, band_ranks(s, tol, s[:, 0]))  # each power against its own largest
        kept, running = [], []
        for i, ((k, w, prev), r) in enumerate(rows):
            if isinstance(r, NumericalAmbiguityError):
                out[k] = r
                continue
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
        if len(kept) < len(P):
            P, B = P[kept], B[kept]
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
    clusters = _clusters(np.linalg.eigvals(A), cluster_radius)
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


def eigen_clusters(A, cluster_radius: float = DEFAULT_CLUSTER_RADIUS):
    """Single-linkage grouping of the eigenvalues of A.

    Returns (center, multiplicity) pairs sorted by center; multiplicities
    sum to n.  The radius must be finite and > 0.
    """
    check_positive(cluster_radius, "cluster radius")
    A = check_finite(A)
    return _clusters(np.linalg.eigvals(A[None]), cluster_radius)[0]


def numeric_weyr(A, lam, tol: float = DEFAULT_RANK_TOL) -> tuple[int, ...]:
    """Block-count sequence of A at the eigenvalue lam.

    Entry j is rank((A - lam I)^(j-1)) - rank((A - lam I)^j); ranks use a
    singular-value threshold relative to each power's own largest
    singular value.  Ill-separated singular values raise
    NumericalAmbiguityError.
    """
    check_tol(tol)
    # complex() would parse a string, and a bool is no eigenvalue
    if isinstance(lam, (bool, np.bool_, str, bytes)):
        raise TypeError(f"eigenvalue must be a number, got {lam!r}")
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"eigenvalue {lam} is not finite")
    A = check_finite(A)
    return raise_ambiguous(_weyr(A[None], np.array([lam]), tol))[0]


def numeric_jordan_type(
    A,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    tol: float = DEFAULT_RANK_TOL,
) -> JordanType:
    """Jordan structure estimate with cluster centers as eigenvalues."""
    check_positive(cluster_radius, "cluster radius")
    check_tol(tol)
    A = check_finite(A)
    sizes = raise_ambiguous(_estimate_sizes(A[None], cluster_radius, tol))[0]
    return JordanType({EigLabel.concrete(c): p for c, p in sizes})


# ---------------------------------------------------------------------------
# Monte-Carlo surveys
# ---------------------------------------------------------------------------


class PerturbReport(Value):
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


def _hash_chain(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32, i = start .. start + count - 1: the running
    constant of count - 1 steps of NumPy's SeedSequence hash.  As uint32, it
    wraps the hash without a warning or, under NEP 50, an OverflowError."""
    return np.array([init * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(start, start + count)], np.uint32)


_STATE_HASH = _hash_chain(0x8B51F9DD, 0x58F38DED, 0, 9)  # generate_state's eight steps
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_steps(words: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """One hash step of column j of the uint32 words at constant chain[j]."""
    v = (words ^ chain[:-1]) * chain[1:]
    return v ^ v >> 16


def _child_words(seeds, first: int, count: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each of
    ``seeds.spawn(first + count)[first:]``, one row each, for the
    SeedSequence ``seeds`` of an integer seed.

    NumPy's hash (O'Neill's seed_seq, PCG report 2014) in one uint32 pass.
    Child k hashes the seed's words, padded to four, then k.  The seed's
    part is ``seeds.pool``, after four hash steps a word.  k takes four more,
    one mixed into each pool word, and ``generate_state`` hashes the pool
    twice over.
    """
    steps = 4 * max(4, -(-int(seeds.entropy).bit_length() // 32))
    k = np.arange(first, first + count, dtype=np.uint32)[:, None]
    pool = _MIX_L * seeds.pool - _MIX_R * _hash_steps(k, _hash_chain(0x43B0D7E5, 0x931E8875, steps, 5))
    pool ^= pool >> 16
    state = _hash_steps(np.tile(pool, 2), _STATE_HASH)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """One child's seed words, handed to PCG64 as its SeedSequence would."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _random_directions(words: np.ndarray, n: int, mode: str) -> np.ndarray:
    """One unit-Frobenius-norm direction per row of ``_child_words``, as a
    (k, n, n) stack; each draw is normalised as a lone draw would be: the
    norm's two dot products run through BLAS on np.linalg.norm's strides."""
    X = np.empty((len(words), 2, n, n))
    for w, x in zip(words, X):
        np.random.Generator(np.random.PCG64(_Words(w))).standard_normal(out=x)
    R = X[:, 0] + 1j * X[:, 1]
    if mode == "strict_upper":
        R = np.triu(R, 1)
    re, im = (part.reshape(len(R), 1, n * n) for part in (R.real, R.imag))
    norms = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]
    return R / np.where(norms > 0, norms, 1.0)[:, None, None]


def random_survey(
    t: JordanType,
    eps: float,
    trials: int,
    seed: int,
    mode: str = "dense",
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    tol: float = DEFAULT_RANK_TOL,
) -> PerturbReport:
    """Perturb the canonical matrix of ``t`` and record observed bundles.

    Every observed bundle must be reachable from the bundle of ``t`` in
    the bundle closure graph; trials that are not (or whose structure
    estimate is ambiguous) land in the violation list.  Trial k draws its
    direction from the k-th child of ``SeedSequence(seed)``, so identical
    seeds give identical reports; the seed is an integer >= 0, and a spawn
    key is one uint32 word, so trials stay below 2**32.  Trials are drawn and
    estimated SURVEY_STACK at a time with the estimator behind
    numeric_jordan_type; the report equals one estimated a trial at a time.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise TypeError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials >= 1 << 32:
        raise ValueError(f"trials must be below 2**32, got {trials}")
    if isinstance(eps, bool) or not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if mode not in ("dense", "strict_upper"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    check_positive(cluster_radius, "cluster radius")
    check_tol(tol)
    seeds = np.random.SeedSequence(seed)  # NumPy's own error for a negative or non-integer seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    J = jordan_matrix(t)
    n = t.n
    graph = build_bundle_graph(n)
    base = canonical_bundle_labeling(t)
    # sorted block sizes -> (notation, reachable from the base)
    labels: dict[tuple, tuple[str, bool]] = {}
    observed, violations = [], []
    for start in range(0, trials, SURVEY_STACK):
        words = _child_words(seeds, start, min(SURVEY_STACK, trials - start))
        A = J + eps * _random_directions(words, n, mode)
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


class ArrowWitness(Value):
    positions: tuple[tuple[int, int], ...]
    matrix: np.ndarray


def _is_nilpotent(t: JordanType) -> bool:
    """Whether 0 is the only eigenvalue of ``t``, read off ``jordan_rows``,
    which refuses an order beyond the envelope first."""
    return {label for label, _ in jordan_rows(t)} == {EigLabel.concrete(0)}


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
    check_positive(eps, "eps")
    check_tol(tol)
    if not (_is_nilpotent(J) and _is_nilpotent(J2)):
        raise ValueError("witness search covers nilpotent structures only")
    if not closure_leq(J, J2):
        raise ValueError(
            f"{format_compact(J)} does not perturb into {format_compact(J2)}"
        )
    n = J.n
    target = J2.entries[0][1]
    Jm = jordan_matrix(J)
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for size, value in ((1, eps), (2, eps / np.sqrt(2))):
        for entries in itertools.combinations(positions, size):
            E = np.zeros((n, n), dtype=complex)
            for i, j in entries:
                E[i, j] = value
            w = numeric_weyr(Jm + E, 0.0, tol)
            if sum(w) == n and conjugate_partition(Partition(w)) == target:
                return ArrowWitness(positions=entries, matrix=E)
    return None
