"""Seeded inputs for the three workloads.

Everything here is plain data (argv lists, numpy arrays, tuples); the
program's own types are built from it by the worker, and the oracles read
the same data to know what each output should be.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import random

import numpy as np

# ---------------------------------------------------------------------------
# graph-atlas
# ---------------------------------------------------------------------------

MAX_GRAPH_N = 8  # the program's DEFAULT_MAX_N; orders 9-12 join once it is raised
N8_ARGV = ["graph", "bundle", "--n", "8", "--format", "json"]
# probed in survey and numerics rounds so that the congruence layer shows in traces
PROBE_CONGR_ARGV = ["graph", "congr", "--n", "3", "--kind", "bundles"]


def graph_atlas_argvs(seed: int) -> list[list[str]]:
    """Every `strata graph` process of one graph-atlas round, in seeded order."""
    argvs = [["graph", "bundle", "--n", str(n), "--format", "json"] for n in range(1, MAX_GRAPH_N + 1)]
    argvs += [["graph", "bundle", "--n", str(n), "--format", "dot"] for n in (2, 4, 6, 8)]
    for n in (4, 6, 8):
        argvs.append(["graph", "sim", "--n", str(n)])
        argvs.append(["graph", "sim", "--n", str(n), "--nilpotent"])
    argvs.append(["graph", "sim", "--n", "6", "--nilpotent", "--format", "dot"])
    for n in (2, 3):
        for kind in ("classes", "bundles"):
            argvs.append(["graph", "congr", "--n", str(n), "--kind", kind])
            argvs.append(["graph", "congr", "--n", str(n), "--kind", kind, "--format", "dot"])
    argvs.append(["graph", "star", "--n", "2"])
    argvs.append(["graph", "star", "--n", "2", "--format", "dot"])
    random.Random(seed).shuffle(argvs)
    return argvs


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

SURVEY_BASES = ("(0)^4", "(0)^2 (1)^2", "(0)^3 (0)^2 (0)", "(0)^2 (0)^2 (1)^2")
SURVEY_MODES = ("dense", "strict_upper")
SURVEY_TRIALS = 2000
SURVEY_EPS = "1e-3"
PROBE_SURVEY_BASE = "(0)^3 (0)^2 (0)"


def survey_argv(base: str, mode: str, trials: int, seed: int) -> list[str]:
    return [
        "survey", "--jordan", base, "--eps", SURVEY_EPS, "--trials", str(trials),
        "--seed", str(seed), "--mode", mode, "--full",
    ]


def survey_argvs(seed: int) -> list[list[str]]:
    """Every `strata survey` process of one survey round."""
    rng = random.Random(seed)
    argvs = [
        survey_argv(base, mode, SURVEY_TRIALS, rng.randrange(2**31))
        for base in SURVEY_BASES
        for mode in SURVEY_MODES
    ]
    rng.shuffle(argvs)
    return argvs


def probe_survey_argv(seed: int) -> list[str]:
    """Survey probe of the graph-atlas and numerics rounds."""
    return survey_argv(PROBE_SURVEY_BASE, "strict_upper", SURVEY_TRIALS, seed)


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

# The estimator battery is drawn from this fixed seed, not from --seed: the
# program's two estimator faults fail a fixed subset of these draws, and the
# failed share must be identical in every run.
ESTIMATE_SEED = 20130151
ESTIMATE_DRAWS = 3
ESTIMATE_COND = 1e2
REDUCE_EPS = 1e-5
REDUCE_DRAWS = 6  # per order n = 2..12, with 1, 2, 3, 1, 2, 3 eigenvalues
CLASSIFY_DRAWS = 30  # random congruences per catalogue form
WITNESS_MAX_N = 5
EIG_POOL = (0.0, 1.0, -1.0, 2j, 1 + 1j, -2.0)


def partitions(n: int, largest: int | None = None):
    """Partitions of n as descending tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def canonical_structure(struct: dict) -> tuple:
    """(eigenvalue, partition) pairs in the program's Jordan-matrix layout:
    eigenvalues by (real, imag), block sizes descending."""
    return tuple(
        (complex(lam), tuple(sorted(p, reverse=True)))
        for lam, p in sorted(struct.items(), key=lambda kv: (complex(kv[0]).real, complex(kv[0]).imag))
    )


def jordan(struct: dict) -> np.ndarray:
    """Jordan matrix in the program's layout."""
    blocks = [(lam, m) for lam, p in canonical_structure(struct) for m in p]
    n = sum(m for _, m in blocks)
    J = np.zeros((n, n), dtype=complex)
    off = 0
    for lam, m in blocks:
        for i in range(m):
            J[off + i, off + i] = lam
            if i + 1 < m:
                J[off + i, off + i + 1] = 1.0
        off += m
    return J


def unitary(rng, n: int) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _random_partition(rng, m: int) -> tuple:
    parts = list(partitions(m))
    return parts[rng.integers(len(parts))]


def random_structure(rng, n: int) -> dict:
    """A structure of order n with one to three eigenvalues from EIG_POOL.

    A scalar matrix (one eigenvalue, all blocks 1x1) has its eigenvalue and
    blocks drawn again: the codimension routines rank the tangent operator
    against its own largest singular value, and for a scalar matrix moved
    by a unitary similarity that operator is all roundoff, so the rank
    comes out wrong."""
    k = int(rng.integers(1, min(3, n) + 1))
    while True:
        lams = [EIG_POOL[i] for i in rng.choice(len(EIG_POOL), size=k, replace=False)]
        cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
        mults = np.diff([0, *cuts, n])
        struct = {complex(lam): _random_partition(rng, int(m)) for lam, m in zip(lams, mults)}
        if k > 1 or max(next(iter(struct.values()))) > 1:
            return struct


def shaped_structure(n: int, draw: int) -> dict:
    """A structure fixed by (n, draw), so that the cost of reducing it does
    not change with the seed: 1 + draw % 3 eigenvalues from EIG_POOL with
    near-equal multiplicities."""
    k = min(1 + draw % 3, n)
    lams = [EIG_POOL[(draw + i) % len(EIG_POOL)] for i in range(k)]
    mults = [n // k + (1 if i < n % k else 0) for i in range(k)]
    struct = {}
    for i, (lam, m) in enumerate(zip(lams, mults)):
        parts = list(partitions(m))
        struct[complex(lam)] = parts[(draw // 3 + i) * 7 % len(parts)]
    return struct


# catalogue forms as (kind, size, param) blocks in catalogue order;
# "lam" and "mu" mark free parameters filled from the seed
CONGRUENCE_FORMS = (
    (("N", 1, None), ("N", 1, None)),
    (("Gamma", 1, None), ("N", 1, None)),
    (("Gamma", 1, None), ("Gamma", 1, None)),
    (("H", 2, -1.0),),
    (("Gamma", 2, None),),
    (("H", 2, "lam"),),
    (("N", 1, None), ("N", 1, None), ("N", 1, None)),
    (("Gamma", 1, None), ("N", 1, None), ("N", 1, None)),
    (("Gamma", 1, None), ("Gamma", 1, None), ("N", 1, None)),
    (("Gamma", 1, None), ("Gamma", 1, None), ("Gamma", 1, None)),
    (("H", 2, -1.0), ("N", 1, None)),
    (("H", 2, "lam"), ("N", 1, None)),
    (("N", 2, None), ("N", 1, None)),
    (("Gamma", 2, None), ("N", 1, None)),
    (("H", 2, -1.0), ("Gamma", 1, None)),
    (("H", 2, "lam"), ("Gamma", 1, None)),
    (("Gamma", 2, None), ("Gamma", 1, None)),
    (("N", 3, None),),
    (("Gamma", 3, None),),
)

STAR_FORMS = (
    (("N", 1, None), ("N", 1, None)),
    (("U", 1, "mu"), ("N", 1, None)),
    (("U", 1, "mu"), ("U", 1, "mu")),
    (("U", 2, "mu"),),
    (("H*", 2, "lam"),),
    (("N", 1, None), ("N", 1, None), ("N", 1, None)),
    (("U", 1, "mu"), ("N", 1, None), ("N", 1, None)),
    (("U", 1, "mu"), ("U", 1, "mu"), ("N", 1, None)),
    (("U", 1, "mu"), ("U", 1, "mu"), ("U", 1, "mu")),
    (("U", 2, "mu"), ("U", 1, "mu")),
    (("U", 2, "mu"), ("N", 1, None)),
    (("H*", 2, "lam"), ("U", 1, "mu")),
    (("H*", 2, "lam"), ("N", 1, None)),
    (("N", 2, None), ("N", 1, None)),
    (("N", 3, None),),
    (("U", 3, "mu"),),
)


def _fill_form(rng, form) -> tuple:
    """Seeded parameters: |lam| in [1.5, 3]; unimodular mu's at angles in
    (0.1, 1.5) at least 0.2 apart, so no two agree up to sign."""
    count = sum(1 for _, _, p in form if p == "mu")
    slots = iter(rng.permutation(count))
    out = []
    for kind, size, param in form:
        if param == "lam":
            param = complex(rng.uniform(1.5, 3.0) * np.exp(1j * rng.uniform(0.2, 2.9)))
        elif param == "mu":
            angle = 0.1 + 1.4 * (next(slots) + rng.uniform(0.0, 1.0 - 0.2 * count / 1.4)) / count
            param = complex(np.exp(1j * angle))
        out.append((kind, size, param))
    # equal-kind blocks in the program's catalogue order (size desc, param real/imag)
    kind_order = {"H": 0, "H*": 0, "Gamma": 1, "U": 1, "N": 2}

    def key(b):
        p = complex(b[2]) if b[2] is not None else 0j
        return (kind_order[b[0]], -b[1], p.real, p.imag)

    return tuple(sorted(out, key=key))


def _jblock(m: int, lam: complex = 0.0) -> np.ndarray:
    J = np.diag(np.full(m, complex(lam)))
    J[np.arange(m - 1), np.arange(1, m)] = 1.0
    return J


def block_matrix(kind: str, size: int, param) -> np.ndarray:
    """Horn-Sergeichuk canonical blocks, written out from the catalogue."""
    if kind in ("H", "H*"):
        m = size // 2
        out = np.zeros((size, size), dtype=complex)
        out[:m, m:] = np.eye(m)
        out[m:, :m] = _jblock(m, param)
        return out
    if kind == "Gamma":
        return {
            1: np.array([[1]]),
            2: np.array([[0, -1], [1, 1]]),
            3: np.array([[0, 0, 1], [0, -1, -1], [1, 1, 0]]),
        }[size].astype(complex)
    if kind == "U":
        return complex(param) * {
            1: np.array([[1]]),
            2: np.array([[0, 1], [1, 1j]]),
            3: np.array([[0, 0, 1], [0, 1, 1j], [1, 1j, 0]]),
        }[size].astype(complex)
    return _jblock(size)


def form_matrix(form) -> np.ndarray:
    n = sum(size for _, size, _ in form)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for kind, size, param in form:
        out[off : off + size, off : off + size] = block_matrix(kind, size, param)
        off += size
    return out


def _diag_orbit_input(rng, n: int, star: bool) -> tuple:
    """Diagonal matrix with r nonzero entries (unimodular ones drawn from a
    small pool of +-angles for *congruence, so some pairs agree up to sign)."""
    r = int(rng.integers(1, n + 1))
    if star:
        angles = rng.uniform(0.1, 1.5, size=max(1, n // 3))
        vals = [np.exp(1j * angles[rng.integers(len(angles))]) * rng.choice([1, -1]) for _ in range(r)]
    else:
        vals = [rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(r)]
    return tuple(complex(v) for v in vals) + (0j,) * (n - r)


def numerics_pass(seed: int, index: int) -> dict:
    """Inputs of one numerics pass; pass ``index`` of a run gets its own draw."""
    rng = np.random.default_rng([seed, index])
    codim, reduce = [], []
    for n in range(2, 13):
        t = random_structure(rng, n)
        J = jordan(t)
        Q = unitary(rng, n)
        codim += [("sim", {"struct": t}, J), ("sim", {"struct": t}, Q @ J @ Q.conj().T)]
        for action, star in (("congr", False), ("star", True)):
            d = _diag_orbit_input(rng, n, star)
            D = np.diag(d)
            Q = unitary(rng, n)
            moved = Q.conj().T @ D @ Q if star else Q.T @ D @ Q
            codim += [(action, {"diag": d}, D), (action, {"diag": d}, moved)]
        for draw in range(REDUCE_DRAWS):
            t = shaped_structure(n, draw)
            E = REDUCE_EPS * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
            reduce.append((t, E))
    codim.append(scalar_codim_case())
    congr_forms = [_fill_form(rng, f) for f in CONGRUENCE_FORMS]
    star_forms = [_fill_form(rng, f) for f in STAR_FORMS]
    classify = []
    for form in congr_forms:
        n = sum(size for _, size, _ in form)
        for _ in range(CLASSIFY_DRAWS):
            P = unitary(rng, n) @ np.diag(rng.uniform(1.0, 4.0, size=n)) @ unitary(rng, n)
            classify.append((form, P.T @ form_matrix(form) @ P))
    return {
        "codim": codim,
        "reduce": reduce,
        "congr_forms": congr_forms,
        "star_forms": star_forms,
        "classify": classify,
        "witness": witness_edges(),
        "estimate": estimate_battery(index),
        "template_rng_seed": int(rng.integers(2**31)),
    }


def scalar_codim_case() -> tuple:
    """U (2i I) U* for a fixed unitary U: its similarity tangent operator is
    all roundoff, which tangent.numeric_rank (ranking against the operator's
    own largest singular value) counts as rank, so this codimension fails
    in every run.  It is the same input in every run, whatever the seed."""
    struct = {2j: (1, 1, 1)}
    U = unitary(np.random.default_rng(ESTIMATE_SEED), 3)
    return ("sim", {"struct": struct, "known_fault": "tangent_own_scale_rank"}, U @ jordan(struct) @ U.conj().T)


def dominates(p: tuple, q: tuple) -> bool:
    """Every prefix sum of p is >= the matching prefix sum of q."""
    sp = sq = 0
    for k in range(max(len(p), len(q))):
        sp += p[k] if k < len(p) else 0
        sq += q[k] if k < len(q) else 0
        if sp < sq:
            return False
    return True


def dominance_covers(n: int) -> set:
    """Covering pairs (q, p) of the dominance order: q < p, nothing between."""
    parts = list(partitions(n))
    below = {(q, p) for q in parts for p in parts if q != p and dominates(p, q)}
    return {
        (q, p)
        for q, p in below
        if not any((q, m) in below and (m, p) in below for m in parts)
    }


def witness_edges() -> list[tuple]:
    """Nilpotent covering edges (source partition, target partition)."""
    return sorted(e for n in range(2, WITNESS_MAX_N + 1) for e in dominance_covers(n))


def estimate_structures() -> list[dict]:
    """Every nilpotent and two-eigenvalue (0 and 1) structure of order <= 6."""
    out = [{0.0: p} for n in range(1, 7) for p in partitions(n)]
    for n in range(2, 7):
        for a in range(1, n):
            out += [{0.0: p, 1.0: q} for p in partitions(a) for q in partitions(n - a)]
    return out


def estimate_battery(index: int) -> list[tuple]:
    """(structure, transform kind, matrix) for every battery case of one pass."""
    rng = np.random.default_rng([ESTIMATE_SEED, index])
    out = []
    for struct in estimate_structures():
        J = jordan(struct)
        n = J.shape[0]
        for _ in range(ESTIMATE_DRAWS):
            Q = unitary(rng, n)
            out.append((struct, "unitary", Q @ J @ Q.conj().T))
            S = unitary(rng, n) @ np.diag(np.geomspace(1.0, ESTIMATE_COND, n)) @ unitary(rng, n)
            out.append((struct, "cond1e2", S @ J @ np.linalg.inv(S)))
    return out
