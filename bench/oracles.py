"""Independent checks of the program's outputs.

Nothing here imports the program.  Each check recomputes what the output
should be from the input alone (closed-form orbit dimensions, the dominance
order, OEIS counts, tangent maps assembled in Kronecker form, exact rational
ranks) and returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import re

import numpy as np

from inputs import canonical_structure, dominance_covers, form_matrix, jordan, partitions

RANK_TOL = 1e-8
GREEK = "λμνξρστω"
SUPERSCRIPT = {s: str(d) for d, s in enumerate("⁰¹²³⁴⁵⁶⁷⁸⁹")}
A001970 = (1, 1, 3, 6, 14, 27, 58, 111, 223, 424, 817, 1527, 2870)


# ---------------------------------------------------------------------------
# counting and closed forms
# ---------------------------------------------------------------------------


def partition_count(n: int) -> int:
    return sum(1 for _ in partitions(n))


def euler_transform(seq: list[int]) -> list[int]:
    """b(n) for the multiset transform of a(1..): b = prod (1 - x^k)^(-a(k))."""
    N = len(seq) - 1
    c = [0] * (N + 1)
    for n in range(1, N + 1):
        c[n] = sum(d * seq[d] for d in range(1, n + 1) if n % d == 0)
    b = [1] + [0] * N
    for n in range(1, N + 1):
        b[n] = sum(c[k] * b[n - k] for k in range(1, n + 1)) // n
    return b


BUNDLE_COUNTS = euler_transform([0] + [partition_count(k) for k in range(1, 13)])
assert tuple(BUNDLE_COUNTS) == A001970, "Euler transform of p(n) disagrees with OEIS A001970"


def sim_codim(struct) -> int:
    """Similarity orbit codimension: sum over eigenvalues of sum (2i-1) p_i."""
    items = struct.values() if isinstance(struct, dict) else struct
    return sum(sum((2 * i + 1) * m for i, m in enumerate(sorted(p, reverse=True))) for p in items)


def orbit_dim(struct, bundle: bool) -> int:
    items = list(struct.values()) if isinstance(struct, dict) else list(struct)
    n = sum(sum(p) for p in items)
    return n * n - sim_codim(items) + (len(items) if bundle else 0)


def congr_diag_codim(d) -> int:
    """Congruence codimension of diag(d): r(r-1)/2 + (n-r)^2 + r(n-r), r = #nonzero."""
    n, r = len(d), sum(1 for z in d if z != 0)
    return r * (r - 1) // 2 + (n - r) ** 2 + r * (n - r)


def star_diag_codim(d) -> int:
    """Real *congruence codimension of diag(d), nonzero entries unimodular:
    r + 2 #{pairs with mu_i = +-mu_j} + 2 (n-r)^2 + 2 r (n-r)."""
    n = len(d)
    mus = [complex(z) for z in d if z != 0]
    r = len(mus)
    pairs = sum(
        1
        for i in range(r)
        for j in range(i + 1, r)
        if min(abs(mus[i] - mus[j]), abs(mus[i] + mus[j])) < 1e-9
    )
    return r + 2 * pairs + 2 * (n - r) ** 2 + 2 * r * (n - r)


def _rank(M: np.ndarray, scale: float) -> int:
    """Rank against a fixed reference scale (the base matrix's norm), so
    roundoff in an operator that should vanish never counts."""
    s = np.linalg.svd(M, compute_uv=False)
    thr = RANK_TOL * scale
    near = s[(s > 1e-2 * thr) & (s < 1e2 * thr)]
    if near.size:
        raise ValueError(f"oracle rank undecided: singular values {near} near the threshold")
    return int(np.sum(s > thr))


def tangent_codim(A: np.ndarray, action: str) -> int:
    """Orbit codimension from the tangent map in Kronecker form (column-major vec).

    Complex codimension for "sim" and "congr", real for "star"."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    scale = max(np.linalg.norm(A, 2), 1.0)
    I = np.eye(n)
    P = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            P[j + i * n, i + j * n] = 1.0  # vec(X^T) = P vec(X)
    if action == "sim":
        return n * n - _rank(np.kron(A.T, I) - np.kron(I, A), scale)
    if action == "congr":
        return n * n - _rank(np.kron(A.T, I) @ P + np.kron(I, A), scale)
    M1, M2 = np.kron(I, A), np.kron(A.T, I) @ P  # X*A + AX = M2 conj(x) + M1 x
    B1, B2 = M1 + M2, 1j * (M1 - M2)
    R = np.block([[B1.real, B2.real], [B1.imag, B2.imag]])
    return 2 * n * n - _rank(R, scale)


# ---------------------------------------------------------------------------
# notation
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(\([^)]*\)|[a-z])(?:\^(\d+))?$")


def parse_compact(text: str) -> dict:
    """Compact notation -> {label text: descending block sizes}."""
    out: dict[str, list[int]] = {}
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad token {tok!r}")
        out.setdefault(m.group(1), []).append(int(m.group(2) or 1))
    return {k: tuple(sorted(v, reverse=True)) for k, v in out.items()}


def parse_display(text: str) -> dict:
    """Figure notation ("λ²μ") -> {greek label: descending block sizes}."""
    out: dict[str, list[int]] = {}
    label, digits = None, ""

    def flush():
        if label is not None:
            out.setdefault(label, []).append(int(digits or 1))

    for ch in text:
        if ch in SUPERSCRIPT:
            digits += SUPERSCRIPT[ch]
        elif ch in GREEK:
            flush()
            label, digits = ch, ""
        else:
            raise ValueError(f"bad display character {ch!r} in {text!r}")
    flush()
    return {k: tuple(sorted(v, reverse=True)) for k, v in out.items()}


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

_DOT_NODE = re.compile(r'^  "([^"]*)" \[label="(.*) \(dim (-?\d+)\)"\];$')
_DOT_EDGE = re.compile(r'^  "([^"]*)" -> "([^"]*)"(?: \[label="(.*)"\])?;$')

# sampled member of every congruence / *congruence family, written out from
# the family labels (H(2) and sigma = 1/2 for the parametric ones)
CONGRUENCE_MEMBERS = {
    "zero2": (("N", 1, None), ("N", 1, None)),
    "h_minus1": (("H", 2, -1.0),),
    "diag_1_0": (("Gamma", 1, None), ("N", 1, None)),
    "gamma2": (("Gamma", 2, None),),
    "diag_1_1": (("Gamma", 1, None), ("Gamma", 1, None)),
    "h_lambda": (("H", 2, 2.0),),
    "zero3": (("N", 1, None),) * 3,
    "h_minus1_n1": (("H", 2, -1.0), ("N", 1, None)),
    "diag_1_0_0": (("Gamma", 1, None), ("N", 1, None), ("N", 1, None)),
    "h_lambda_n1": (("H", 2, 2.0), ("N", 1, None)),
    "gamma2_n1": (("Gamma", 2, None), ("N", 1, None)),
    "diag_1_1_0": (("Gamma", 1, None), ("Gamma", 1, None), ("N", 1, None)),
    "h_minus1_gamma1": (("H", 2, -1.0), ("Gamma", 1, None)),
    "diag_1_1_1": (("Gamma", 1, None),) * 3,
    "n3": (("N", 3, None),),
    "h_mu_gamma1": (("H", 2, 2.0), ("Gamma", 1, None)),
    "gamma2_gamma1": (("Gamma", 2, None), ("Gamma", 1, None)),
    "gamma3": (("Gamma", 3, None),),
}
STAR_MEMBERS = {
    "zero": (("N", 1, None), ("N", 1, None)),
    "diag_l_0": (("U", 1, 1.0), ("N", 1, None)),
    "diag_l_l": (("U", 1, 1.0), ("U", 1, 1.0)),
    "diag_l_minus_l": (("U", 1, 1.0), ("U", 1, -1.0)),
    "diag_mu_nu": (("U", 1, 1.0), ("U", 1, 1j)),
    "h_sigma": (("H*", 2, 0.5),),
    "u_tau": (("U", 2, 1.0),),
}


def graph_from_dot(text: str, parametric: bool) -> dict:
    """DOT output -> the JSON document shape (fields DOT carries)."""
    lines = text.split("\n")
    if lines[0] != "digraph strata {" or lines[-2:] != ["}", ""]:
        raise ValueError("DOT output is not one 'digraph strata { ... }' block")
    nodes, edges = [], []
    for line in lines[1:-2]:
        m = _DOT_NODE.match(line)
        if m:
            nodes.append(m.groups())
            continue
        m = _DOT_EDGE.match(line)
        if not m:
            raise ValueError(f"unparsed DOT line {line!r}")
        edges.append(m.groups())
    if parametric:
        return {
            "families": [{"id": i, "label": l, "dim": int(d)} for i, l, d in nodes],
            "arrows": [{"src": a, "dst": b, "condition": c or ""} for a, b, c in edges],
        }
    return {
        "vertices": [{"id": i, "notation": l, "dim": int(d)} for i, l, d in nodes],
        "edges": [[a, b] for a, b, c in edges if c is None],
        "_labelled_edges": [e for e in edges if e[2] is not None],
    }


def _implied_edges(vertices, edges) -> list:
    succ: dict[str, set] = {v: set() for v in vertices}
    for a, b in edges:
        succ[a].add(b)
    implied = []
    for a, b in edges:
        stack = [c for c in succ[a] if c != b]
        seen = set(stack)
        while stack:
            cur = stack.pop()
            if cur == b:
                implied.append((a, b))
                break
            for nxt in succ[cur] - seen:
                seen.add(nxt)
                stack.append(nxt)
    return implied


def check_closure_graph(doc: dict, n: int, what: str, nilpotent: bool) -> list[str]:
    """Bundle / class / nilpotent closure graph checks."""
    problems = []
    verts = {v["id"]: v for v in doc["vertices"]}
    if len(verts) != len(doc["vertices"]):
        problems.append("duplicate vertex ids")
    edges = [tuple(e) for e in doc["edges"]]
    bundle = what == "bundle"
    expected = partition_count(n) if nilpotent else BUNDLE_COUNTS[n]
    if len(verts) != expected:
        problems.append(f"{len(verts)} vertices, expected {expected}")
    for vid, v in verts.items():
        try:
            struct = parse_compact(vid)
        except ValueError as exc:
            problems.append(f"vertex {vid!r}: {exc}")
            continue
        if sum(sum(p) for p in struct.values()) != n:
            problems.append(f"vertex {vid!r} has order != {n}")
        if nilpotent and list(struct) != ["(0)"]:
            problems.append(f"vertex {vid!r} is not nilpotent")
        want = orbit_dim(struct, bundle)
        if v["dim"] != want:
            problems.append(f"vertex {vid!r} has dim {v['dim']}, expected {want}")
    for a, b in edges:
        if a not in verts or b not in verts:
            problems.append(f"edge {a!r} -> {b!r} names an unknown vertex")
        elif verts[b]["dim"] <= verts[a]["dim"]:
            problems.append(f"edge {a!r} -> {b!r} does not raise dim")
    if len(set(edges)) != len(edges):
        problems.append("duplicate edges")
    if problems:
        return problems
    for a, b in _implied_edges(verts, edges):
        problems.append(f"edge {a!r} -> {b!r} is implied by a longer path")
    if bundle:
        sources = [v for v in verts if not any(e[1] == v for e in edges)]
        sinks = [v for v in verts if not any(e[0] == v for e in edges)]
        if len(sources) != 1 or len(sinks) != 1:
            problems.append(f"{len(sources)} sources and {len(sinks)} sinks, expected one each")
    if nilpotent:
        ids = {tuple(parse_compact(vid)["(0)"]): vid for vid in verts}
        want = {(ids[q], ids[p]) for q, p in dominance_covers(n)}
        for e in sorted(want - set(edges)):
            problems.append(f"missing dominance covering edge {e}")
        for e in sorted(set(edges) - want):
            problems.append(f"edge {e} is not a dominance covering pair")
    return problems


def check_parametric_graph(doc: dict, n: int, kind: str, star: bool) -> list[str]:
    """Congruence / *congruence family graph checks."""
    problems = []
    members = STAR_MEMBERS if star else CONGRUENCE_MEMBERS
    fams = {f["id"]: f for f in doc["families"]}
    for fid, f in fams.items():
        if fid not in members:
            problems.append(f"unknown family {fid!r}")
            continue
        A = form_matrix(members[fid])
        if A.shape[0] != n:
            problems.append(f"family {fid!r} has order {A.shape[0]}, expected {n}")
            continue
        if kind == "bundles" and "nparams" not in f:
            continue  # DOT omits nparams; its dims are compared with the JSON twin
        ambient = 2 * n * n if star else n * n
        want = ambient - tangent_codim(A, "star" if star else "congr")
        if kind == "bundles":
            want += f["nparams"]
        if f["dim"] != want:
            problems.append(f"family {fid!r} has dim {f['dim']}, expected {want}")
    for a in doc["arrows"]:
        src, dst = fams.get(a["src"]), fams.get(a["dst"])
        if src is None or dst is None:
            problems.append(f"arrow {a['src']!r} -> {a['dst']!r} names an unknown family")
        elif dst["dim"] <= src["dim"]:
            problems.append(f"arrow {a['src']!r} -> {a['dst']!r} does not raise dim")
    return problems


def _graph_args(argv):
    what = argv[1]
    flags = [a for a in argv[2:] if a != "--nilpotent"]
    opts = dict(zip(flags[::2], flags[1::2]))
    return (
        what,
        int(opts["--n"]),
        "--nilpotent" in argv,
        opts.get("--kind", "classes"),
        opts.get("--format", "json"),
    )


def read_graph(argv, stdout: str) -> dict:
    """Parse a `strata graph` output (JSON or DOT) into the JSON shape."""
    what, _, _, _, fmt = _graph_args(argv)
    parametric = what in ("congr", "star")
    if fmt == "dot":
        return graph_from_dot(stdout, parametric)
    return json.loads(stdout)


def check_graph_output(argv, stdout: str) -> list[str]:
    what, n, nilpotent, kind, fmt = _graph_args(argv)
    try:
        doc = read_graph(argv, stdout)
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    if fmt == "dot" and doc.get("_labelled_edges"):
        return ["closure-graph DOT edges carry labels"]
    if what in ("congr", "star"):
        return check_parametric_graph(doc, n, kind, star=what == "star")
    return check_closure_graph(doc, n, what, nilpotent)


def same_graph(json_doc: dict, dot_doc: dict) -> list[str]:
    """The JSON and DOT outputs of one graph describe the same graph."""
    if "families" in json_doc:
        key_j = sorted((f["id"], f["label"], f["dim"]) for f in json_doc["families"])
        key_d = sorted((f["id"], f["label"], f["dim"]) for f in dot_doc["families"])
        arr_j = sorted((a["src"], a["dst"], a["condition"]) for a in json_doc["arrows"])
        arr_d = sorted((a["src"], a["dst"], a["condition"]) for a in dot_doc["arrows"])
    else:
        key_j = sorted((v["id"], v["notation"], v["dim"]) for v in json_doc["vertices"])
        key_d = sorted((v["id"], v["notation"], v["dim"]) for v in dot_doc["vertices"])
        arr_j = sorted(map(tuple, json_doc["edges"]))
        arr_d = sorted(map(tuple, dot_doc["edges"]))
    problems = []
    if key_j != key_d:
        problems.append("JSON and DOT list different vertices")
    if arr_j != arr_d:
        problems.append("JSON and DOT list different edges")
    return problems


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


def check_survey_output(argv, stdout: str):
    """Returns (problems, trials, failed trials, abstained trials).

    A trial fails when the program reports it unreachable or when its
    observation breaks the mode property: dense perturbations observe n
    distinct eigenvalues, strict_upper ones keep the diagonal and observe
    one Jordan block per eigenvalue with the base's multiplicities."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    trials = int(opts["--trials"])
    try:
        doc = json.loads(stdout)
        observed = doc["observed"]
        base = parse_compact(doc["base"])
    except (ValueError, KeyError) as exc:
        return [f"unreadable survey output: {exc}"], trials, 0, 0
    n = sum(sum(p) for p in base.values())
    problems = []
    if doc["trials"] != trials or len(observed) != trials:
        problems.append(f"{len(observed)} observations for {trials} trials")
    if sum(doc["observed_counts"].values()) != len(observed):
        problems.append("observed_counts do not add up to the observations")
    failed, abstained = {}, 0
    for v in doc["violations"]:
        if v["reason"] == "unreachable bundle":
            failed[v["trial"]] = "unreachable bundle"
        elif not v["reason"].startswith("ambiguous estimate"):
            problems.append(f"unknown violation reason {v['reason']!r}")
    mults = sorted(sum(p) for p in base.values())
    for k, notation in observed:
        if notation == "?":
            abstained += 1
            continue
        try:
            obs = parse_display(notation)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if doc["mode"] == "dense":
            ok = len(obs) == n and all(p == (1,) for p in obs.values())
        else:
            ok = all(len(p) == 1 for p in obs.values()) and sorted(p[0] for p in obs.values()) == mults
        if not ok:
            failed.setdefault(k, f"observation {notation} breaks the {doc['mode']} mode property")
    ambiguous = sum(1 for v in doc["violations"] if v["reason"].startswith("ambiguous"))
    if ambiguous != abstained:
        problems.append(f"{ambiguous} ambiguous violations but {abstained} '?' observations")
    # no known fault fails a survey trial, so a failed one is also a problem
    problems += [f"trial {k}: {why}" for k, why in sorted(failed.items())]
    return problems, trials, len(failed), abstained


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


def check_codim(action: str, info: dict, value) -> list[str]:
    if "struct" in info:
        want = sim_codim(info["struct"])
    elif action == "congr":
        want = congr_diag_codim(info["diag"])
    else:
        want = star_diag_codim(info["diag"])
    return [] if value == want else [f"{action} codim {value}, closed form gives {want}"]


def fixed_mask(struct: dict) -> np.ndarray:
    """True on the pinned cells of the miniversal (Arnold) form: within one
    eigenvalue's block grid, sub-block (p, q) frees its last row when p <= q
    and its first column when p > q; everything else is pinned."""
    n = sum(sum(p) for p in struct.values())
    fixed = np.ones((n, n), dtype=bool)
    off = 0
    for _, p in canonical_structure(struct):
        starts = list(np.cumsum((off,) + p[:-1]))
        for a, (sa, ma) in enumerate(zip(starts, p)):
            for b, (sb, mb) in enumerate(zip(starts, p)):
                if a <= b:
                    fixed[sa + ma - 1, sb : sb + mb] = False
                else:
                    fixed[sa : sa + ma, sb] = False
        off += sum(p)
    return fixed


def check_reduce(struct: dict, E: np.ndarray, S, D, pattern_ok: bool) -> list[str]:
    J = jordan(struct)
    S, D = np.asarray(S), np.asarray(D)
    problems = []
    resid = np.linalg.norm(np.linalg.solve(S, (J + E) @ S) - D)
    if not resid <= 1e-9 * max(1.0, np.linalg.norm(J)):
        problems.append(f"|S^-1 (J+E) S - D| = {resid:.3e}")
    dist = np.linalg.norm(S - np.eye(len(J)), 2)
    if not dist <= 1e3 * np.linalg.norm(E, 2):
        problems.append(f"|S - I| = {dist:.3e} is not near the identity")
    pinned = np.abs(D - J)[fixed_mask(struct)]
    if pinned.size and not pinned.max() <= 1e-8:
        problems.append(f"D leaves a pinned cell off by {pinned.max():.3e}")
    if not pattern_ok:
        problems.append("program reports pattern_ok = False")
    return problems


REAL_PARAMS = {"fixed": 0, "star": 2, "eps_re": 1, "eps_im": 1, "delta": 2}


def check_template(case: str, spec, kinds, ok_flag: bool, bad_flag: bool) -> list[str]:
    """Template parameter cells against the orbit codimension, and
    pattern_check accepting a member and rejecting a pinned-cell change."""
    problems = []
    free = np.array([[k != "fixed" for k in row] for row in kinds])
    if case == "sim":
        if not np.array_equal(~free, fixed_mask(spec)):
            problems.append("parameter cells differ from the Arnold normal form")
        want, got = sim_codim(spec), int(free.sum())
    elif case == "congr":
        want, got = tangent_codim(form_matrix(spec), "congr"), int(free.sum())
    else:
        want = tangent_codim(form_matrix(spec), "star")
        got = sum(REAL_PARAMS[k] for row in kinds for k in row)
    if got != want:
        problems.append(f"{case} template has {got} parameters, codimension is {want}")
    if not ok_flag:
        problems.append("pattern_check rejects a member of the template")
    if bad_flag:  # None when every cell is a parameter
        problems.append("pattern_check accepts a change to a pinned cell")
    return problems


def _block_key(b):
    p = complex(b[2]) if b[2] is not None else 0j
    return (b[0], b[1], p.real, p.imag)


def check_classify(form, blocks) -> list[str]:
    want = sorted(form, key=_block_key)
    got = sorted(blocks, key=_block_key)
    if [(k, s) for k, s, _ in want] != [(k, s) for k, s, _ in got]:
        return [f"classified as {got}, built from {want}"]
    for (_, _, pw), (_, _, pg) in zip(want, got):
        if (pw is None) != (pg is None) or (
            pw is not None and abs(complex(pw) - complex(pg)) > 1e-6 * max(1.0, abs(pw))
        ):
            return [f"classified as {got}, built from {want}"]
    return []


def exact_partition(J: np.ndarray, E: np.ndarray) -> tuple:
    """Block sizes of J + E at eigenvalue 0 from exact rational power ranks."""
    import sympy

    n = len(J)
    M = sympy.Matrix(
        n, n,
        lambda i, j: sympy.Rational(float(J[i, j].real)) + sympy.Rational(float(E[i, j].real))
        + sympy.I * (sympy.Rational(float(J[i, j].imag)) + sympy.Rational(float(E[i, j].imag))),
    )
    ranks, P = [n], sympy.eye(n)
    while ranks[-1] > 0 and len(ranks) <= n:
        P = P * M
        ranks.append(P.rank())
    weyr = [a - b for a, b in zip(ranks, ranks[1:]) if a - b > 0]
    return tuple(sum(1 for w in weyr if w >= j + 1) for j in range(weyr[0])) if weyr else ()


def check_witness(source: tuple, target: tuple, positions, E) -> list[str]:
    if E is None:
        return [f"no witness found for {source} -> {target}"]
    E = np.asarray(E)
    if any(j <= i for i, j in positions) or np.count_nonzero(E) != len(positions):
        return ["witness entries are not the strictly upper positions it names"]
    got = exact_partition(jordan({0.0: source}), E)
    return [] if got == tuple(target) else [f"witness gives {got}, target {target}"]


def _split_by_radius(struct: dict, eigs: np.ndarray, radius: float) -> bool:
    """True when the computed copies of some true eigenvalue fall into more
    than one group under single-linkage grouping at ``radius``."""
    parent = list(range(len(eigs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(eigs)):
        for j in range(i):
            if abs(eigs[i] - eigs[j]) <= radius:
                parent[find(i)] = find(j)
    lams = [complex(l) for l in struct]
    owner = [min(range(len(lams)), key=lambda k: abs(e - lams[k])) for e in eigs]
    return any(len({find(i) for i in range(len(eigs)) if owner[i] == k}) > 1 for k in range(len(lams)))


def _roundoff_power(struct: dict, A: np.ndarray) -> bool:
    """True when some power (A - lam I)^j is zero at a fixed scale (largest
    singular value at most RANK_TOL |A - lam I|^j) but not exactly zero:
    ranked against its own largest singular value, it keeps rank."""
    n = A.shape[0]
    for lam in struct:
        B = A - complex(lam) * np.eye(n)
        scale, P = np.linalg.norm(B, 2), np.eye(n)
        for j in range(1, n + 1):
            P = P @ B
            top = np.linalg.norm(P, 2)
            if top <= RANK_TOL * scale**j:
                if top > 0:
                    return True
                break
    return False


NOT_MONOTONE = "rank sequence of powers is not monotone"


def estimate_fault(struct: dict, A: np.ndarray, entries) -> str | None:
    """The known fault an estimate failure shows evidence of, or None.

    "fixed_cluster_radius" when grouping the eigenvalues of A at radius 1e-6
    splits the copies of a true eigenvalue; "own_scale_rank" when the
    estimate abstained on a rank sequence that is not monotone and some
    power of A - lam I is roundoff that an own-scale rank would count.
    Any other failure has no known cause."""
    if _split_by_radius(struct, np.linalg.eigvals(A), 1e-6):
        return "fixed_cluster_radius"
    if isinstance(entries, str) and entries.startswith(NOT_MONOTONE) and _roundoff_power(struct, np.asarray(A)):
        return "own_scale_rank"
    return None


def check_estimate(struct: dict, entries) -> list[str]:
    """entries: [(eigenvalue, block sizes)] or an abstention message."""
    if isinstance(entries, str):
        return [f"abstained: {entries}"]
    want = sorted((complex(l).real, complex(l).imag, tuple(p)) for l, p in struct.items())
    got = []
    for value, parts in entries:
        near = min(struct, key=lambda l: abs(complex(l) - complex(value)))
        if abs(complex(near) - complex(value)) > 1e-4:
            return [f"estimated eigenvalue {value} is not an eigenvalue of the input"]
        got.append((complex(near).real, complex(near).imag, tuple(parts)))
    return [] if sorted(got) == want else [f"estimated {sorted(got)}, built from {want}"]
