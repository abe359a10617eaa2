"""Parametric closure graphs: 2x2 and 3x3 congruence, 2x2 *congruence; no numpy.

A vertex is a family of canonical forms with free parameters, and an arrow
may hold only under a condition on the parameters of its two ends.  The
graphs are row tables (families, then arrows) turned into
``ParametricGraph`` values on each call.  Only ``graph congr|star`` and
the congruence layer load this module, so a similarity graph process
never compiles it.
"""

from __future__ import annotations

import itertools

from ._value import Value
from .errors import CatalogError
from .graphs import dot_text

PARAM_TOL = 1e-12


def _normalize_h_lambda(lam: complex, m: int) -> complex:
    """The member of the H-block pair {lam, 1/lam} kept as canonical."""
    if abs(lam) <= PARAM_TOL:
        raise CatalogError("H-block parameter 0 is excluded (that class is N)")
    excluded = (-1.0) ** (m + 1)
    if abs(lam - excluded) <= PARAM_TOL:
        raise CatalogError(
            f"H-block parameter {excluded:+g} is excluded for m={m} "
            "(that class is a Gamma pair)"
        )
    if abs(lam) < 1 - PARAM_TOL:
        lam = 1.0 / lam
    if abs(abs(lam) - 1) <= PARAM_TOL and lam.imag < 0:
        lam = 1.0 / lam
    return lam


class Family(Value):
    """One vertex family: a canonical shape with free parameters.

    ``blocks`` are (kind, size) or (kind, size, param); a string param such
    as "λ" or "-λ" refers to a free parameter, numbered in order of first
    appearance, any other param is fixed.
    """

    fid: str
    label: str
    dim: int
    blocks: tuple = ()
    domain: object = None  # params -> bool
    canon: object = None  # params -> canonical tuple (instance identity)
    sample: tuple = ()

    @property
    def symbols(self) -> tuple[str, ...]:
        names = [b[2].lstrip("-") for b in self.blocks if len(b) > 2 and isinstance(b[2], str)]
        return tuple(dict.fromkeys(names))

    @property
    def nparams(self) -> int:
        return len(self.symbols)

    def check(self, params: tuple):
        params = tuple(complex(p) for p in params)
        if len(params) != self.nparams:
            raise ValueError(
                f"family {self.fid} takes {self.nparams} parameter(s), got {len(params)}"
            )
        if self.domain is not None and not self.domain(params):
            raise ValueError(f"parameters {params} outside the domain of {self.fid}")
        return params

    def canonical(self, params: tuple) -> tuple:
        return self.canon(params) if self.canon is not None else params


class Arrow(Value):
    src: str
    dst: str
    predicate: object = None  # (src_params, dst_params) -> bool
    condition: str = ""


class ParametricGraph(Value):
    kind: str
    families: tuple[Family, ...]
    arrows: tuple[Arrow, ...]

    def family(self, fid: str) -> Family:
        for f in self.families:
            if f.fid == fid:
                return f
        raise KeyError(f"no family {fid!r} in graph")


def _inst(g: ParametricGraph, inst):
    """Family and checked parameters of an instance ``(fid,)`` or ``(fid, params)``."""
    params = inst[1] if len(inst) == 2 else ()
    try:
        params = tuple(params)
    except TypeError:  # one bare number
        params = (params,)
    fam = g.family(inst[0])
    return fam, fam.check(params)


def has_arrow(g: ParametricGraph, src_inst, dst_inst) -> bool:
    """Direct arrow between two concrete instances (reflexive)."""
    fs, ps = _inst(g, src_inst)
    fd, pd = _inst(g, dst_inst)
    if fs.fid == fd.fid and all(map(_same, fs.canonical(ps), fd.canonical(pd))):
        return True
    return any(
        a.src == fs.fid and a.dst == fd.fid and (a.predicate is None or a.predicate(ps, pd))
        for a in g.arrows
    )


def _candidate_params(fam: Family, pool):
    if fam.nparams == 0:
        return [()]
    cands = set()
    for tup in itertools.product(pool, repeat=fam.nparams):
        try:
            tup = fam.check(tup)
        except ValueError:
            continue
        cands.add(fam.canonical(tup))
    cands.add(fam.canonical(fam.check(fam.sample)))
    return sorted(cands, key=lambda t: tuple((z.real, z.imag) for z in t))


def path_exists(g: ParametricGraph, src_inst, dst_inst) -> bool:
    """Predicate-aware reachability over concrete instances.

    Free parameters of intermediate families are searched over candidates
    derived from the endpoint parameters (values, negations, conjugates,
    inverses) plus each family's sample point; that set witnesses every
    path the catalog's predicates admit.
    """
    fs, ps = _inst(g, src_inst)
    fd, pd = _inst(g, dst_inst)
    pool = {1.0 + 0j, -1.0 + 0j, 1j, -1j}
    for z in (*ps, *pd):
        zc = z.conjugate()
        pool.update({z, -z, zc, -zc})
        if abs(z) > 1e-12:
            pool.update({1.0 / z, 1.0 / zc})
    start = (fs.fid, fs.canonical(ps))
    goal = (fd.fid, fd.canonical(pd))

    def close(a, b):
        return a[0] == b[0] and all(map(_same, a[1], b[1]))

    seen, stack = [start], [start]
    while stack:
        cur = stack.pop()
        if close(cur, goal):
            return True
        cf, cp = g.family(cur[0]), cur[1]
        for a in g.arrows:
            if a.src != cf.fid:
                continue
            nf = g.family(a.dst)
            targets = [goal[1]] if a.dst == goal[0] else _candidate_params(nf, pool)
            for tp in targets:
                try:
                    tp = nf.check(tp)
                except ValueError:
                    continue
                if a.predicate is not None and not a.predicate(cp, tp):
                    continue
                nxt = (nf.fid, nf.canonical(tp))
                if not any(close(nxt, s) for s in seen):
                    seen.append(nxt)
                    stack.append(nxt)
    return False


# --- parameter domains and arrow conditions ---------------------------------


def _unimodular(params) -> bool:
    return all(abs(abs(z) - 1.0) <= 1e-9 for z in params)


def _same(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9


def _h_family_domain(params):
    (lam,) = params
    return abs(lam) > 1e-9 and not _same(lam, 1.0) and not _same(lam, -1.0)


def _h_canon(params):
    (lam,) = params
    return (_normalize_h_lambda(lam, 1),)


def _mu_nu_domain(params):
    mu, nu = params
    return _unimodular(params) and abs(mu - nu) > 1e-9 and abs(mu + nu) > 1e-9


def _mu_nu_canon(params):
    return tuple(sorted(params, key=lambda z: (z.real, z.imag)))


def _pm_canon(params):
    """The member of {lam, -lam} with the larger (imag, real)."""
    return (max(params[0], -params[0], key=lambda z: (z.imag, z.real)),)


def _same_up_to_sign(ps, pd):
    return _same(ps[0], pd[0]) or _same(ps[0], -pd[0])


def _same_up_to_inversion(ps, pd):
    return _same(ps[0], pd[0]) or _same(1.0 / ps[0], pd[0])


def _cone_condition(ps, pd):
    """lam = a·mu + b·nu with a, b >= 0, solved by Cramer's rule (the domain
    keeps mu and nu independent over the reals)."""
    (lam,), (mu, nu) = ps, pd
    det = mu.real * nu.imag - nu.real * mu.imag
    a = (lam.real * nu.imag - nu.real * lam.imag) / det
    b = (mu.real * lam.imag - lam.real * mu.imag) / det
    return a >= -1e-9 and b >= -1e-9


def _phase_condition(ps, pd):
    return (ps[0] * pd[0].conjugate()).imag >= -1e-9


# parameter domain of a family: membership test, canonical member of an
# instance's class (None: the parameters themselves), sample point
_DOMAINS = {
    None: (None, None, ()),
    "H": (_h_family_domain, _h_canon, (2.0 + 0j,)),
    "unit": (_unimodular, None, (1.0 + 0j,)),
    "unit±": (_unimodular, _pm_canon, (1.0 + 0j,)),
    "unit pair": (_mu_nu_domain, _mu_nu_canon, (1.0 + 0j, 1j)),
    "disc": (lambda p: 1e-9 < abs(p[0]) < 1 - 1e-9, None, (0.5 + 0j,)),
}

# --- the graphs, as row tables ----------------------------------------------
# family row: id, label, blocks, parameter domain, class dimension (a bundle
# adds its number of free parameters); arrow row: src, dst, and for a
# conditional arrow the predicate (src params, dst params) -> bool and its text

_CONGRUENCE_FAMILIES = {
    2: (
        ("zero2", "0₂", (("N", 1), ("N", 1)), None, 0),
        ("h_minus1", "[[0,1],[-1,0]]", (("H", 2, -1.0),), None, 1),
        ("diag_1_0", "diag(1,0)", (("Gamma", 1), ("N", 1)), None, 2),
        ("gamma2", "[[0,-1],[1,1]]", (("Gamma", 2),), None, 3),
        ("diag_1_1", "diag(1,1)", (("Gamma", 1), ("Gamma", 1)), None, 3),
        ("h_lambda", "[[0,1],[λ,0]]", (("H", 2, "λ"),), "H", 3),
    ),
    3: (
        ("zero3", "0₃", (("N", 1),) * 3, None, 0),
        ("h_minus1_n1", "[[0,1],[-1,0]]⊕0", (("H", 2, -1.0), ("N", 1)), None, 3),
        ("diag_1_0_0", "diag(1,0,0)", (("Gamma", 1), ("N", 1), ("N", 1)), None, 3),
        ("h_lambda_n1", "[[0,1],[λ,0]]⊕0", (("H", 2, "λ"), ("N", 1)), "H", 5),
        ("gamma2_n1", "[[0,-1],[1,1]]⊕0", (("Gamma", 2), ("N", 1)), None, 5),
        ("diag_1_1_0", "diag(1,1,0)", (("Gamma", 1), ("Gamma", 1), ("N", 1)), None, 5),
        ("h_minus1_gamma1", "[[0,1],[-1,0]]⊕1", (("H", 2, -1.0), ("Gamma", 1)), None, 6),
        ("diag_1_1_1", "diag(1,1,1)", (("Gamma", 1),) * 3, None, 6),
        ("n3", "N₃", (("N", 3),), None, 7),
        ("h_mu_gamma1", "[[0,1],[μ,0]]⊕1", (("H", 2, "μ"), ("Gamma", 1)), "H", 8),
        ("gamma2_gamma1", "[[0,-1],[1,1]]⊕1", (("Gamma", 2), ("Gamma", 1)), None, 8),
        ("gamma3", "Γ₃", (("Gamma", 3),), None, 8),
    ),
}

# arrows of both graphs, then those of the class graph only, then those of
# the bundle graph only
_CONGRUENCE_ARROWS = {
    2: (
        [
            ("zero2", "h_minus1"), ("zero2", "diag_1_0"), ("diag_1_0", "gamma2"),
            ("diag_1_0", "diag_1_1"), ("h_minus1", "gamma2"),
        ],
        [("diag_1_0", "h_lambda")],
        [("gamma2", "h_lambda"), ("diag_1_1", "h_lambda")],
    ),
    3: (
        [
            ("zero3", "h_minus1_n1"), ("zero3", "diag_1_0_0"),
            ("h_minus1_n1", "gamma2_n1"),
            ("diag_1_0_0", "gamma2_n1"),
            ("diag_1_0_0", "diag_1_1_0"),
            ("gamma2_n1", "h_minus1_gamma1"),
            ("h_lambda_n1", "n3"),
            ("diag_1_1_0", "diag_1_1_1"),
            ("h_minus1_gamma1", "gamma2_gamma1"), ("diag_1_1_1", "gamma3"),
            ("n3", "gamma2_gamma1"), ("n3", "gamma3"),
        ],
        [
            ("diag_1_0_0", "h_lambda_n1"),
            ("gamma2_n1", "n3"), ("diag_1_1_0", "n3"), ("n3", "h_mu_gamma1"),
            # the parameter of the nonsingular part persists in the closure:
            # the degenerate lam-family sits below the mu-family only for the
            # matching parameter (up to inversion)
            ("h_lambda_n1", "h_mu_gamma1", _same_up_to_inversion, "same λ up to inversion"),
        ],
        [
            ("gamma2_n1", "h_lambda_n1"), ("diag_1_1_0", "h_lambda_n1"),
            ("gamma2_gamma1", "h_mu_gamma1"), ("gamma3", "h_mu_gamma1"),
        ],
    ),
}

# the 2x2 *congruence class graph (real dimensions)
_STAR_FAMILIES = (
    ("zero", "0₂", (("N", 1), ("N", 1)), None, 0),
    ("diag_l_0", "diag(λ,0)", (("U", 1, "λ"), ("N", 1)), "unit", 3),
    ("diag_l_l", "diag(λ,λ)", (("U", 1, "λ"), ("U", 1, "λ")), "unit", 4),
    ("diag_l_minus_l", "diag(λ,-λ)", (("U", 1, "λ"), ("U", 1, "-λ")), "unit±", 4),
    ("diag_mu_nu", "diag(μ,ν)", (("U", 1, "μ"), ("U", 1, "ν")), "unit pair", 6),
    ("h_sigma", "[[0,1],[σ,0]]", (("H*", 2, "σ"),), "disc", 6),
    ("u_tau", "τ·[[0,1],[1,i]]", (("U", 2, "τ"),), "unit", 6),
)

_STAR_ARROWS = (
    ("zero", "diag_l_0"),
    ("zero", "diag_mu_nu"),
    ("zero", "u_tau"),
    ("diag_l_0", "diag_l_l", lambda ps, pd: _same(ps[0], pd[0]), "same λ"),
    ("diag_l_0", "diag_l_minus_l", _same_up_to_sign, "same λ"),
    ("diag_l_0", "h_sigma"),
    ("diag_l_0", "diag_mu_nu", _cone_condition, "λ ∈ μℝ₊+νℝ₊"),
    ("diag_l_0", "u_tau", _phase_condition, "Im(λτ̄) ≥ 0"),
    ("diag_l_minus_l", "u_tau", _same_up_to_sign, "τ = ±λ"),
)


def _parametric_graph(kind: str, family_rows, arrow_rows) -> ParametricGraph:
    """A parametric graph from its row tables.  A bundle, the union of the
    classes its free parameters sweep, adds their number to its row's dim."""
    families = []
    for fid, label, blocks, domain, dim in family_rows:
        family = Family(fid, label, dim, blocks, *_DOMAINS[domain])
        if kind == "bundles":
            family = Family(fid, label, dim + family.nparams, blocks, *_DOMAINS[domain])
        families.append(family)
    return ParametricGraph(kind, tuple(families), tuple(Arrow(*a) for a in arrow_rows))


def congruence_graph(n: int, kind: str = "classes") -> ParametricGraph:
    """Closure graph for congruence classes or bundles of 2x2/3x3 matrices."""
    if kind not in ("classes", "bundles"):
        raise ValueError("kind must be 'classes' or 'bundles'")
    if type(n) is not int or n not in _CONGRUENCE_FAMILIES:
        raise CatalogError(f"congruence closure graphs cover sizes 2 and 3, not {n}")
    shared, *own = _CONGRUENCE_ARROWS[n]  # own: the class graph's, the bundle graph's
    return _parametric_graph(kind, _CONGRUENCE_FAMILIES[n], shared + own[kind == "bundles"])


def star_graph_2x2() -> ParametricGraph:
    """Closure graph for *congruence classes of 2x2 matrices (real dims)."""
    return _parametric_graph("star_classes", _STAR_FAMILIES, _STAR_ARROWS)


# --- serialization ----------------------------------------------------------


def parametric_to_json_doc(g: ParametricGraph) -> dict:
    return {
        "kind": g.kind,
        "families": [
            {"id": f.fid, "label": f.label, "dim": f.dim, "nparams": f.nparams}
            for f in sorted(g.families, key=lambda f: (f.dim, f.fid))
        ],
        "arrows": [
            {"src": a.src, "dst": a.dst, "condition": a.condition}
            for a in sorted(g.arrows, key=lambda a: (a.src, a.dst))
        ],
    }


def parametric_to_dot(g: ParametricGraph) -> str:
    return dot_text(
        [(f.fid, f.label, f.dim) for f in sorted(g.families, key=lambda f: (f.dim, f.fid))],
        [(a.src, a.dst, a.condition) for a in sorted(g.arrows, key=lambda a: (a.src, a.dst))],
    )
