"""The contract every immutable record type of the package keeps.

Equal fields give equal objects with equal hashes; the hash is the hash of
the field tuple with None fields stood in for (which pins set and dict
orders, the same in every process with one hash seed); objects of different
classes are never equal; fields cannot be assigned or deleted; reprs are
fixed.  Records that hold arrays compare by the arrays they hold and cannot
be hashed.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from matstrata import (
    Block,
    BundleType,
    ClosureGraph,
    CongruenceForm,
    DeformationTemplate,
    EigLabel,
    JordanType,
    ParametricGraph,
    Partition,
    PerturbReport,
    ReductionResult,
    StarForm,
    build_bundle_graph,
    parse_compact,
    reachable,
)
from matstrata._value import _NONE, Value
from matstrata.congruence import TableEntry
from matstrata.graphs import GraphVertex
from matstrata.parametric import Arrow, Family
from matstrata.perturb import ArrowWitness
from matstrata.templates import PatternCheck

sym = EigLabel.symbolic
A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.eye(2)


def _bundle():
    return BundleType({sym(1): Partition((2,))})


def _vertex():
    return GraphVertex("a^2", "λ²", 3, _bundle())


def _family():
    return Family("F1", "N2", 2, (("N", 2),))


# name -> (factory, field names, repr); each factory call builds a new object
RECORDS = {
    "Partition": (lambda: Partition((3, 1)), ("parts",), "Partition(3, 1)"),
    "EigLabel-concrete": (
        lambda: EigLabel.concrete(2 - 1j), ("sort_key", "symbol", "value"),
        "EigLabel.concrete((2-1j))",
    ),
    "EigLabel-symbolic": (
        lambda: EigLabel((0, 2, 0.0, 0.0), 2), ("sort_key", "symbol", "value"),
        "EigLabel.symbolic(2)",
    ),
    "JordanType": (lambda: parse_compact("(0)^2 (1)"), ("entries",), "JordanType('(0)^2 (1)')"),
    "BundleType": (_bundle, ("entries",), "BundleType('a^2')"),
    "GraphVertex": (
        _vertex, ("id", "notation", "dim", "structure"),
        "GraphVertex(id='a^2', notation='λ²', dim=3, structure=BundleType('a^2'))",
    ),
    "ClosureGraph": (
        lambda: ClosureGraph("bundle", (_vertex(),), ()), ("kind", "vertices", "edges"),
        "ClosureGraph(kind='bundle', vertices=(GraphVertex(id='a^2', notation='λ²', dim=3, "
        "structure=BundleType('a^2')),), edges=())",
    ),
    "Family": (
        _family, ("fid", "label", "dim", "blocks", "domain", "canon", "sample"),
        "Family(fid='F1', label='N2', dim=2, blocks=(('N', 2),), domain=None, canon=None, "
        "sample=())",
    ),
    "Arrow": (
        lambda: Arrow("F1", "F2"), ("src", "dst", "predicate", "condition"),
        "Arrow(src='F1', dst='F2', predicate=None, condition='')",
    ),
    "ParametricGraph": (
        lambda: ParametricGraph("congr", (_family(),), (Arrow("F1", "F1"),)),
        ("kind", "families", "arrows"),
        "ParametricGraph(kind='congr', families=(Family(fid='F1', label='N2', dim=2, "
        "blocks=(('N', 2),), domain=None, canon=None, sample=()),), arrows=(Arrow(src='F1', "
        "dst='F1', predicate=None, condition=''),))",
    ),
    "Block": (
        lambda: Block("H", 2, 0.5), ("kind", "size", "param"),
        "Block(kind='H', size=2, param=(0.5+0j))",
    ),
    "CongruenceForm": (
        lambda: CongruenceForm([Block("N", 2)]), ("blocks",),
        "CongruenceForm(blocks=(Block(kind='N', size=2, param=None),))",
    ),
    "StarForm": (
        lambda: StarForm((Block("U", 1, 1j),)), ("blocks",),
        "StarForm(blocks=(Block(kind='U', size=1, param=1j),))",
    ),
    "TableEntry": (
        lambda: TableEntry((("N", 2),), False), ("signature", "star"),
        "TableEntry(signature=(('N', 2),), star=False)",
    ),
    "DeformationTemplate": (
        lambda: DeformationTemplate(1, ((0j,),), (("star",),), "sim"),
        ("n", "base", "kinds", "source"),
        "DeformationTemplate(n=1, base=((0j,),), kinds=(('star',),), source='sim')",
    ),
    "PatternCheck": (
        lambda: PatternCheck(False, 0.5), ("ok", "residual"), "PatternCheck(ok=False, residual=0.5)",
    ),
    "PerturbReport": (
        lambda: PerturbReport(parse_compact("(0)^2"), 1e-3, 2, 7, "dense", 0.1, 1e-8,
                              ((0, "a^2"), (1, "a b")), ()),
        ("base", "eps", "trials", "seed", "mode", "cluster_radius", "tol", "observed",
         "violations"),
        "PerturbReport(base=JordanType('(0)^2'), eps=0.001, trials=2, seed=7, mode='dense', "
        "cluster_radius=0.1, tol=1e-08, observed=((0, 'a^2'), (1, 'a b')), violations=())",
    ),
}

# records holding arrays: built around the same arrays, so equality can be decided
ARRAY_RECORDS = {
    "ReductionResult": (
        lambda: ReductionResult(B, A, 0.0, 1, True),
        ("S", "D", "residual", "iterations", "pattern_ok"),
        "ReductionResult(S=array([[1., 0.],\n       [0., 1.]]), D=array([[0., 1.],\n"
        "       [0., 0.]]), residual=0.0, iterations=1, pattern_ok=True)",
    ),
    "ArrowWitness": (
        lambda: ArrowWitness(((0, 1),), A), ("positions", "matrix"),
        "ArrowWitness(positions=((0, 1),), matrix=array([[0., 1.],\n       [0., 0.]]))",
    ),
}

ALL = {**RECORDS, **ARRAY_RECORDS}


def fields_of(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("name", list(ALL))
class TestRecordContract:
    def test_equal_fields_give_equal_objects(self, name):
        make, _, _ = ALL[name]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert a != object() and a != fields_of(a, ALL[name][1])

    def test_hash_is_the_hash_of_the_field_tuple(self, name):
        make, names, _ = ALL[name]
        a, b = make(), make()
        if name in ARRAY_RECORDS:
            with pytest.raises(TypeError):
                hash(a)
            return
        stood_in = tuple(_NONE if v is None else v for v in fields_of(a, names))
        assert hash(a) == hash(b) == hash(stood_in)
        assert hash(a) == hash(a)
        assert {a: 1}[b] == 1

    def test_fields_are_read_only(self, name):
        make, names, _ = ALL[name]
        a = make()
        for field in names:
            value = getattr(a, field)
            with pytest.raises(AttributeError):
                setattr(a, field, value)
            with pytest.raises(AttributeError):
                delattr(a, field)
            assert getattr(a, field) is value

    def test_repr(self, name):
        make, _, text = ALL[name]
        assert repr(make()) == text


def test_classes_never_equal_each_other():
    entries = {sym(1): Partition((2,))}
    assert BundleType(entries) != JordanType(entries)
    assert JordanType(entries) != BundleType(entries)
    assert BundleType(entries).entries == JordanType(entries).entries
    assert CongruenceForm([Block("N", 2)]) != StarForm([Block("N", 2)])
    assert len({BundleType(entries), JordanType(entries)}) == 2


def test_labels_sort_symbolic_first_then_by_value():
    labels = [EigLabel.concrete(1), sym(3), EigLabel.concrete(-1 + 2j), sym(1),
              EigLabel.concrete(-1 - 2j), EigLabel.concrete(0)]
    assert sorted(labels) == [sym(1), sym(3), EigLabel.concrete(-1 - 2j),
                              EigLabel.concrete(-1 + 2j), EigLabel.concrete(0),
                              EigLabel.concrete(1)]
    assert sym(1) < sym(2) <= sym(2) and sym(2) > sym(1) >= sym(1)
    assert EigLabel.concrete(5) > sym(9)
    with pytest.raises(TypeError):
        sym(1) < (0, 1, 0.0, 0.0)


def test_cached_properties_leave_equality_and_hash_alone():
    g, h = build_bundle_graph(3), build_bundle_graph(3)
    before = hash(g)
    assert reachable(g, "a^3", "a b c")  # fills the cached down-sets of g only
    assert g._below is g._below
    assert g == h and hash(g) == before == hash(h)


def test_pickled_record_rehashes_in_a_process_with_another_hash_seed():
    # string hashes differ between processes; a copy must not carry the old hash
    v = _vertex()
    hash(v)
    probe = (
        "import pickle, sys\n"
        "v = pickle.loads(sys.stdin.buffer.read())\n"
        "assert hash(v) == hash((v.id, v.notation, v.dim, v.structure)), 'stale hash'\n"
    )
    src = os.path.dirname(os.path.dirname(sys.modules["matstrata"].__file__))
    for seed in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-c", probe], input=pickle.dumps(v), capture_output=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed), timeout=60,
        )
        assert res.returncode == 0, res.stderr.decode()


def test_hash_is_computed_once_per_record():
    class Counted:
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return 7

    a = Arrow("F1", "F2", Counted())
    assert hash(a) == hash(a) == hash(("F1", "F2", a.predicate, ""))
    assert Counted.calls == 2  # once for the record, once for the tuple above


# run in fresh processes: before Python 3.12 None hashes by its address,
# which differs from process to process
HASH_PROBE = """
from matstrata import Block, CongruenceForm, EigLabel, Partition, bundle_types, parse_compact
from matstrata.congruence import TableEntry
from matstrata.graphs import GraphVertex

bundle = bundle_types(2)[0]
records = [
    Partition((3, 1)), EigLabel.symbolic(1), EigLabel.concrete(2 - 1j),
    parse_compact("(0)^2 (1)"), bundle, Block("N", 2), Block("H", 2, 0.5),
    CongruenceForm([Block("Gamma", 1), Block("N", 1)]), TableEntry((("N", 2),), False),
    GraphVertex("a^2", "λ²", 3, bundle),
]
print([hash(r) for r in records])
"""


def test_hashes_agree_across_processes_with_one_hash_seed():
    src = os.path.dirname(os.path.dirname(sys.modules["matstrata"].__file__))
    outputs = set()
    for _ in range(2):
        res = subprocess.run(
            [sys.executable, "-c", HASH_PROBE], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0"), timeout=60,
        )
        assert res.returncode == 0, res.stderr
        outputs.add(res.stdout)
    assert len(outputs) == 1, outputs


# throwaway records for the declaration rule of Value; at module level, so
# that pickle finds them
class _Point(Value):
    x: int
    y: int
    label: str = "p"
    _cache: dict  # private: not a field


class _SamePoint(_Point):  # no annotations of its own
    pass


class _Point3(_Point):
    z: float = 0.0


class _Checked(Value):
    n: int

    def __init__(self, n):
        if n < 0:
            raise ValueError("n must be non-negative")
        self._set(n)


class TestDeclarationRule:
    def test_fields_are_the_annotations_in_declaration_order(self):
        assert _Point._fields == ("x", "y", "label")
        assert _SamePoint._fields == ("x", "y", "label")
        assert _Point3._fields == ("x", "y", "label", "z")
        assert _Checked._fields == ("n",)

    def test_positional_keyword_and_default_construction(self):
        p = _Point(1, 2)
        assert (p.x, p.y, p.label) == (1, 2, "p")
        assert p == _Point(y=2, x=1) == _Point(1, 2, "p")
        assert _Point(1, 2, label="q").label == "q"
        assert repr(p) == "_Point(x=1, y=2, label='p')"
        for bad in ((1,), (1, 2, "p", 4)):
            with pytest.raises(TypeError):
                _Point(*bad)

    def test_private_annotation_is_no_field(self):
        with pytest.raises(TypeError):
            _Point(1, 2, _cache={})
        assert "_cache" not in vars(_Point(1, 2))

    def test_inherited_fields(self):
        q = _SamePoint(1, 2)
        assert (q.x, q.y, q.label) == (1, 2, "p") and q != _Point(1, 2)
        r = _Point3(1, 2, "r", 3.0)
        assert (r.x, r.label, r.z) == (1, "r", 3.0)
        assert _Point3(1, 2).z == 0.0
        assert repr(_Point3(1, 2)) == "_Point3(x=1, y=2, label='p', z=0.0)"

    def test_own_init_is_kept(self):
        assert _Checked.__init__ is not _Checked._set
        assert _Checked(3).n == 3 and _Checked(3) == _Checked(n=3)
        with pytest.raises(ValueError):
            _Checked(-1)

    def test_records_pickle_and_hash(self):
        for record in (_Point(1, 2), _SamePoint(1, 2), _Point3(1, 2), _Checked(3)):
            assert pickle.loads(pickle.dumps(record)) == record
            assert hash(pickle.loads(pickle.dumps(record))) == hash(record)
