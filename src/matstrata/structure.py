"""Combinatorial encodings of Jordan structure.

A Jordan structure is described by eigenvalue labels (symbolic or concrete)
each carrying a partition of block sizes.  This module holds the exact
arithmetic on those objects: conjugation between block-size and
block-count sequences, the compact text notation, closed-form orbit
dimension/codimension, and the canonical relabeling that identifies
structures differing only by an eigenvalue bijection.
"""

from __future__ import annotations

import cmath
import itertools
import operator
import sys
from functools import lru_cache, total_ordering

from ._value import Value
from .errors import CompactParseError

MAX_MATRIX_N = 12  # the design envelope: the largest order of a matrix input or a closure graph
NOT_NUMBERS = (str, bytes, bool)  # complex() parses a str, bytes iterate as ints, a bool is an int
GREEK_LETTERS = "λμνξρστω"
_SUPERSCRIPTS = {str(d): s for d, s in enumerate("⁰¹²³⁴⁵⁶⁷⁸⁹")}


def not_a_number(x) -> bool:
    """Whether ``x`` is one of NOT_NUMBERS or numpy's bool.  A numpy value exists
    only once numpy is loaded, so its bool is looked up in ``sys.modules``."""
    np = sys.modules.get("numpy")
    return isinstance(x, NOT_NUMBERS) or np is not None and isinstance(x, np.bool_)


class Partition(Value):
    """Weakly decreasing tuple of positive integers (Jordan block sizes).

    Each part is taken with ``operator.index``: ints and numpy integers
    pass, anything else (a bool, a float, a string) raises TypeError.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(parts)
        if any(map(not_a_number, parts)):
            raise TypeError(f"partition parts must be integers, got {parts}")
        parts = tuple(map(operator.index, parts))
        if not parts:
            raise ValueError("partition must be nonempty")
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        self._set(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"Partition{self.parts}"


def conjugate_partition(p: Partition) -> Partition:
    """Conjugate (transpose) of a partition.

    The j-th part of the result counts parts of ``p`` that are >= j+1,
    so block sizes become block counts and vice versa.  Involutive.
    """
    parts = p.parts
    return Partition(tuple(sum(1 for q in parts if q >= j + 1) for j in range(parts[0])))


@total_ordering
class EigLabel(Value):
    """Eigenvalue label: either a symbolic slot or a concrete complex number.

    Symbolic labels index families of structures (any pairwise-distinct
    values may be substituted); concrete labels are double-precision
    complex numbers used by the numerical modules.
    """

    sort_key: tuple = None
    symbol: int | None = None
    value: complex | None = None

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    @staticmethod
    @lru_cache(maxsize=None)
    def symbolic(k: int) -> "EigLabel":
        if k < 1:
            raise ValueError("symbolic label ids start at 1")
        return EigLabel(sort_key=(0, k, 0.0, 0.0), symbol=k)

    @staticmethod
    def concrete(z: complex) -> "EigLabel":
        if not_a_number(z):
            raise TypeError(f"a concrete label must be a number, got {z!r}")
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError("concrete labels must be finite")
        return EigLabel(sort_key=(1, 0, z.real, z.imag), value=z)

    @property
    def is_symbolic(self) -> bool:
        return self.symbol is not None

    def __repr__(self):
        if self.is_symbolic:
            return f"EigLabel.symbolic({self.symbol})"
        return f"EigLabel.concrete({self.value!r})"


def _normalized_entries(entries) -> tuple[tuple[EigLabel, Partition], ...]:
    if isinstance(entries, dict):
        entries = entries.items()
    out = []
    for label, part in entries:
        if not isinstance(label, EigLabel):
            raise TypeError(f"expected EigLabel, got {label!r}")
        if not isinstance(part, Partition):
            part = Partition(tuple(part))
        out.append((label, part))
    out.sort(key=lambda lp: lp[0].sort_key)
    labels = [l for l, _ in out]
    if len(set(labels)) != len(labels):
        raise ValueError("labels within one Jordan structure must be distinct")
    if not out:
        raise ValueError("Jordan structure needs at least one eigenvalue")
    return tuple(out)


class JordanType(Value):
    """Map from eigenvalue labels to block-size partitions."""

    entries: tuple[tuple[EigLabel, Partition], ...]

    def __init__(self, entries):
        self._set(_normalized_entries(entries))

    @property
    def n(self) -> int:
        return sum(p.total for _, p in self.entries)

    @property
    def labels(self) -> tuple[EigLabel, ...]:
        return tuple(l for l, _ in self.entries)

    def partition_of(self, label: EigLabel) -> Partition | None:
        for l, p in self.entries:
            if l == label:
                return p
        return None

    def __repr__(self):
        return f"{type(self).__name__}({format_compact(self)!r})"


class BundleType(JordanType):
    """JordanType with symbolic labels in canonical order.

    Two JordanTypes related by an eigenvalue bijection map to equal
    BundleTypes; re-canonicalizing a BundleType is the identity.
    """

    def __init__(self, entries):
        super().__init__(entries)
        parts = sorted((p for _, p in self.entries), key=_partition_order_key)
        if self.entries != tuple((EigLabel.symbolic(i + 1), p) for i, p in enumerate(parts)):
            raise ValueError("BundleType labels are not canonically numbered")


@lru_cache(maxsize=None)
def _partition_order_key(p):
    # Larger total first, then descending lexicographic on parts; this is
    # the label order the closure-graph figures use (λ before μ before ν).
    # Takes a Partition or a plain tuple of parts.
    return (-sum(p),) + tuple(-x for x in p)


def bundle_key(parts) -> tuple[tuple[int, ...], ...]:
    """A bundle as a plain key: the block-size tuples of its eigenvalues,
    sorted into canonical label order.  ``parts`` is any iterable of tuples."""
    return tuple(sorted(parts, key=_partition_order_key))


@lru_cache(maxsize=None)
def _shared_partition(parts: tuple[int, ...]) -> Partition:
    """The Partition of a block-size tuple, one shared object per tuple: the
    bundles of one order hold few distinct partitions, each many times."""
    return Partition(parts)


def bundle_of_key(key: tuple[tuple[int, ...], ...]) -> BundleType:
    """The BundleType of a bundle key, built unchecked from shared partitions;
    a key out of canonical order goes to the checked constructor, which refuses it."""
    entries = tuple((EigLabel.symbolic(i + 1), _shared_partition(p)) for i, p in enumerate(key))
    if not key or bundle_key(key) != key:
        return BundleType(entries)
    bundle = object.__new__(BundleType)
    bundle._set(entries)
    return bundle


def canonical_bundle_labeling(t: JordanType) -> BundleType:
    """Forget eigenvalue identities: relabel with symbolic ids 1,2,...

    Labels are renumbered by a fixed total order on their partitions, so
    structures differing only by a label bijection collapse to one value.
    """
    return bundle_of_key(bundle_key(p.parts for _, p in t.entries))


def weyr_of(t: JordanType, label: EigLabel) -> tuple[int, ...]:
    """Block-count sequence for ``label``: entry j counts blocks of size > j.

    Empty tuple when the label is absent.
    """
    p = t.partition_of(label)
    if p is None:
        return ()
    return conjugate_partition(p).parts


def _partition_codim(parts: tuple[int, ...]) -> int:
    """Codimension contributed by one eigenvalue with these block sizes: the
    sum of its squared block counts, in closed form sum (2i-1) p_i."""
    return sum((2 * i + 1) * p for i, p in enumerate(parts))


def orbit_codim(t: JordanType) -> int:
    """Codimension of the similarity class of the structure's Jordan matrix.

    Closed form: sum over labels of the squared block-count sequence.
    """
    return sum(_partition_codim(p.parts) for _, p in t.entries)


def orbit_dim(t: JordanType) -> int:
    """Dimension n^2 - codim of the similarity class."""
    return t.n * t.n - orbit_codim(t)


def bundle_dim(b: JordanType) -> int:
    """Dimension of the bundle: class dimension plus one per distinct label."""
    return orbit_dim(b) + len(b.labels)


# ---------------------------------------------------------------------------
# compact text notation
# ---------------------------------------------------------------------------
#
# Grammar: whitespace-separated tokens `<label>` or `<label>^<k>`.  A label
# is a single lowercase letter (symbolic, a=1, b=2, ...) or a complex
# literal in parentheses using Python's j-notation, e.g. (0), (2+1j).


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def format_complex(z: complex, num=_fmt_num, unit: str = "j") -> str:
    """``a``, ``b<unit>`` or ``a±b<unit>``, each number written by ``num``."""
    if z.imag == 0:
        return num(z.real)
    if z.real == 0:
        return num(z.imag) + unit
    sign = "+" if z.imag > 0 else "-"
    return f"{num(z.real)}{sign}{num(abs(z.imag))}{unit}"


def complex_from_pair(entry) -> complex:
    """complex(re, im) of a JSON pair ``[re, im]``.

    Raises TypeError unless the entry is a list of exactly two numbers
    (booleans are not numbers here), and ValueError when either is NaN,
    infinite or an integer beyond the float range.
    """
    if not (isinstance(entry, list) and len(entry) == 2
            and all(type(x) in (int, float) for x in entry)):
        raise TypeError(f"a complex entry must be [re, im], two numbers, got {entry!r}")
    if not all(abs(x) <= sys.float_info.max for x in entry):
        raise ValueError(f"a complex entry must be finite, got {entry!r}")
    return complex(*entry)


def _label_token(label: EigLabel) -> str:
    if label.is_symbolic:
        if label.symbol > 26:
            raise ValueError("compact notation supports symbolic ids up to 26")
        return chr(ord("a") + label.symbol - 1)
    return "(" + format_complex(label.value) + ")"


def format_compact(t: JordanType) -> str:
    """Canonical ASCII text for a Jordan structure (round-trips exactly)."""
    tokens = []
    for label, part in t.entries:
        head = _label_token(label)
        for m in part.parts:
            tokens.append(head if m == 1 else f"{head}^{m}")
    return " ".join(tokens)


def parse_compact(s: str) -> JordanType:
    """Parse compact notation; raises CompactParseError with the offset."""
    sizes: dict[EigLabel, list[int]] = {}
    i, n = 0, len(s)
    while i < n:
        if s[i].isspace():
            i += 1
            continue
        start = i
        if s[i] == "(":
            j = s.find(")", i)
            if j < 0:
                raise CompactParseError("unterminated complex literal", start)
            text = s[i + 1 : j].replace(" ", "")
            try:
                label = EigLabel.concrete(complex(text))
            except ValueError:
                raise CompactParseError(f"bad complex literal {text!r}", start) from None
            i = j + 1
        elif s[i].isalpha() and s[i].islower() and s[i].isascii():
            label = EigLabel.symbolic(ord(s[i]) - ord("a") + 1)
            i += 1
        else:
            raise CompactParseError(f"unexpected character {s[i]!r}", start)
        k = 1
        if i < n and s[i] == "^":
            i += 1
            j = i
            while j < n and (s[j].isdigit() or (j == i and s[j] == "-")):
                j += 1
            if s[i:j] in ("", "-"):
                raise CompactParseError("missing exponent after '^'", i)
            k = int(s[i:j])
            if k < 1:
                raise CompactParseError(f"exponent must be >= 1, got {k}", i)
            i = j
        if i < n and not s[i].isspace():
            raise CompactParseError(f"unexpected character {s[i]!r} after token", i)
        sizes.setdefault(label, []).append(k)
    if not sizes:
        raise CompactParseError("empty input", 0)
    return JordanType(
        {l: Partition(tuple(sorted(ks, reverse=True))) for l, ks in sizes.items()}
    )


def _superscript(m: int) -> str:
    return "".join(_SUPERSCRIPTS[d] for d in str(m))


def label_display(label: EigLabel) -> str:
    """One display string per label: greek letters for symbolic slots."""
    if label.is_symbolic:
        if label.symbol <= len(GREEK_LETTERS):
            return GREEK_LETTERS[label.symbol - 1]
        return f"λ{label.symbol}"
    text = format_complex(label.value)
    return text if len(text) == 1 else f"({text})"


def format_display(t: JordanType) -> str:
    """Figure-style notation: per-block label with a superscript exponent."""
    out = []
    for label, part in t.entries:
        head = label_display(label)
        for m in part.parts:
            out.append(head if m == 1 else head + _superscript(m))
    return "".join(out)


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------


def _multisets(items, size, total: int, start: int = 0):
    """Multisets of ``items`` whose ``size``s add up to ``total``, each once,
    as a tuple of items by nondecreasing index, in lexicographic order of
    those indices."""
    if total == 0:
        yield ()
        return
    for idx in range(start, len(items)):
        item = items[idx]
        if size(item) <= total:
            for rest in _multisets(items, size, total - size(item), idx):
                yield (item,) + rest


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in canonical (descending-lex) order: multisets
    of the parts n, ..., 1."""
    return tuple(map(Partition, _multisets(range(n, 0, -1), int, n)))


def bundle_types(n: int) -> tuple[BundleType, ...]:
    """All bundle structures of order n (multisets of partitions).

    They are enumerated as keys, multisets of the partitions of n, ..., 1
    in label order: each multiset once, already in label order, and the
    multisets in lexicographic order of their partitions.
    """
    universe = [p.parts for m in range(n, 0, -1) for p in partitions(m)]
    return tuple(map(bundle_of_key, _multisets(universe, sum, n)))


def jordan_types_for_pattern(mults: tuple[int, ...]) -> tuple[JordanType, ...]:
    """All structures with symbolic labels 1..k of fixed multiplicities."""
    choices = [partitions(m) for m in mults]
    out = []
    for combo in itertools.product(*choices):
        out.append(
            JordanType({EigLabel.symbolic(i + 1): p for i, p in enumerate(combo)})
        )
    return tuple(out)
