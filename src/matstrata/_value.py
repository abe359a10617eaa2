"""The immutable-value base of the package's record types.

The standard library's frozen data classes would cost every graph process
about 20 ms before it does any work: their module imports ``inspect``, and
each class has six methods compiled for it.  Here the methods are shared
and only the field setter is compiled per class.
"""

_setattr = object.__setattr__
_NONE = 0x4E6F6E65  # hashed for None, which before Python 3.12 hashes by its address


class Value:
    """Immutable record, compared and hashed by its field tuple.

    Its fields are its annotations, after those it inherits, except names
    starting with ``_``; a class attribute named for a field is its default.
    ``self._set(...)`` takes the fields in that order: it is the constructor
    of a class with no ``__init__`` of its own, and ends one that checks its
    arguments.  Instances are equal when of one class with equal fields.  The
    hash, kept after first use, stands a constant in for None fields, so it
    is the same in every process with one ``PYTHONHASHSEED``, unless a field
    holds a function (``Family``, ``Arrow``).  Fields cannot be assigned or
    deleted; ``functools.cached_property`` still works, because it writes
    the instance dictionary directly.
    """

    _fields: tuple[str, ...] = ()
    _hash = None

    def __init_subclass__(cls):
        # own annotations only: ``cls.__annotations__`` may be a base's
        own = tuple(name for name in cls.__dict__.get("__annotations__", ()) if name[0] != "_")
        if own:
            cls._fields = fields = cls._fields + own
            # straight-line code: a loop over the names costs each record
            # about 0.6 us more to build, 5% of a congruence classification
            params = ", ".join(f"{n}=_cls.{n}" if hasattr(cls, n) else n for n in fields)
            lines = [f"def _set(self, {params}):"]
            lines += [f"    _setattr(self, {name!r}, {name})" for name in fields]
            lines.append(f"    _setattr(self, '_key', ({', '.join(fields)},))")
            namespace = {"_setattr": _setattr, "_cls": cls}
            exec("\n".join(lines), namespace)
            cls._set = namespace["_set"]
            if "__init__" not in cls.__dict__:
                cls.__init__ = cls._set

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple([_NONE if v is None else v for v in self._key]))
            _setattr(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt from the fields, so a copy never carries a cached hash
        # from a process with another string-hash seed
        return self.__class__, self._key

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
