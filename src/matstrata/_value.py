"""The immutable-value base of the package's record types.

The standard library's frozen data classes would cost every graph process
about 20 ms before it does any work: their module imports ``inspect``, and
each class has six methods compiled for it.  Here the methods are shared
and only the field setter is compiled per class.
"""

_setattr = object.__setattr__


class Value:
    """Immutable record, compared and hashed by its field tuple.

    A subclass names its fields in ``_fields`` and ends its ``__init__``
    with ``self._set(...)``, one value per field in that order.  Two
    instances are equal when they are of the same class and their field
    tuples are equal, so an instance never equals one of a subclass.  The
    hash is the hash of the field tuple, computed on first use and kept.
    Fields cannot be assigned or deleted; ``functools.cached_property``
    still works, because it writes the instance dictionary directly.
    """

    _fields: tuple[str, ...] = ()
    _hash = None

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields")
        if fields:
            # straight-line code: a loop over the names costs each record
            # about 0.6 us more to build, 5% of a congruence classification
            args = ", ".join(fields)
            lines = [f"def _set(self, {args}):"]
            lines += [f"    _setattr(self, {name!r}, {name})" for name in fields]
            lines.append(f"    _setattr(self, '_key', ({args},))")
            namespace = {"_setattr": _setattr}
            exec("\n".join(lines), namespace)
            cls._set = namespace["_set"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key)
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
