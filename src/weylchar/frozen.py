"""A base class for the package's immutable records.

Every command-line request is a fresh process, so import time is part of
every request.  The records therefore share one constructor on this base
rather than being generated by a class decorator: the standard library's
record generator imports inspect, ast, dis and tokenize, and compiles the
methods of every decorated class at import time.
"""


class Frozen:
    """Base of an immutable record.

    A subclass lists its fields in __slots__, in constructor order.  The
    constructor fills them from positional or keyword arguments; a missing,
    unknown or repeated field raises TypeError.  Assigning or deleting an
    attribute afterwards raises AttributeError.  Equality is identity unless
    the subclass defines __eq__ and __hash__.  The default repr names every
    field by keyword, in slot order.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = dict(zip(fields, args))
        bad = [f for f in kwargs if f in values or f not in fields]
        values.update(kwargs)
        if bad or len(args) > len(fields) or len(values) < len(fields):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(fields)}; got "
                f"{len(args)} by position, repeated or unknown {bad}, missing "
                f"{[f for f in fields if f not in values]}"
            )
        for field in fields:
            object.__setattr__(self, field, values[field])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"
