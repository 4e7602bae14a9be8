"""A base class for the package's immutable records.

Every command-line request is a fresh process, so import time is part of
every request.  The records are therefore written out by hand on this base
rather than generated by a class decorator: the standard library's record
generator imports inspect, ast, dis and tokenize, and compiles the methods
of every decorated class at import time.
"""


class Frozen:
    """Base of an immutable record.

    A subclass lists its fields in __slots__, in constructor order, and
    assigns each one exactly once in __init__ through object.__setattr__.
    Assigning or deleting an attribute afterwards raises AttributeError.
    Equality is identity unless the subclass defines __eq__ and __hash__.
    The default repr names every field by keyword, in slot order.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"
