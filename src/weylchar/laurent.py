"""Sparse exact Laurent polynomials in r commuting variables over the integers.

A polynomial is a finitely supported map from integer exponent rows of fixed
length (the rank) to nonzero integer coefficients.  Arithmetic is exact with
arbitrary-precision coefficients; no floating point anywhere.

Characters are not divided out of alternants (weylchar.characters), so this
module has no division.  Generic long division is kept only in the tests, as
the independent reference.
"""

from .errors import InputError


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial.

    terms maps exponent tuples to nonzero int coefficients.  Do not mutate
    the dict after construction; every operation returns a fresh object.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        rank = int(rank)
        if rank < 1:
            raise InputError("rank must be >= 1")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != rank:
                raise InputError(
                    f"exponent row {exps} has length {len(exps)}, expected {rank}"
                )
            if not all(isinstance(x, int) for x in exps):
                raise InputError(f"exponents must be integers, got {exps}")
            if not isinstance(coeff, int):
                raise InputError(f"coefficients must be integers, got {coeff!r}")
            if coeff != 0:
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        self.rank = rank
        self.terms = clean

    @classmethod
    def _raw(cls, rank, terms):
        """Internal fast path: terms must already be clean."""
        p = object.__new__(cls)
        p.rank = rank
        p.terms = terms
        return p

    @classmethod
    def zero(cls, rank):
        return cls._raw(rank, {})

    @classmethod
    def one(cls, rank):
        return cls._raw(rank, {(0,) * rank: 1})

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise InputError(f"expected LaurentPoly, got {type(other).__name__}")
        if self.rank != other.rank:
            raise InputError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(self.rank, out)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.rank)
            return LaurentPoly._raw(
                self.rank, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        r = range(self.rank)
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(e1[k] + e2[k] for k in r)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return LaurentPoly._raw(self.rank, out)

    __rmul__ = __mul__

    def translate(self, delta):
        """Multiply by the monomial with exponent row delta."""
        delta = tuple(delta)
        if len(delta) != self.rank:
            raise InputError("translation row has wrong length")
        r = range(self.rank)
        return LaurentPoly._raw(
            self.rank,
            {tuple(e[k] + delta[k] for k in r): c for e, c in self.terms.items()},
        )

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)

    def __repr__(self):
        n = len(self.terms)
        return f"LaurentPoly(rank={self.rank}, terms={n})"
