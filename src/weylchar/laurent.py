"""Sparse exact Laurent polynomials in r commuting variables over the integers.

A polynomial is a finitely supported map from integer exponent rows of fixed
length (the rank) to nonzero integer coefficients.  Arithmetic is exact with
arbitrary-precision coefficients; no floating point anywhere.

Exact division is by a product of binomials e^d - 1 (divide_by_binomials),
one factor at a time, with a running sum along each d-string; characters are
divided this way.  Generic long division is kept only in the tests, as the
independent reference.
"""

from .errors import InputError, NotDivisibleError


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

    @classmethod
    def monomial(cls, rank, exps, coeff=1):
        return cls(rank, {tuple(exps): coeff})

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

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(self.rank, out)

    def __neg__(self):
        return LaurentPoly._raw(self.rank, {e: -c for e, c in self.terms.items()})

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

    def eval_ones(self):
        """Value with every variable set to 1: the coefficient sum."""
        return sum(self.terms.values())

    def __repr__(self):
        n = len(self.terms)
        return f"LaurentPoly(rank={self.rank}, terms={n})"


def divide_by_binomials(poly, steps):
    """Exact quotient of poly by the product of (e^d - 1) over the rows d.

    One pass per factor, in the order given: the terms are walked along
    their d-strings from the bottom up, keeping the running sum
    q(e) = q(e - d) - p(e), which is the quotient's coefficient at e.  The
    quotient exists exactly when the running sum returns to zero at the top
    of every string; otherwise NotDivisibleError is raised.  The quotient
    does not depend on the order of the factors; the sizes of the
    intermediate quotients do.

    During the passes an exponent row is packed into one integer, one digit
    per coordinate, so a step along d is one integer addition.  An exact
    quotient by a binomial stays inside the span of each string it divides,
    so every intermediate quotient lies in the bounding box of poly's
    support.  Each digit is three box widths wide with the box in its middle
    third, and a walk is cut off (as not divisible) after the most steps
    along d that fit inside the box, so no walk carries from one digit into
    the next.
    """
    if not isinstance(poly, LaurentPoly):
        raise InputError("divide_by_binomials expects a LaurentPoly")
    rank = poly.rank
    r = range(rank)
    steps = [tuple(d) for d in steps]
    for d in steps:
        if len(d) != rank or not all(isinstance(x, int) for x in d):
            raise InputError(f"binomial exponent {d} is not an integer row of length {rank}")
        if not any(d):
            raise InputError("division by e^0 - 1, the zero polynomial")
    if poly.is_zero():
        return LaurentPoly.zero(rank)

    lo = tuple(map(min, zip(*poly.terms)))
    hi = tuple(map(max, zip(*poly.terms)))
    width = [hi[k] - lo[k] + 1 for k in r]
    place = []
    p = 1
    for k in r:
        place.append(p)
        p *= 3 * width[k]
    terms = {
        sum((e[k] - lo[k] + width[k]) * place[k] for k in r): c
        for e, c in poly.terms.items()
    }

    for d in steps:
        delta = sum(d[k] * place[k] for k in r)
        reach = min((hi[k] - lo[k]) // abs(d[k]) for k in r if d[k])
        quotient = {}
        for start in sorted(terms, reverse=delta < 0):
            c = terms.pop(start, 0)
            if not c:
                continue  # already consumed by a walk from lower on its string
            pos = start
            s = -c
            n = 0
            while s:
                quotient[pos] = s
                n += 1
                if n > reach:
                    raise NotDivisibleError(
                        f"division by e^{d} - 1 leaves a nonzero running sum "
                        "at the top of a string"
                    )
                pos += delta
                s -= terms.pop(pos, 0)
        terms = quotient

    out = {}
    for key, c in terms.items():
        e = []
        for k in r:
            key, digit = divmod(key, 3 * width[k])
            e.append(digit - width[k] + lo[k])
        out[tuple(e)] = c
    return LaurentPoly._raw(rank, out)
