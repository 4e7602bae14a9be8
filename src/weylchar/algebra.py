"""Exact root-system data for the finite-dimensional simple Lie algebras.

Conventions used throughout the package:

* ``cartan[i][j] = 2 (a_i, a_j) / (a_j, a_j)`` where a_1..a_r are the simple
  roots.  Rows index the first argument.
* The invariant form is normalised so that short roots have squared length 2.
  Long roots then have squared length 4 (families B, C, F) or 6 (G2).  For G2
  the first simple root is the long one, so root_norms == (6, 2).
* build_algebra derives d_i = (a_i, a_i)/2 and the columns of the Cartan
  adjugate once and holds both on Algebra, where every module reads them.
* Vectors are rows of coordinates in one of two bases: the simple roots
  ("root" basis) or the fundamental weights ("weight" basis).  Because
  a_i = sum_j cartan[i][j] l_j, rows convert by  m = n @ C  and  n = m @ C^-1.
* Integral weights have integer weight-basis coordinates; their root-basis
  coordinates may be proper fractions (for A1 the Weyl vector is a_1/2).

Supported types: A_r (r >= 1), B_r (r >= 2), C_r (r >= 2), D_r (r >= 4),
G2, F4, and E6/E7/E8, with r <= MAX_RANK.  The E7 and E8 root data build
fine, but operations that enumerate the Weyl group refuse them (see the
envelope checks).
"""

from functools import lru_cache
from math import factorial
from operator import mul

from . import linalg
from .errors import EnvelopeError, InputError, IntegrityError
from .frozen import Frozen

ROOT = "root"
WEIGHT = "weight"


def _normalize(x):
    """x as an int when it is integral, else as a Fraction.

    Only an int or a Fraction is taken: Fraction() would also take a float,
    a Decimal or a string, and round or parse it on the way in.  fractions
    is imported on call here and in the few other functions that meet
    non-integers, so that a command-line request never loads it.
    """
    from fractions import Fraction

    if not isinstance(x, (int, Fraction)):
        raise InputError(f"coordinates must be int or Fraction, got {x!r}")
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


class WeightVec(Frozen):
    """A vector in the weight space, tagged with the basis of its coords.

    Coordinates are ints or Fractions; anything else raises InputError.
    Equal, and hashed alike, when both the coordinates and the basis agree.
    """

    __slots__ = ("coords", "basis")

    def __init__(self, coords, basis):
        if basis not in (ROOT, WEIGHT):
            raise InputError(f"unknown basis {basis!r}")
        object.__setattr__(
            self,
            "coords",
            tuple(c if type(c) is int else _normalize(c) for c in coords),
        )
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.coords, self.basis) == (other.coords, other.basis)
        return NotImplemented

    def __hash__(self):
        return hash((self.coords, self.basis))

    @classmethod
    def root(cls, coords):
        return cls(tuple(coords), ROOT)

    @classmethod
    def weight(cls, coords):
        return cls(tuple(coords), WEIGHT)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


class Algebra(Frozen):
    """Immutable root-system data for one simple algebra.

    Instances are interned by build_algebra, so identity comparison is fine.
    d holds d_i = (a_i, a_i)/2, the one copy the package reads (root_norms
    is 2d).  cartan_adjugate and cartan_det are the integer adjugate and the
    determinant of cartan, so that C^-1 = cartan_adjugate / cartan_det;
    _adjugate_row multiplies by its columns, adjugate_columns.
    gram_root holds the invariant form on root-basis rows, and
    gram_weight_scaled the form on weight-basis rows times cartan_det, so
    that both stay integer.
    positive_roots_weight holds the raw integer weight-basis rows of
    positive_roots, in the same order; the Freudenthal and Racah descents
    read it through _root_rows, and the signature expansion takes its
    factors from it.
    """

    __slots__ = (
        "family",
        "rank",
        "cartan",
        "d",                       # (a_i, a_i) / 2, integers
        "positive_roots",          # WeightVec, root basis, by height then lex
        "positive_roots_weight",   # integer weight-basis rows, same order
        "fundamental_weights",     # WeightVec, weight basis
        "weyl_vector",             # WeightVec
        "gram_root",               # integer entries
        "gram_weight_scaled",      # integer entries, scale cartan_det
        "cartan_adjugate",         # integer entries
        "adjugate_columns",        # the columns of cartan_adjugate
        "cartan_det",              # int, positive
    )

    @property
    def root_norms(self):
        return tuple([2 * x for x in self.d])

    @property
    def name(self):
        return f"{self.family}{self.rank}"

    def __repr__(self):
        return f"Algebra({self.name})"


_RANK_BOUNDS = {"A": 1, "B": 2, "C": 2, "D": 4}
# The classical families stop at rank 24.  Root data do not set the cap:
# with one O(r^3) elimination they take 22 ms at A24 and 54 ms at A32 on a
# 2-core host.  It stays until the recursions past it have a work budget.
MAX_RANK = 24
# the most digits read as one integer: int()'s default limit from Python 3.11
MAX_DIGITS = 4300
_EXCEPTIONAL = {("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)}


def weyl_order(family, rank):
    """Order of the Weyl group, by the classical product formulas."""
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {
        ("G", 2): 12,
        ("F", 4): 1152,
        ("E", 6): 51840,
        ("E", 7): 2903040,
        ("E", 8): 696729600,
    }[(family, rank)]


ENVELOPE_MAX_ORDER = 51840
# A character is refused past either count.  E6 at rho has 226 dominant and
# 1.25 million weights in all; G2 descends to 10^5 in 0.5 s on 2 cores.
MAX_DOMINANT_WEIGHTS = 100000
MAX_CHARACTER_WEIGHTS = 2000000


def check_envelope(a):
    """Raise unless full Weyl-group enumeration is tractable for a."""
    order = weyl_order(a.family, a.rank)
    if order > ENVELOPE_MAX_ORDER:
        raise EnvelopeError(
            f"|W({a.name})| = {order} exceeds the supported envelope "
            f"({ENVELOPE_MAX_ORDER}); full enumeration at such scale is out of "
            "scope (for comparison, |W(E8)| = 696729600)"
        )
    return order


def _cartan_and_norms(family, rank):
    """Cartan matrix and the symmetrizer d_i = (a_i, a_i)/2 for one type."""
    r = rank
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def edge(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if family in ("A", "B", "C"):
        for i in range(r - 1):
            edge(i, i + 1)
        d = [1] * r
        if family == "B" and r >= 2:
            # last simple root short, the rest long
            edge(r - 2, r - 1, cij=-2, cji=-1)
            d = [2] * (r - 1) + [1]
        if family == "C" and r >= 2:
            # last simple root long, the rest short
            edge(r - 2, r - 1, cij=-1, cji=-2)
            d = [1] * (r - 1) + [2]
    elif family == "D":
        for i in range(r - 2):
            edge(i, i + 1)
        edge(r - 3, r - 1)
        d = [1] * r
    elif family == "G":
        edge(0, 1, cij=-3, cji=-1)
        d = [3, 1]
    elif family == "F":
        edge(0, 1)
        edge(1, 2, cij=-2, cji=-1)
        edge(2, 3)
        d = [2, 2, 1, 1]
    else:  # E6, E7, E8: chain 1-3-4-5-6(-7)(-8) with node 2 hanging off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
        d = [1] * r
    return tuple(tuple(row) for row in c), tuple(d)


def _positive_root_coords(cartan):
    """All positive roots in root-basis coordinates, by height then lex.

    Closes the simple roots under the reflections that go up: where
    <b, a_j*> < 0, s_j b = b - <b, a_j*> a_j is a higher positive root.
    Every non-simple positive root b is such a step up from the lower root
    s_j b, for any j with <b, a_j*> > 0.
    """
    r = len(cartan)
    level = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    roots = set(level)
    while level:
        nxt = []
        for n in level:
            for j, c in enumerate(linalg.vec_mat(n, cartan)):  # <b, a_j*>
                if c < 0:
                    up = n[:j] + (n[j] - c,) + n[j + 1:]
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        level = nxt
    return sorted(roots, key=lambda n: (sum(n), n))


def build_algebra(family, rank):
    """The root system of one simple algebra, built once per type.

    family is a letter in either case, rank an int or a string of ASCII
    digits; every spelling of one type returns the same object.
    """
    n = read_int(rank, "the rank") if type(rank) is str else rank
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"rank must be an integer, got {rank!r}")
    return _build_algebra(str(family).upper(), int(n))


@lru_cache(maxsize=None)
def _build_algebra(family, rank):
    if family in _RANK_BOUNDS:
        if rank < _RANK_BOUNDS[family]:
            raise InputError(
                f"{family}{rank} is not a simple type: family {family} requires "
                f"rank >= {_RANK_BOUNDS[family]}"
            )
        if rank > MAX_RANK:
            raise EnvelopeError(
                f"{family}{rank} exceeds the supported rank envelope "
                f"({MAX_RANK}); larger root data takes too long to build"
            )
    elif (family, rank) not in _EXCEPTIONAL:
        raise InputError(
            f"{family}{rank} is not a supported simple type "
            "(A_r r>=1, B_r r>=2, C_r r>=2, D_r r>=4, G2, F4, E6, E7, E8)"
        )

    cartan, d = _cartan_and_norms(family, rank)
    r = rank
    for i in range(r):
        if cartan[i][i] != 2:
            raise IntegrityError("Cartan diagonal must be 2")
        for j in range(r):
            if i != j and cartan[i][j] > 0:
                raise IntegrityError("off-diagonal Cartan entries must be <= 0")
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise IntegrityError("Cartan zero pattern must be symmetric")
            # (a_i,a_j) computed from either side must agree
            if cartan[i][j] * d[j] != cartan[j][i] * d[i]:
                raise IntegrityError("Cartan matrix is not symmetrizable by d")

    cartan_det, cartan_adjugate = linalg.det_adjugate(cartan)
    gram_root = tuple(
        tuple(cartan[i][j] * d[j] for j in range(r)) for i in range(r)
    )
    # (l_i, l_j) = C^-1[i][j] (a_j, a_j) / 2, as l_i pairs with a_j to
    # delta_ij d_j; scaled by cartan_det to stay integer
    gram_weight_scaled = tuple(
        tuple(cartan_adjugate[i][j] * d[j] for j in range(r)) for i in range(r)
    )

    pos = _positive_root_coords(cartan)
    a = Algebra(
        family=family,
        rank=r,
        cartan=cartan,
        d=d,
        positive_roots=tuple(WeightVec.root(n) for n in pos),
        positive_roots_weight=tuple(linalg.vec_mat(n, cartan) for n in pos),
        fundamental_weights=tuple(
            WeightVec.weight(tuple(1 if k == i else 0 for k in range(r)))
            for i in range(r)
        ),
        weyl_vector=WeightVec.weight((1,) * r),
        gram_root=gram_root,
        gram_weight_scaled=gram_weight_scaled,
        cartan_adjugate=cartan_adjugate,
        adjugate_columns=tuple(zip(*cartan_adjugate)),
        cartan_det=cartan_det,
    )
    # the sum of all positive roots must equal twice the Weyl vector
    total = tuple(sum(n[k] for n in pos) for k in range(r))
    if any(t * cartan_det != x for t, x in zip(total, _adjugate_row(a, (2,) * r))):
        raise IntegrityError("positive root closure is inconsistent")
    return a


# under the public name for the callers that empty it, as perfbench does
build_algebra.cache_clear = _build_algebra.cache_clear


def parse_algebra(label):
    """Build an algebra from a label like 'G2' or 'd4'."""
    label = str(label).strip()
    if len(label) < 2 or not label[0].isalpha():
        raise InputError(f"cannot parse algebra label {label!r}; expected e.g. 'G2'")
    family, digits = label[0].upper(), label[1:]
    rank = read_int(digits, f"the rank of {family}")
    if rank is None or digits[0] == "-":
        raise InputError(f"cannot parse algebra label {label!r}; expected e.g. 'B3'")
    return build_algebra(family, rank)


def read_int(text, what):
    """text as an int if it is ASCII digits after an optional '-', else None
    ('_', '+' and other scripts' digits are refused, unlike int()).  More
    than MAX_DIGITS digits raise InputError naming what.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    if len(digits) > MAX_DIGITS:
        raise InputError(f"{what} has more than {MAX_DIGITS} digits")
    return int(text)


def _adjugate_row(a, e):
    """e @ cartan_adjugate: the root-basis row of the weight-basis row e times
    cartan_det > 0, in integers when e is, from the columns held on a."""
    return tuple([sum(map(mul, e, col)) for col in a.adjugate_columns])


def _root_key(a, e):
    """Sort key of the weight-basis row e: height, then lex, of _adjugate_row."""
    n = _adjugate_row(a, e)
    return sum(n), n


def _root_row(a, e):
    """The integer root-basis row of e, a weight-basis row of the root lattice:
    _adjugate_row divided exactly by cartan_det, else IntegrityError.
    """
    det = a.cartan_det
    n = _adjugate_row(a, e)
    if any(x % det for x in n):
        raise IntegrityError(f"weight row {tuple(e)} is not in the root lattice")
    return tuple([x // det for x in n])


def _check_rank(a, v):
    if len(v.coords) != a.rank:
        raise InputError(
            f"vector has {len(v.coords)} coordinates but {a.name} has rank {a.rank}"
        )


def weight_coords(a, v):
    """Raw weight-basis coordinate row of v."""
    _check_rank(a, v)
    if v.basis == WEIGHT:
        return v.coords
    return tuple(_normalize(x) for x in linalg.vec_mat(v.coords, a.cartan))


def root_coords(a, v):
    """Raw root-basis coordinate row of v."""
    _check_rank(a, v)
    if v.basis == ROOT:
        return v.coords
    from fractions import Fraction

    return tuple(
        _normalize(Fraction(x, a.cartan_det)) for x in _adjugate_row(a, v.coords)
    )


def to_basis(a, v, basis):
    """Convert v to the requested basis.  Exact, round-trips losslessly."""
    if basis == v.basis:
        return v
    if basis == WEIGHT:
        return WeightVec.weight(weight_coords(a, v))
    if basis == ROOT:
        return WeightVec.root(root_coords(a, v))
    raise InputError(f"unknown basis {basis!r}")


def bilinear(a, v, w):
    """Invariant symmetric form (v, w), exact."""
    from fractions import Fraction

    _check_rank(a, v)
    _check_rank(a, w)
    if v.basis == w.basis:
        root = v.basis == ROOT
        t = linalg.vec_mat(v.coords, a.gram_root if root else a.gram_weight_scaled)
        dot = sum(map(mul, t, w.coords))
        return _normalize(Fraction(dot, 1 if root else a.cartan_det))
    # mixed bases pair cleanly: (l_i, a_j) = delta_ij (a_j, a_j)/2
    if v.basis == ROOT:
        v, w = w, v
    return _normalize(
        sum(Fraction(x) * y * h for x, y, h in zip(v.coords, w.coords, a.d))
    )


def reflect(a, v, i):
    """Simple reflection s_i, preserving the basis of v.  i is 0-based."""
    _check_rank(a, v)
    if not 0 <= i < a.rank:
        raise InputError(f"reflection index {i} out of range for rank {a.rank}")
    if v.basis == WEIGHT:
        m = v.coords
        row = a.cartan[i]
        return WeightVec.weight(
            tuple(m[k] - m[i] * row[k] for k in range(a.rank))
        )
    n = v.coords
    m_i = sum(n[k] * a.cartan[k][i] for k in range(a.rank))
    out = list(n)
    out[i] = _normalize(out[i] - m_i)
    return WeightVec.root(tuple(out))


def is_dominant(a, v):
    """True when every weight-basis coordinate is >= 0."""
    return all(c >= 0 for c in weight_coords(a, v))


def _require_dominant_integral(a, v, what="weight"):
    m = weight_coords(a, v)
    if any(not isinstance(c, int) for c in m):
        raise InputError(f"{what} must be integral (integer weight-basis coords), got {m}")
    if any(c < 0 for c in m):
        raise InputError(f"{what} must be dominant (non-negative coords), got {m}")
    return m


def _orbit_rows(cartan, m):
    """Weyl orbit of the dominant weight-basis row m, as a set of rows.

    Walks down from m on plain tuples, reflecting a row in s_i only where
    its coordinate i is positive.  That reaches the whole orbit: any other
    element mu has some mu_i < 0, and s_i mu is one reflection nearer to m
    and has coordinate i positive.
    """
    r = len(m)
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for cur in frontier:
            for i in range(r):
                ci = cur[i]
                if ci <= 0:
                    continue
                row = cartan[i]
                img = tuple([cur[k] - ci * row[k] for k in range(r)])
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def _spread_orbit(full, cartan, mu, mult):
    """Give every row of the orbit of the dominant row mu (_orbit_rows) the
    multiplicity mult in the weight map full.

    A character is W-invariant, so this is how each dominant multiplicity
    enters the map.  Past MAX_CHARACTER_WEIGHTS weights it raises
    EnvelopeError.
    """
    full.update(dict.fromkeys(_orbit_rows(cartan, mu), mult))
    if len(full) > MAX_CHARACTER_WEIGHTS:
        raise EnvelopeError(
            f"the character has more than {MAX_CHARACTER_WEIGHTS} "
            "weights, past the supported envelope"
        )


def orbit(a, v):
    """Weyl orbit of a dominant integral weight, canonically sorted.

    The input must already be dominant; callers holding an arbitrary weight
    should dominant_reduce first.
    """
    m = _require_dominant_integral(a, v, what="orbit seed")
    return tuple(WeightVec.weight(t) for t in sorted(_orbit_rows(a.cartan, m)))


def _dominant_coords(cartan, m):
    """Dominant representative of the orbit of the weight-basis row m.

    Reflects in the first simple root with a negative coordinate until none
    is left, and returns the representative with the number of reflections
    made (its parity is the sign of the Weyl element applied).  Works on
    plain tuples so hot loops allocate no WeightVec.
    """
    m = list(m)
    r = len(m)
    steps = 0
    while True:
        for i in range(r):
            if m[i] < 0:
                ci = m[i]
                row = cartan[i]
                for k in range(r):
                    m[k] -= ci * row[k]
                steps += 1
                break
        else:
            return tuple(m), steps


def dominant_reduce(a, v):
    """The unique dominant weight in the Weyl orbit of v, in weight basis."""
    m, _ = _dominant_coords(a.cartan, weight_coords(a, v))
    return WeightVec.weight(m)


def pair_with_root(a, m, n):
    """(mu, alpha) for mu in raw weight coords m and alpha in raw root coords n.

    Uses (l_i, a_j) = delta_ij (a_j, a_j)/2, so the value is just the sum of
    m_i n_i d_i with the integers d_i of a.d.  Stays in plain ints whenever
    both coordinate rows are integers, which is the hot case.
    """
    return sum(map(mul, map(mul, m, n), a.d))


def weyl_dimension(a, weight):
    """Dimension of the irreducible module, by the Weyl product formula."""
    m = _require_dominant_integral(a, weight)
    shifted = tuple(x + 1 for x in m)
    ones = (1,) * a.rank
    num = 1
    den = 1
    for alpha in a.positive_roots:
        n = alpha.coords
        num *= pair_with_root(a, shifted, n)
        den *= pair_with_root(a, ones, n)
    q, rem = divmod(num, den)
    if rem:
        raise IntegrityError("Weyl dimension product did not come out integral")
    return q


def _root_rows(a):
    """(weight-basis row, root-basis row) of each positive root."""
    return [
        (nw, alpha.coords)
        for nw, alpha in zip(a.positive_roots_weight, a.positive_roots)
    ]


def _dominant_weights_below(a, top):
    """Dominant weights mu with top - mu in the non-negative root lattice.

    Found by descent from top: subtract each positive root and keep the
    dominant results.  Every dominant weight below top is reached this way
    through dominant weights only (Stembridge, "The partial order of dominant
    weights", Adv. Math. 136 (1998), Cor. 2.7).  Returns a list of (weight
    coords, depth coords) sorted by increasing depth height, which is the
    order the Freudenthal and Racah recursions need; the depth is top - mu
    in the root basis, so it determines mu and the order is total.  Past
    MAX_DOMINANT_WEIGHTS weights the descent stops with EnvelopeError.
    """
    r = range(a.rank)
    steps = _root_rows(a)
    top = tuple(top)
    depth_of = {top: (0,) * a.rank}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            depth = depth_of[mu]
            for nw, n in steps:
                nu = tuple([mu[k] - nw[k] for k in r])
                if nu not in depth_of and min(nu) >= 0:
                    depth_of[nu] = tuple([depth[k] + n[k] for k in r])
                    nxt.append(nu)
                    if len(depth_of) > MAX_DOMINANT_WEIGHTS:
                        raise EnvelopeError(
                            f"more than {MAX_DOMINANT_WEIGHTS} dominant weights "
                            f"lie below {top}, past the supported envelope"
                        )
        frontier = nxt
    return sorted(depth_of.items(), key=lambda t: (sum(t[1]), t[1]))
