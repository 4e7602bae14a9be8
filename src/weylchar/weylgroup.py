"""Weyl group enumeration and the direct route to characters.

Everything here is independent of the reconstruction tables in
weylchar.tables: the group is generated as matrices, the character-formula
numerator is summed term by term over the group, dimensions come from the
Weyl product formula, and weight multiplicities from the Freudenthal
recursion.  The table machinery is cross-checked against these routes.

Group elements are integer matrices acting on weight-basis coordinate rows
(v maps to v @ M).  Generation refuses algebras whose group order exceeds
ENVELOPE_MAX_ORDER = |W(E6)|; anything beyond that (the order of W(E8) is
696729600) is out of scope for full enumeration here.  The envelope and its
check_envelope live in weylchar.algebra, next to weyl_order, so that the
tables can apply it without loading this module.  Dimensions and
multiplicities never touch the group and work on every type, E7 and E8
included.
"""

from operator import mul

from . import linalg
from .algebra import (
    _dominant_coords,
    _orbit_rows,
    _require_dominant_integral,
    check_envelope,
    pair_with_root,
)
from .errors import IntegrityError
from .frozen import Frozen


class WeylGroup(Frozen):
    """All elements of the Weyl group with their determinant signs."""

    __slots__ = (
        "algebra",      # Algebra
        "elements",     # integer matrices, canonical (sorted) order
        "signatures",
    )

    def __init__(self, algebra, elements, signatures):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "signatures", signatures)

    @property
    def order(self):
        return len(self.elements)


def generate(a):
    """Enumerate the Weyl group by closing the simple reflections.

    Deterministic: the element list is sorted canonically.  Signs are tracked
    through the closure (each generator flips the determinant) and are
    therefore exact.  The simple reflection s_i is I - e_i cartan[i], so the
    product M s_i changes only the rows j with M[j][i] != 0, each by
    M[j][i] times the sparse row cartan[i]; no full matrix product is formed.
    """
    expected = check_envelope(a)
    r = a.rank
    sparse = [tuple((k, x) for k, x in enumerate(row) if x) for row in a.cartan]

    def step(row, c, nonzero):
        out = list(row)
        for k, x in nonzero:
            out[k] -= c * x
        return tuple(out)

    ident = linalg.identity(r)
    signs = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            s = -signs[m]
            for i, nonzero in enumerate(sparse):
                prod = tuple(
                    [row if not row[i] else step(row, row[i], nonzero) for row in m]
                )
                if prod not in signs:
                    signs[prod] = s
                    nxt.append(prod)
        frontier = nxt
        if len(signs) > expected:
            raise IntegrityError(
                f"Weyl closure for {a.name} exceeded the classical order {expected}"
            )
    if len(signs) != expected:
        raise IntegrityError(
            f"Weyl closure for {a.name} produced {len(signs)} elements, "
            f"expected {expected}"
        )
    elements = tuple(sorted(signs))
    return WeylGroup(
        algebra=a,
        elements=elements,
        signatures=tuple(signs[m] for m in elements),
    )


def alternant_direct(a, weight, group=None):
    """Signed sum of e^(w(rho + weight)) over the whole Weyl group.

    This is the character-formula numerator computed the expensive way, used
    as the independent reference for the table route.  When group is omitted
    it is generated on the spot, so a bare call prices in the full cost of
    touching the Weyl group.  LaurentPoly is imported here, so that the
    requests that need only dimensions or multiplicities never load it.
    """
    from .laurent import LaurentPoly

    m = _require_dominant_integral(a, weight)
    if group is None:
        group = generate(a)
    elif group.algebra is not a:
        raise IntegrityError("group was generated for a different algebra")
    vec = tuple(x + 1 for x in m)  # rho + weight, strictly dominant
    terms = {}
    for mat, sign in zip(group.elements, group.signatures):
        e = linalg.vec_mat(vec, mat)
        if e in terms:
            raise IntegrityError("strictly dominant vector has a repeated image")
        terms[e] = sign
    return LaurentPoly._raw(a.rank, terms)


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
    order the Freudenthal recursion needs; the depth is top - mu in the root
    basis, so it determines mu and the order is total.
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
        frontier = nxt
    return sorted(depth_of.items(), key=lambda t: (sum(t[1]), t[1]))


def freudenthal_multiplicities(a, weight):
    """Weight multiplicities of the irreducible module, by recursion.

    Returns the full finitely-supported map from weight-basis coordinate rows
    to multiplicities: dominant weights come from the recursion, the rest by
    Weyl-orbit invariance.  The arithmetic stays in integers: norms are taken
    on gram_weight_scaled, the form times cartan_det, so each multiplicity is
    2 cartan_det acc / (N(lambda + rho) - N(mu + rho)) and must divide
    exactly.
    """
    m = _require_dominant_integral(a, weight)
    gram = a.gram_weight_scaled

    def norm(v):
        return sum(map(mul, linalg.vec_mat(v, gram), v))

    top_norm = norm(tuple(x + 1 for x in m))
    scale = 2 * a.cartan_det
    roots = _root_rows(a)
    r = a.rank
    cartan = a.cartan

    dominant = {}
    for mu, depth in _dominant_weights_below(a, m):
        if not any(depth):
            dominant[mu] = 1
            continue
        acc = 0
        for nw, n in roots:
            k = 1
            while True:
                nu = tuple(mu[j] + k * nw[j] for j in range(r))
                mult = dominant.get(_dominant_coords(cartan, nu)[0])
                if mult is None:
                    break  # weights along a root string are contiguous
                acc += mult * pair_with_root(a, nu, n)
                k += 1
        denom = top_norm - norm(tuple(x + 1 for x in mu))
        if denom <= 0:
            raise IntegrityError("Freudenthal denominator must be positive")
        value, rem = divmod(scale * acc, denom)
        if rem or value < 0:
            raise IntegrityError(
                f"Freudenthal recursion gave non-integral multiplicity at {mu}"
            )
        dominant[mu] = value

    full = {}
    for mu, mult in dominant.items():
        if mult:
            full.update(dict.fromkeys(_orbit_rows(cartan, mu), mult))
    return full
