"""Weyl group enumeration, the direct alternant and the Freudenthal recursion.

Everything here is independent of the reconstruction tables in
weylchar.tables: the group is generated as matrices, and the character-formula
alternant is summed term by term over it.  Weight multiplicities come from
the Freudenthal recursion, which never touches the group and works on every
type, E7 and E8 included.  The table route and the characters are
cross-checked against these.

Group elements are integer matrices acting on weight-basis coordinate rows
(v maps to v @ M).  Generation refuses algebras whose group order exceeds
ENVELOPE_MAX_ORDER = |W(E6)|; anything beyond that (the order of W(E8) is
696729600) is out of scope for full enumeration here.  The envelope and its
check_envelope live in weylchar.algebra, next to weyl_order, so that the
tables can apply it without loading this module.  So do weyl_dimension and
the descent to the dominant weights, which the characters also need.
weyl_dimension stays readable as weylgroup.weyl_dimension for the callers
that look it up here.
"""

from operator import mul

from . import linalg
from .algebra import (
    _dominant_coords,
    _dominant_weights_below,
    _require_dominant_integral,
    _root_rows,
    _spread_orbits,
    check_envelope,
    pair_with_root,
    weyl_dimension,
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

    return _spread_orbits(cartan, dominant)
