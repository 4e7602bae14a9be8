"""Faults that make a command fail one of its own checks (exit code 3).

Each takes a setattr-like callable and patches one library function with it:
pytest's monkeypatch.setattr in-process, the builtin setattr in a child
process, before the child runs the package's __main__.
"""

from types import SimpleNamespace

from weylchar import tables, tensor, weylgroup
from weylchar.laurent import LaurentPoly


def verify(patch):
    """The direct alternant gains 1 at the zero row: verify reports FAILED."""
    real = weylgroup.alternant_direct

    def perturbed(a, weight, group=None):
        alt = real(a, weight, group=group)
        zero = (0,) * a.rank
        return LaurentPoly(a.rank, {**alt.terms, zero: alt.coeff(zero) + 1})

    patch(weylgroup, "alternant_direct", perturbed)


def character(patch):
    """The sign of rho - s_1 rho of G2 flips: the character is refused."""
    real = tables.rho_shifts

    def one_sign_flipped(table):
        return [(row, -s if row == (1, 0) else s) for row, s in real(table)]

    patch(tables, "rho_shifts", one_sign_flipped)


def tensor_top(patch):
    """The highest weight of the character has multiplicity -1: the tensor
    product's top summand gets a negative net multiplicity."""
    real = tensor.character

    def top_multiplicity_negated(a, weight, method="gamma"):
        terms = dict(real(a, weight, method).poly.terms)
        terms[tuple(weight)] = -1
        return SimpleNamespace(poly=LaurentPoly(a.rank, terms))

    patch(tensor, "character", top_multiplicity_negated)
