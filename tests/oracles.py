"""Test oracles: small reference functions that only the tests call.

They restate, outside the library, facts the library relies on: the pair
order of pole coordinates, the order of a section, the weights of the
coefficient variables and weighted homogeneity of a polynomial, what makes
a genericity witness, divisibility of monomials by their exponent vectors,
and the product of polynomials on exponent tuples.
"""

import math
import re
from fractions import Fraction
from operator import add, le
from typing import Sequence

from equigen.expansion import LocalModel, big_f
from equigen.groebner import check_t
from equigen.lifting import (
    Pair,
    SectionProfile,
    SingularConfig,
    _pair_key,
    compute_weights,
    pair_value,
    validate_section,
)
from equigen.polycore import Exponents, MPoly, evaluate_many


def divides(e1: Exponents, e2: Exponents) -> bool:
    """Does the monomial with exponents e1 divide the one with exponents e2?"""
    return all(map(le, e1, e2))


def tuple_product(p: MPoly, q: MPoly) -> MPoly:
    """p * q term by term: exponent tuples added, Fraction coefficients
    multiplied and summed, terms in the order the pairs first meet."""
    acc: dict[Exponents, Fraction] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + Fraction(c1) * Fraction(c2)
    return MPoly(p.varset, acc)


def pair_compare(config: SingularConfig, p1: Pair, p2: Pair) -> int:
    """Total order on pole coordinates (see ``lifting._pair_key``). Returns -1, 0, or 1."""
    w = compute_weights(config)
    k1, k2 = _pair_key(config, w, p1), _pair_key(config, w, p2)
    return (k1 > k2) - (k1 < k2)


def section_ord(config: SingularConfig, section: SectionProfile) -> tuple[Pair | None, int | float]:
    """Leading pole coordinate P (the largest in the pair order) and the
    section order, the minimum attached value over the polar support.
    The empty support has no P and infinite order."""
    validate_section(config, section)
    if not section.psupp:
        return None, math.inf
    w = compute_weights(config)
    best = max(section.psupp, key=lambda pr: _pair_key(config, w, pr))
    return best, pair_value(config, w, best)


def variable_weight(name: str) -> int:
    """Weight k of a coefficient variable ``c<k>``, ``ct<k>`` or ``c<k>_<j>``."""
    match = re.fullmatch(r"ct?(\d+)(?:_\d+)?", name)
    if match is None:
        raise ValueError(f"{name!r} is not a coefficient variable")
    return int(match.group(1))


def weighted_degree(p: MPoly):
    """Weighted degree of ``p`` if homogeneous: int, "inhomogeneous", or "any".

    Variables are weighted by ``variable_weight``. "any" is the
    distinguished answer for the zero polynomial, which is homogeneous of
    every degree.
    """
    if not p.terms:
        return "any"
    w = [variable_weight(name) for name in p.varset.names]
    degs = {sum(wi * ei for wi, ei in zip(w, e)) for e in p.terms}
    if len(degs) > 1:
        return "inhomogeneous"
    return degs.pop()


def witness_verify(model: LocalModel, i: int, point: Sequence[Fraction]) -> bool:
    """Confirm a genericity witness: every other obstruction vanishes at the
    point, the i-th does not, and the point is transversal."""
    point = tuple(Fraction(x) for x in point)
    if len(point) != model.a - 1:
        raise ValueError(f"point must have {model.a - 1} coordinates")
    values = evaluate_many([big_f(model, n) for n in range(1, model.a)], point)
    if any((val != 0) != (n == i) for n, val in enumerate(values, start=1)):
        return False
    return check_t(model, point)
