"""Test oracles: small reference functions that only the tests call.

They restate, outside the library, facts the library relies on: a single
variable as a polynomial, the pair order of pole coordinates, the order of
a section, the weights of the coefficient variables and weighted
homogeneity of a polynomial, what makes a genericity witness, divisibility
of monomials by their exponent vectors, the product of polynomials on
exponent tuples, the twisted section coefficients sigma_l as sums of
polynomials, and the generators' earlier routes: the perturbed family as
``MPoly`` products over renamed factors, its Jacobian by differentiating
in the doubled ring and identifying ct := c, and F_{-n} as a sum of
``MPoly`` products; the matching identity's difference with column 0
of each W^l read off the table like every other column; and a Groebner
pair loop's packed entries as ``MPoly``s.
"""

import math
import re
from fractions import Fraction
from operator import add, le
from typing import Sequence

from equigen import series
from equigen.expansion import LocalModel, SigmaModel, big_f, f_coeff, sigma_coeff, theta_cap
from equigen.groebner import GBResult, check_t
from equigen.lifting import (
    Pair,
    SectionProfile,
    SingularConfig,
    _pair_key,
    pair_value,
    validate_section,
)
from equigen.polycore import Exponents, MPoly, VarSet, evaluate_many


def variable(varset: VarSet, name: str) -> MPoly:
    """The variable ``name`` of ``varset`` as a polynomial."""
    exps = [0] * len(varset)
    exps[varset.index(name)] = 1
    return MPoly(varset, {tuple(exps): Fraction(1)})


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
    k1, k2 = _pair_key(config, p1), _pair_key(config, p2)
    return (k1 > k2) - (k1 < k2)


def section_ord(config: SingularConfig, section: SectionProfile) -> tuple[Pair | None, int | float]:
    """Leading pole coordinate P (the largest in the pair order) and the
    section order, the minimum attached value over the polar support.
    The empty support has no P and infinite order."""
    validate_section(config, section)
    if not section.psupp:
        return None, math.inf
    best = max(section.psupp, key=lambda pr: _pair_key(config, pr))
    return best, pair_value(config, best)


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


def sigma_by_sums(sigma_model: SigmaModel, l: int, tmax: int) -> MPoly:
    """sigma_{-l} = f_coeff(b, b-l) + sum_r g_{0,r} * f_coeff(b+r, b+r-l) as
    a sum of ``MPoly`` values, keeping the summands of weighted degree at
    most tmax; the reference for ``expansion.sigma_coeff``."""
    model = sigma_model.model
    b = model.b
    total = MPoly.zero(model.varset)
    if 0 <= b - l <= tmax:
        total = total + f_coeff(model, b, b - l)
    for r, g in enumerate(sigma_model.g0, start=1):
        if g and 0 <= b + r - l <= tmax:
            total = total + g * f_coeff(model, b + r, b + r - l)
    return total


def f_bar_by_products(model: LocalModel, j: int) -> MPoly:
    """fbar_{b+j} over the doubled ring (c, ct) from ``MPoly`` products of
    renamed f_coeff values and single variables, term for term the formula
    of the ``expansion.f_bar`` docstring; its reference."""
    a, b = model.a, model.b
    varset = model.doubled_varset
    tilde = [f"ct{k}" for k in range(2, a + 1)]
    total = f_coeff(model, b, b + j).rename(varset)
    for k in range(2, j):
        weight = Fraction(j - k, a)
        f_tail = f_coeff(model, b, b + j - k).rename(varset, tilde)
        diff_k = variable(varset, f"c{k}") - variable(varset, f"ct{k}")
        total = total + weight * diff_k * f_tail
        for l in range(2, k - 1):
            diff_kl = (variable(varset, f"c{k - l}")
                       - variable(varset, f"ct{k - l}"))
            ct_l = variable(varset, f"ct{l}")
            total = total - weight * Fraction(a - l, a) * diff_kl * ct_l * f_tail
    return total


def jacobian_by_identification(model: LocalModel) -> tuple[tuple[MPoly, ...], ...]:
    """d fbar_{b+j} / d c_k taken in the doubled ring, then renamed into the
    single ring with ct := c; the reference for
    ``expansion.f_bar_jacobian_matrix``."""
    single = model.varset.names * 2
    return tuple(tuple(f_bar_by_products(model, j).diff(f"c{k}").rename(model.varset, single)
                       for k in range(2, model.a + 1))
                 for j in range(1, model.a))


def big_f_by_sums(model: LocalModel, n: int) -> MPoly:
    """F_{-n} = sum_{m=1}^{n} Theta_{n-m}^{(-m)} * f_{b+m} as a sum of
    ``MPoly`` products; the reference for ``expansion.big_f``."""
    total = MPoly.zero(model.varset)
    for m in range(1, n + 1):
        total = total + theta_cap(model, -m, n - m) * f_coeff(model, model.b, model.b + m)
    return total


def pm_difference_by_column_0(sigma_model: SigmaModel, c_now: Sequence[series.TSeries],
                              c_next: Sequence[series.TSeries], smax: int,
                              modulus: int) -> list[series.TSeries]:
    """The regrouped difference of ``series._pm_difference``, each W^l read
    from column 0 on: [W^l]_0 = 1 comes off the table like any other
    column and is added to sigma_l(now)'s share of s^l as a product with
    sigma_l(next). The reference for ``_pm_difference``, which adds
    sigma_l(next) - sigma_l(now) at s^l directly."""
    model = sigma_model.model
    l_max = model.b + len(sigma_model.g0)
    l_sing = max(modulus - model.b - 1, 0)
    ls = range(-l_sing, l_max + 1)
    polys = [sigma_coeff(sigma_model, l, tmax=modulus - 1) for l in ls]
    sig_now = evaluate_many(polys, c_now)
    sig_next = evaluate_many(polys, c_next)
    orders = [(s.ord() if isinstance(s, series.TSeries) else 0) if s else modulus
              for s in sig_next]
    tops = [min(l + smax, max(modulus - 2 - o, 0)) if o < modulus else -1
            for l, o in zip(ls, orders)]
    depth = max(model.a, smax, *tops)
    powers = series.reparam_solve(model, c_now, c_next, depth, modulus).powers
    column_ord = [min(row[m].ord() for row in powers) for m in range(depth + 1)]

    diff = [series.TSeries.zero(modulus)] * (smax + l_max + 1)
    for l, s_now, s_nxt, order, top in zip(ls, sig_now, sig_next, orders, tops):
        diff[l_max - l] = diff[l_max - l] - s_now
        if top >= 0:
            room = modulus - order
            binom = series._binomials(l, len(powers) - 1)
            for m in range(top + 1):
                if column_ord[m] >= room:
                    continue
                p = series._w_coeff(powers, binom, m)
                if p:
                    diff[l_max - l + m] = diff[l_max - l + m] + p * s_nxt
    return diff


def loop_basis(varset: VarSet, run: GBResult) -> list[MPoly]:
    """A ``buchberger`` run's entries as ``MPoly``s over ``varset``, with
    the primitive int coefficients the pair loop left them."""
    unpack = run.packing.unpack
    return [MPoly._of(varset, {unpack(m): c for m, c in entry.terms.items()})
            for entry in run.entries]
