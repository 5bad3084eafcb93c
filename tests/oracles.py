"""Test oracles: small reference functions that only the tests call.

They restate, outside the library, facts the library relies on: a single
variable or a constant as a polynomial, the polynomial arithmetic the
tests write expected values with and the library does not need
(subtraction, powers, and a polynomial read from its ``poly_text``
form), the pair order of pole coordinates, the order of
a section, the weights of the coefficient variables and weighted
homogeneity of a polynomial, what makes a genericity witness, divisibility
of monomials by their exponent vectors, the product of polynomials on
exponent tuples, the twisted section coefficients sigma_l as sums of
polynomials, and the generators' earlier routes: the perturbed family as
``MPoly`` products over renamed factors, its Jacobian by differentiating
in the doubled ring and identifying ct := c, and F_{-n} as a sum of
``MPoly`` products; the series sums written with ``TSeries`` ``+`` and
``*`` alone: polynomials evaluated at series points term by term, the
table of binomial powers of the unit and the solve that fills it, the
coefficients of W^l read off that table, Miller's power recurrence, and
the matching identity's difference with column 0 of each W^l read off
the table like every other column; and a Groebner pair loop's packed
entries as ``MPoly``s.
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


def constant(varset: VarSet, value) -> MPoly:
    """The scalar ``value`` as a constant polynomial over ``varset``."""
    return MPoly(varset, {(0,) * len(varset): value})


def sub(p: MPoly, q: MPoly) -> MPoly:
    """p - q."""
    return p + q * -1


def power(p: MPoly, n: int) -> MPoly:
    """p^n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = constant(p.varset, 1)
    base = p
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


_TERM = re.compile(r"\s*([+-]?)\s*([^\s+-]+)")


def poly(varset: VarSet, text: str) -> MPoly:
    """The polynomial over ``varset`` written ``text`` in the ``poly_text``
    form: terms joined by " + " or " - ", each a rational coefficient p/q,
    a monomial such as x^2*y, or the two joined by "*". Terms may come in
    any order, and terms in one monomial add."""
    if not text.strip():
        raise ValueError("empty polynomial text")
    terms: dict[Exponents, Fraction] = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if match is None:
            raise ValueError(f"cannot read {text[pos:]!r} in {text!r}")
        sign, body = match.groups()
        coeff, exps = Fraction(-1 if sign == "-" else 1), [0] * len(varset)
        for factor in body.split("*"):
            name, caret, exp = factor.partition("^")
            if name[:1].isdigit():
                coeff *= Fraction(name)
            else:
                exps[varset.index(name)] += int(exp) if caret else 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
        pos = match.end()
    return MPoly(varset, terms)


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
        diff_k = sub(variable(varset, f"c{k}"), variable(varset, f"ct{k}"))
        total = total + weight * diff_k * f_tail
        for l in range(2, k - 1):
            diff_kl = sub(variable(varset, f"c{k - l}"), variable(varset, f"ct{k - l}"))
            ct_l = variable(varset, f"ct{l}")
            total = sub(total, weight * Fraction(a - l, a) * diff_kl * ct_l * f_tail)
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


def evaluate_by_sums(polys: Sequence[MPoly], point: Sequence[series.TSeries]
                     ) -> list[series.TSeries]:
    """The polynomials at a point of series, each monomial built from 1 by
    one product per unit of its exponents and kept for the next polynomial,
    each term one product of it with its coefficient, added term by term: a
    series for every polynomial, zero and constants included. The
    reference for ``polycore.evaluate_many`` at series points."""
    modulus = point[0].modulus
    table: dict[Exponents, series.TSeries] = {}
    out = []
    for p in polys:
        total = series.TSeries.zero(modulus)
        for e, c in p.terms.items():
            m = table.get(e)
            if m is None:
                m = series.TSeries.constant(1, modulus)
                for v, k in zip(point, e):
                    for _ in range(k):
                        m = m * v
                table[e] = m
            total = total + m * c
        out.append(total)
    return out


def w_coeff(powers: list[list[series.TSeries]], binom: Sequence[int], m: int) -> series.TSeries:
    """[W^l]_m = sum_j C(l, j) [V_j]_m, the s^{-m} coefficient of W^l, off a
    table of binomial powers V_j = (W - 1)^j and ``binom`` = C(l, 0),
    C(l, 1), ...; the sum stops at the shorter of the two."""
    acc = powers[0][m]
    for j in range(1, min(len(binom), len(powers))):
        acc = acc + powers[j][m] * binom[j]
    return acc


def binomial_column(powers: list[list[series.TSeries]], m: int) -> None:
    """Fill column m of every row j >= 2 of a table of binomial powers:
    [V_j]_m = sum_{k=1}^{m-j+1} [V_1]_k [V_{j-1}]_{m-k}."""
    step = powers[1]
    for j in range(2, len(powers)):
        acc = series.TSeries.zero(step[0].modulus)
        for k in range(1, m - j + 2):
            acc = acc + step[k] * powers[j - 1][m - k]
        powers[j][m] = acc


def reparam_table(model: LocalModel, c_now: Sequence[series.TSeries],
                  c_next: Sequence[series.TSeries], smax: int, modulus: int
                  ) -> tuple[list[series.TSeries], list[list[series.TSeries]]]:
    """The unit and the table of binomial powers of ``series.reparam_solve``,
    solved order by order with ``binomial_column`` and ``w_coeff``: u_m is
    (c_m(now) - the s^{a-m} coefficient of the left side) / a, the left
    side being sum_k coeff[k] [W^(a-k)]_(m-k) with coeff[0] = 1."""
    a = model.a
    zero = series.TSeries.zero(modulus)
    one = series.TSeries.constant(1, modulus)
    coeff = [one, zero, *c_next]
    powers = [[one] + [zero] * smax, [zero] * (smax + 1)]
    for m in range(2, smax + 1):
        if powers[-1][m - 1]:
            powers.append([zero] * (smax + 1))
        binomial_column(powers, m)
        lhs = zero
        for k in range(min(a, m) + 1):
            lhs = lhs + coeff[k] * w_coeff(powers, series._binomials(a - k, a - k), m - k)
        rhs = c_now[m - 2] if m <= a else zero
        powers[1][m] = (rhs - lhs) * Fraction(1, a)
    return [one] + powers[1][1:], powers


def unit_powers(unit: Sequence[series.TSeries], l: int, depth: int) -> list[series.TSeries]:
    """[W^l]_0 .. [W^l]_depth by J. C. P. Miller's recurrence
    p_m = (1/m) sum_{k=1..m} ((l+1)k - m) u_k p_{m-k}, p_0 = 1."""
    p = [unit[0]]
    for m in range(1, depth + 1):
        acc = series.TSeries.zero(unit[0].modulus)
        for k in range(1, m + 1):
            acc = acc + unit[k] * p[m - k] * ((l + 1) * k - m)
        p.append(acc * Fraction(1, m))
    return p


def pm_difference_by_column_0(sigma_model: SigmaModel, c_now: Sequence[series.TSeries],
                              c_next: Sequence[series.TSeries], smax: int,
                              modulus: int) -> list[series.TSeries]:
    """The regrouped difference of ``series._pm_difference``, each W^l read
    from column 0 on: [W^l]_0 = 1 comes off the table like any other
    column and is added to sigma_l(now)'s share of s^l as a product with
    sigma_l(next). The reference for ``_pm_difference``, which adds
    sigma_l(next) - sigma_l(now) at s^l directly and sums each column in
    one accumulator; here every sum is term by term."""
    model = sigma_model.model
    l_max = model.b + len(sigma_model.g0)
    l_sing = max(modulus - model.b - 1, 0)
    ls = range(-l_sing, l_max + 1)
    polys = [sigma_coeff(sigma_model, l, tmax=modulus - 1) for l in ls]
    sig_now = evaluate_by_sums(polys, c_now)
    sig_next = evaluate_by_sums(polys, c_next)
    orders = [s.ord() for s in sig_next]
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
                p = w_coeff(powers, binom, m)
                if p:
                    diff[l_max - l + m] = diff[l_max - l + m] + p * s_nxt
    return diff


def loop_basis(varset: VarSet, run: GBResult) -> list[MPoly]:
    """A ``buchberger`` run's entries as ``MPoly``s over ``varset``, with
    the primitive int coefficients the pair loop left them."""
    unpack = run.packing.unpack
    return [MPoly._of(varset, {unpack(m): c for m, c in entry.terms.items()})
            for entry in run.entries]
