"""Coefficient machinery for the branch expansion of a one-place curve germ.

The germ ``w^a = z^b * unit`` (gcd-free exponents ``2 <= a < b``,
``b`` not a multiple of ``a``) has a parameterization ``z = s^a``,
``w = T_b = (s^a + c_2 s^{a-2} + ... + c_a)^{b/a}``, a fractional-power
series whose coefficients are polynomials in ``c_2..c_a``. This module
generates those coefficient polynomials and everything derived from them:

* ``f_coeff``: coefficients ``f_coeff(beta, m)`` of ``s^{-m}`` in
  ``(1 + sum c_k s^{-k})^{beta/a}``, one multinomial-theorem pass over
  the exponent vectors of weighted degree ``m``, one Fraction per term,
* ``theta_cap``: every power of the inverse unit ``s/S`` of ``S = s*u(s)``
  (``u`` has coefficients ``gamma_i = f_coeff(1, i)``),
  ``Theta_i^{(l)} = (-l)/(i-l) * f_coeff(i-l, i)``; the inverse unit's own
  coefficients are ``theta_m = Theta_m^{(1)} = -f_coeff(m-1, m) / (m-1)``,
* ``big_f``: the obstruction polynomials (singular-tail coefficients),
  ``F_{-n} = sum_{m=1}^{n} Theta_{n-m}^{(-m)} f_coeff(b, b+m)``, one
  packed sum of products (``polycore.product_sum``),
* ``f_bar`` / ``jac_bar``: the comparison-perturbed system, written term
  by term in integer numerators over one common denominator, and its
  Jacobian determinant. The Jacobian matrix is Toeplitz:
  by the derivative identity
  ``d f_coeff(beta, m) / d c_k = (beta/a) f_coeff(beta-a, m-k)`` its entry
  (j, k) is ``T_{j-k}``, a closed form in cached ``f_coeff`` values built
  once per model in the single ring (see ``f_bar_jacobian_matrix``). Its
  determinant is the division-free minors expansion of
  ``polycore.det_bareiss`` (run on integer coefficients over packed
  exponent keys, sparsest rows first: on the Toeplitz matrix from the top
  row down), and ``f_bar_jacobian_at`` gives the Jacobian at a rational
  point,
* ``sigma_coeff``: section coefficients twisted by a polar part ``g0``.

``theta_cap`` is Lagrange inversion of ``S = s*u(s)``, the one formula
for the inverse unit and its powers: each coefficient is a single rescaled
``f_coeff`` value, so no series is inverted or composed. Everything is
exact; coefficients are Fractions and results are MPoly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .polycore import Exponents, MPoly, VarSet, evaluate_many, product_sum


@dataclass(frozen=True)
class LocalModel:
    """One singular point of type (a, b): w^a = z^b, 2 <= a < b, a not dividing b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not 2 <= self.a < self.b:
            raise ValueError(f"need 2 <= a < b, got a={self.a}, b={self.b}")
        if self.b % self.a == 0:
            raise ValueError(
                f"b={self.b} must not be a multiple of a={self.a}: a divisible "
                "contact order can be absorbed by a coordinate change, so the "
                "normalized model assumes a does not divide b")

    @property
    def varset(self) -> VarSet:
        return VarSet.coefficients(self.a)

    @property
    def doubled_varset(self) -> VarSet:
        return VarSet.doubled(self.a)


@dataclass(frozen=True)
class SigmaModel:
    """A local model together with the polar part g0 of a twisting section.

    g0[r-1] is the coefficient g_{0,r} of S^{b+r}; the list is finite and
    may be empty (untwisted sections).
    """

    model: LocalModel
    g0: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "g0", tuple(Fraction(g) for g in self.g0))


@functools.lru_cache(maxsize=None)
def f_coeff(model: LocalModel, beta_num: int, m: int) -> MPoly:
    """Coefficient of s^{-m} in (1 + sum_{k=2}^{a} c_k s^{-k})^{beta_num / a}.

    Multinomial theorem: each exponent vector (e_2..e_a) with sum k*e_k = m
    contributes alpha(alpha-1)...(alpha-B+1) / prod e_k! * prod c_k^{e_k},
    where alpha = beta_num/a and B = sum e_k; the falling factorial is the
    integer num = prod_{i<B} (beta_num - i*a) over a^B, so each term is one
    Fraction(num, a^B * prod e_k!).
    Weighted homogeneous of degree m. m = 0 gives 1 and m = 1 gives 0.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    a = model.a
    falling = [1]
    for i in range(m // 2):
        falling.append(falling[-1] * (beta_num - i * a))
    terms: dict[tuple[int, ...], Fraction] = {}

    def place(k: int, rest: int, tail: tuple[int, ...], total: int, den: int) -> None:
        # tail holds e_{k+1}..e_a; choose e_k, largest first. e_2 is forced.
        if k == 2:
            e2, odd = divmod(rest, 2)
            parts = total + e2
            if not odd and falling[parts]:
                terms[(e2,) + tail] = Fraction(falling[parts], a ** parts * den * math.factorial(e2))
            return
        for e in range(rest // k, -1, -1):
            place(k - 1, rest - k * e, (e,) + tail, total + e, den * math.factorial(e))

    place(a, m, (), 0, 1)
    return MPoly._of(model.varset, terms)


@functools.lru_cache(maxsize=None)
def theta_cap(model: LocalModel, l: int, i: int) -> MPoly:
    """Coefficient Theta_i^{(l)} of S^{-i} in (s/S)^l = (1 + sum theta_m S^{-m})^l.

    By Lagrange inversion Theta_i^{(l)} = (-l)/(i-l) * f_coeff(i-l, i), for
    0 <= i and l < i. At l = 1 it gives the inverse unit's coefficients
    theta_m = Theta_m^{(1)}. Theta_0 = 1 for l < 0, Theta_1 = 0;
    weighted homogeneous of degree i.
    """
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if i <= l:
        raise ValueError(f"need i > l, got l={l}, i={i}")
    return f_coeff(model, i - l, i) * Fraction(-l, i - l)


@functools.lru_cache(maxsize=None)
def big_f(model: LocalModel, n: int) -> MPoly:
    """Obstruction polynomial F_{-n}: the S^{-n} coefficient of the singular tail.

    F_{-n} = sum_{m=1}^{n} Theta_{n-m}^{(-m)} * f_{b+m}
           = sum_{m=1}^{n} (m/n) * f_coeff(n, n-m) * f_coeff(b, b+m),
    one packed sum of products (``polycore.product_sum``);
    weighted homogeneous of degree b + n. Defined for 1 <= n <= a-1.
    """
    if not 1 <= n <= model.a - 1:
        raise ValueError(f"need 1 <= n <= a-1 = {model.a - 1}, got {n}")
    b = model.b
    return product_sum(model.varset, [(theta_cap(model, -m, n - m), f_coeff(model, b, b + m))
                                      for m in range(1, n + 1)])


def _bump(exps: Exponents, i: int) -> Exponents:
    """exps with one more power of variable i."""
    return exps[:i] + (exps[i] + 1,) + exps[i + 1:]


@functools.lru_cache(maxsize=None)
def f_bar(model: LocalModel, j: int) -> MPoly:
    """Perturbed coefficient polynomial over the doubled ring (c, ct).

    fbar_{b+j}(c) = f_{b+j}(c)
        + sum_{k=2}^{j-1} ((j-k)/a) (c_k - ct_k) f_{b+j-k}(ct)
        - sum_{k=2}^{j-1} ((j-k)/a) sum_{l=2}^{k-2} ((a-l)/a)
              (c_{k-l} - ct_{k-l}) ct_l f_{b+j-k}(ct).

    Setting ct := c recovers f_{b+j}; the added terms are linear in the
    differences c_k - ct_k. For j = 1 there are no added terms.

    Written term by term into one dict: a term ct^e of f_{b+j-k}(ct) gives
    the two monomials c_k ct^e and ct_k ct^e of its difference factor, and
    two more, c_{k-l} ct_l ct^e and ct_{k-l} ct_l ct^e, for each l. The dict
    holds integer numerators over L = a^2 * lcm(denominators of the f_coeff
    terms read), and each result coefficient is one Fraction(c, L).
    """
    if not 1 <= j <= model.a - 1:
        raise ValueError(f"need 1 <= j <= a-1 = {model.a - 1}, got {j}")
    a, b = model.a, model.b
    # c_k is variable k - 2 of the doubled ring, ct_k is variable a + k - 3
    # (index k - 2 of the second half).
    zero = (0,) * (a - 1)
    unit = {k: _bump(zero, k - 2) for k in range(2, a + 1)}
    source = {k: f_coeff(model, b, b + j - k).terms for k in (0, *range(2, j))}
    lcm = math.lcm(*(c.denominator for f in source.values() for c in f.values()))
    scale = a * a * lcm
    terms: dict[Exponents, int] = {e + zero: c.numerator * (scale // c.denominator)
                                   for e, c in source[0].items()}
    get = terms.get
    for k in range(2, j):
        nested = [(k - l, l, (j - k) * (a - l)) for l in range(2, k - 1)]
        for e, c in source[k].items():
            c = c.numerator * (lcm // c.denominator)
            v = (j - k) * a * c
            for key, value in ((unit[k] + e, v), (zero + _bump(e, k - 2), -v)):
                terms[key] = get(key, 0) + value
            for i, l, w in nested:
                el = _bump(e, l - 2)
                v = w * c
                for key, value in ((unit[i] + el, -v), (zero + _bump(el, i - 2), v)):
                    terms[key] = get(key, 0) + value
    return MPoly._of(model.doubled_varset, {e: Fraction(c, scale) for e, c in terms.items() if c})


def _jacobian_entry(model: LocalModel, n: int) -> MPoly:
    """T_n = d fbar_{b+j} / d c_k at ct := c, for n = j - k (see
    ``f_bar_jacobian_matrix``)."""
    a, b = model.a, model.b
    # (b/a) f_coeff(b-a, b+n), read off a cached f_coeff(b, .) by the
    # derivative identity.
    if n >= -1:
        lead = f_coeff(model, b, b + n + 2).diff("c2")
    else:
        lead = f_coeff(model, b, b + 1).diff(f"c{1 - n}")
    terms = dict(lead.terms)
    get = terms.get
    if n >= 1:
        weight = Fraction(n, a)
        for e, c in f_coeff(model, b, b + n).terms.items():
            terms[e] = get(e, 0) + weight * c
    for l in range(2, n):
        weight = Fraction((n - l) * (a - l), a * a)
        for e, c in f_coeff(model, b, b + n - l).terms.items():
            key = _bump(e, l - 2)
            terms[key] = get(key, 0) - weight * c
    return MPoly._of(model.varset, {e: c for e, c in terms.items() if c})


@functools.lru_cache(maxsize=None)
def f_bar_jacobian_matrix(model: LocalModel) -> tuple[tuple[MPoly, ...], ...]:
    """Matrix d fbar_{b+j} / d c_k (j = 1..a-1 rows, k = 2..a columns),
    taken in the plain variables with the comparison copy then identified
    with them (ct := c), so entries live in the single ring c2..ca.

    The matrix is Toeplitz: by the derivative identity
    d f_coeff(beta, m) / d c_k = (beta/a) f_coeff(beta-a, m-k), entry
    (j, k) depends only on n = j - k, and is

        T_n = (b/a) f_coeff(b-a, b+n) + [n >= 1] (n/a) f_coeff(b, b+n)
              - sum_{l=2}^{n-1} ((n-l)(a-l)/a^2) c_l f_coeff(b, b+n-l),

    n = 1-a .. a-3. The first summand is f_coeff(b, b+n+2) differentiated
    in c2 for n >= -1, and f_coeff(b, b+1) differentiated in c_{1-n} for
    n <= -1. Each T_n is built once and placed at every (j, k) with
    j - k = n. Cached per model, hence a tuple of tuples.
    """
    a = model.a
    toeplitz = {n: _jacobian_entry(model, n) for n in range(1 - a, a - 2)}
    return tuple(tuple(toeplitz[j - k] for k in range(2, a + 1)) for j in range(1, a))


def f_bar_jacobian_at(model: LocalModel, point: Sequence[Fraction]) -> list[dict[int, Fraction]]:
    """``f_bar_jacobian_matrix`` at a rational point c2..ca, as sparse rows:
    column k - 2 holds d/dc_k, zero entries are left out."""
    if len(point) != model.a - 1:
        raise ValueError(f"point must have {model.a - 1} coordinates")
    point = [Fraction(x) for x in point]
    return [{k: v for k, v in enumerate(evaluate_many(row, point)) if v}
            for row in f_bar_jacobian_matrix(model)]


_JAC_BARS: dict[LocalModel, MPoly] = {}


def jac_bar(model: LocalModel, expired: Callable[[], bool] | None = None) -> MPoly | None:
    """Determinant of the perturbed-system Jacobian, in the single ring,
    memoised per model (``jac_bar.cache_clear`` empties the memo).

    For a = 2 this is the single derivative d f_{b+1} / d c_2. ``expired``
    goes to ``det_bareiss``: once it reports the caller's clock run out,
    the expansion stops, nothing is stored, and the result is None.
    """
    det = _JAC_BARS.get(model)
    if det is None:
        # Looked up on the module at each call, so a wrapper installed there is used.
        from .polycore import det_bareiss

        det = det_bareiss(f_bar_jacobian_matrix(model), expired)
        if det is not None:
            _JAC_BARS[model] = det
    return det


jac_bar.cache_clear = _JAC_BARS.clear


def sigma_coeff(sigma_model: SigmaModel, l: int, tmax: int) -> MPoly:
    """Coefficient of s^l in S^b + S^{b+1} g0(S), as a polynomial in c.

    sigma_{-l} = f_coeff(b, b-l) + sum_r g_{0,r} * f_coeff(b+r, b+r-l),
    keeping only summands of weighted degree at most tmax. Negative
    fractional-series indices contribute nothing.

    The summand of g_{0,r} is weighted homogeneous of degree b + r - l, so
    no two summands share a monomial: the result is the disjoint union of
    their terms, one product per term of a twisted summand and no sum.
    """
    model = sigma_model.model
    b = model.b
    terms: dict = {}
    if 0 <= b - l <= tmax:
        terms.update(f_coeff(model, b, b - l).terms)
    for r, g in enumerate(sigma_model.g0, start=1):
        if g and 0 <= b + r - l <= tmax:
            for e, c in f_coeff(model, b + r, b + r - l).terms.items():
                terms[e] = g * c
    return MPoly._of(model.varset, terms)
