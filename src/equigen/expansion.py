"""Coefficient machinery for the branch expansion of a one-place curve germ.

The germ ``w^a = z^b * unit`` (gcd-free exponents ``2 <= a < b``,
``b`` not a multiple of ``a``) has a parameterization ``z = s^a``,
``w = T_b = (s^a + c_2 s^{a-2} + ... + c_a)^{b/a}``, a fractional-power
series whose coefficients are polynomials in ``c_2..c_a``. This module
generates those coefficient polynomials and everything derived from them:

* ``f_coeff``: coefficients ``f_coeff(beta, m)`` of ``s^{-m}`` in
  ``(1 + sum c_k s^{-k})^{beta/a}``, a sum over partitions of ``m``,
* ``gamma_coeff``: the unit ``u`` with ``S = s*u(s)``, ``gamma_i = f_coeff(1, i)``,
* ``theta_series``: its inverse unit, ``theta_m = -f_coeff(m-1, m) / (m-1)``,
* ``theta_cap``: powers of the inverse unit,
  ``Theta_i^{(l)} = (-l)/(i-l) * f_coeff(i-l, i)``,
* ``big_f``: the obstruction polynomials (singular-tail coefficients),
  ``F_{-n} = sum_{m=1}^{n} (m/n) f_coeff(n, n-m) f_coeff(b, b+m)``,
* ``f_bar`` / ``jac_bar``: the comparison-perturbed system and its Jacobian
  determinant; the Jacobian matrix is built once per model, its determinant
  by the division-free minors expansion of ``polycore.det_bareiss``, and
  ``f_bar_jacobian_at`` gives the Jacobian at a rational point,
* ``sigma_coeff``: section coefficients twisted by a polar part ``g0``.

The three inverse-unit formulas are Lagrange inversion of ``S = s*u(s)``:
each is a single rescaled ``f_coeff`` value, so no series is inverted or
composed. Everything is exact; coefficients are Fractions and results are
MPoly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .polycore import MPoly, VarSet

Partition = dict[int, int]


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


def partitions(n: int, lo: int = 2, hi: int | None = None) -> list[Partition]:
    """All partitions of n with parts in [lo, hi], as part -> multiplicity maps.

    n = 0 yields the empty partition; n < 0 yields nothing. hi = None means
    no upper bound (effectively n).
    """
    if n < 0:
        return []
    cap = n if hi is None else min(hi, n)
    results: list[Partition] = []
    current: Partition = {}

    def descend(remaining: int, max_part: int) -> None:
        if remaining == 0:
            results.append(dict(current))
            return
        for part in range(min(max_part, remaining), lo - 1, -1):
            current[part] = current.get(part, 0) + 1
            descend(remaining - part, part)
            if current[part] == 1:
                del current[part]
            else:
                current[part] -= 1

    descend(n, cap)
    return results


def gen_multinomial(alpha: Fraction | int, lam: Partition) -> Fraction:
    """Generalized multinomial: falling factorial of alpha over multiplicity factorials.

    With beta_j the multiplicities of lam and B their sum, this is
    ``prod_{i=0}^{B-1} (alpha - i) / prod_j beta_j!``.
    """
    alpha = Fraction(alpha)
    total = sum(lam.values())
    num = Fraction(1)
    for i in range(total):
        num *= alpha - i
    den = 1
    for mult in lam.values():
        den *= math.factorial(mult)
    return num / den


@functools.lru_cache(maxsize=None)
def f_coeff(model: LocalModel, beta_num: int, m: int) -> MPoly:
    """Coefficient of s^{-m} in (1 + sum_{k=2}^{a} c_k s^{-k})^{beta_num / a}.

    Sum over partitions of m with parts in [2, a]; each partition lam
    contributes gen_multinomial(beta_num/a, lam) * prod c_k^{lam(k)}.
    Weighted homogeneous of degree m. m = 0 gives 1 and m = 1 gives 0.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    varset = model.varset
    alpha = Fraction(beta_num, model.a)
    total = MPoly.zero(varset)
    for lam in partitions(m, 2, model.a):
        coeff = gen_multinomial(alpha, lam)
        if not coeff:
            continue
        exps = tuple(lam.get(k, 0) for k in range(2, model.a + 1))
        total = total + MPoly.monomial(varset, exps, coeff)
    return total


def gamma_coeff(model: LocalModel, i: int) -> MPoly:
    """Coefficient gamma_i of s^{-i} in the unit u(s) with S = s*u(s)."""
    if i < 2:
        raise ValueError(f"gamma index starts at 2, got {i}")
    return f_coeff(model, 1, i)


def theta_series(model: LocalModel, nmax: int) -> dict[int, MPoly]:
    """Coefficients theta_2..theta_nmax of the inverse unit: s = S(1 + sum theta_m S^{-m}).

    By Lagrange inversion theta_m = -f_coeff(m-1, m) / (m-1); it is
    weighted homogeneous of degree m and equals -gamma_m plus corrections
    quadratic in the gammas.
    """
    if nmax < 2:
        raise ValueError(f"need nmax >= 2, got {nmax}")
    return {m: f_coeff(model, m - 1, m) * Fraction(-1, m - 1) for m in range(2, nmax + 1)}


@functools.lru_cache(maxsize=None)
def theta_cap(model: LocalModel, l: int, i: int) -> MPoly:
    """Coefficient Theta_i^{(l)} of S^{-i} in (s/S)^l = (1 + sum theta_m S^{-m})^l, l < 0.

    By Lagrange inversion Theta_i^{(l)} = (-l)/(i-l) * f_coeff(i-l, i).
    Theta_0 = 1, Theta_1 = 0; weighted homogeneous of degree i.
    """
    if l >= 0:
        raise ValueError(f"need l < 0, got {l}")
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    return f_coeff(model, i - l, i) * Fraction(-l, i - l)


@functools.lru_cache(maxsize=None)
def big_f(model: LocalModel, n: int) -> MPoly:
    """Obstruction polynomial F_{-n}: the S^{-n} coefficient of the singular tail.

    F_{-n} = sum_{m=1}^{n} Theta_{n-m}^{(-m)} * f_{b+m}
           = sum_{m=1}^{n} (m/n) * f_coeff(n, n-m) * f_coeff(b, b+m);
    weighted homogeneous of degree b + n. Defined for 1 <= n <= a-1.
    """
    if not 1 <= n <= model.a - 1:
        raise ValueError(f"need 1 <= n <= a-1 = {model.a - 1}, got {n}")
    total = MPoly.zero(model.varset)
    for m in range(1, n + 1):
        tail = f_coeff(model, model.b, model.b + m)
        if tail.is_zero():
            continue
        total = total + f_coeff(model, n, n - m) * Fraction(m, n) * tail
    return total


def _doubled_image(model: LocalModel, p: MPoly, tilde: bool) -> MPoly:
    """Reinterpret a polynomial in c2..ca inside the doubled ring.

    tilde = True maps it to the comparison copy ct2..cta.
    """
    varset = model.doubled_varset
    n1 = model.a - 1
    out = MPoly.zero(varset)
    for exps, coeff in p.terms.items():
        full = (0,) * n1 + exps if tilde else exps + (0,) * n1
        out = out + MPoly.monomial(varset, full, coeff)
    return out


@functools.lru_cache(maxsize=None)
def f_bar(model: LocalModel, j: int) -> MPoly:
    """Perturbed coefficient polynomial over the doubled ring (c, ct).

    fbar_{b+j}(c) = f_{b+j}(c)
        + sum_{k=2}^{j-1} ((j-k)/a) (c_k - ct_k) f_{b+j-k}(ct)
        - sum_{k=2}^{j-1} ((j-k)/a) sum_{l=2}^{k-2} ((a-l)/a)
              (c_{k-l} - ct_{k-l}) ct_l f_{b+j-k}(ct).

    Setting ct := c recovers f_{b+j}; the added terms are linear in the
    differences c_k - ct_k. For j = 1 there are no added terms.
    """
    if not 1 <= j <= model.a - 1:
        raise ValueError(f"need 1 <= j <= a-1 = {model.a - 1}, got {j}")
    a = model.a
    varset = model.doubled_varset
    total = _doubled_image(model, f_coeff(model, model.b, model.b + j), tilde=False)
    for k in range(2, j):
        weight = Fraction(j - k, a)
        f_tail = _doubled_image(model, f_coeff(model, model.b, model.b + j - k), tilde=True)
        diff_k = (MPoly.variable(varset, f"c{k}")
                  - MPoly.variable(varset, f"ct{k}"))
        total = total + weight * diff_k * f_tail
        for l in range(2, k - 1):
            diff_kl = (MPoly.variable(varset, f"c{k - l}")
                       - MPoly.variable(varset, f"ct{k - l}"))
            ct_l = MPoly.variable(varset, f"ct{l}")
            total = total - weight * Fraction(a - l, a) * diff_kl * ct_l * f_tail
    return total


def _single_image(model: LocalModel, p: MPoly) -> MPoly:
    """Identify the comparison copy with the plain variables (ct := c) in a
    polynomial over the doubled ring, by adding the two halves of each
    exponent vector."""
    n1 = model.a - 1
    acc: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms.items():
        key = tuple(map(add, exps[:n1], exps[n1:]))
        acc[key] = acc.get(key, 0) + coeff
    return MPoly(model.varset, acc)


@functools.lru_cache(maxsize=None)
def f_bar_jacobian_matrix(model: LocalModel) -> tuple[tuple[MPoly, ...], ...]:
    """Matrix d fbar_{b+j} / d c_k (j = 1..a-1 rows, k = 2..a columns).

    Derivatives are taken in the plain variables only; afterwards the
    comparison copy is identified with them (ct := c), so entries live in
    the single ring c2..ca. Cached per model, hence a tuple of tuples.
    """
    rows = (f_bar(model, j) for j in range(1, model.a))
    return tuple(tuple(_single_image(model, fb.diff(f"c{k}")) for k in range(2, model.a + 1))
                 for fb in rows)


def f_bar_jacobian_at(model: LocalModel, point: Sequence[Fraction]) -> list[dict[int, Fraction]]:
    """``f_bar_jacobian_matrix`` at a rational point c2..ca, as sparse rows:
    column k - 2 holds d/dc_k, zero entries are left out."""
    if len(point) != model.a - 1:
        raise ValueError(f"point must have {model.a - 1} coordinates")
    values = {name: Fraction(x) for name, x in zip(model.varset.names, point)}
    return [{k: v for k, v in enumerate(entry.evaluate(values) for entry in row) if v}
            for row in f_bar_jacobian_matrix(model)]


@functools.lru_cache(maxsize=None)
def jac_bar(model: LocalModel) -> MPoly:
    """Determinant of the perturbed-system Jacobian, in the single ring.

    For a = 2 this is the single derivative d f_{b+1} / d c_2.
    """
    # Looked up on the module at each call, so a wrapper installed there is used.
    from .polycore import det_bareiss

    return det_bareiss(f_bar_jacobian_matrix(model))


def sigma_coeff(sigma_model: SigmaModel, l: int, tmax: int) -> MPoly:
    """Coefficient of s^l in S^b + S^{b+1} g0(S), as a polynomial in c.

    sigma_{-l} = f_coeff(b, b-l) + sum_r g_{0,r} * f_coeff(b+r, b+r-l),
    keeping only summands of weighted degree at most tmax. Negative
    fractional-series indices contribute nothing.
    """
    model = sigma_model.model
    b = model.b
    total = MPoly.zero(model.varset)
    if 0 <= b - l <= tmax:
        total = total + f_coeff(model, b, b - l)
    for r, g in enumerate(sigma_model.g0, start=1):
        if g and 0 <= b + r - l <= tmax:
            total = total + g * f_coeff(model, b + r, b + r - l)
    return total
