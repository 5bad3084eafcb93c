"""Truncated t-adic series and the coordinate-change solver for comparing
two nearby parameterizations.

``TSeries`` is an element of Q[[t]] / t^K with exact coefficients; it is
the module's only series type. A Laurent expansion in s is handled as a
dense list of TSeries over a window of s-exponents fixed before any
arithmetic starts, so nothing outside the window is ever computed or read.

A series is stored as integer numerators over one shared positive
denominator, in lowest terms, so series arithmetic makes no ``Fraction``:
sums bring both operands to the lcm of their denominators, a scalar
multiplies the numerators and the denominator, and a product convolves
the numerators (one C-level dot product per output coefficient) after
stripping the leading zeros of both operands. ``Fraction``s are made only
where a caller reads a coefficient.

``reparam_solve`` finds the unique change of parameter
``s(next) = s - (1/a) * sum_{i=2}^{a} dprime_i s^{-(i-1)}
           + sum_{i=a+1}^{smax} eps_i s^{-(i-1)}``
matching two coefficient vectors of the defining equation, order by order;
it carries the binomial powers (W - 1)^j, 2 <= j <= a, of the unit
W = s(next)/s beside it, and reads [W^e]_m off them.
``order_bound_audit`` checks the guaranteed valuation bounds of the output.

Two checks verify a solution on their windows, modulo the declared
truncations. ``pm_identity_check`` checks the matching identity (the
regular-part difference of the twisted expansions equals the singular-part
difference): it expands the unit once into its binomial powers
V_j = (W - 1)^j, which vanish on the window after about K/3 of them, and
takes every W^l it needs as sum_j C(l, j) V_j; the sigma polynomials share
one monomial table per point. ``substitution_check`` back-substitutes the
solved parameter into the defining equation with J. C. P. Miller's power
recurrence for W^l; it shares none of the solver's recurrence and stays
the solver's independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Sequence, Union

from .expansion import LocalModel, SigmaModel, sigma_coeff
from .polycore import evaluate_many

Scalar = Union[Fraction, int]


class TriState(Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"


def _ratio(value: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator of an exact scalar, in lowest terms."""
    if type(value) is int:
        return value, 1
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator, value.denominator


class TSeries:
    """Truncated power series in t: exact coefficients, fixed modulus K.

    The t^i coefficient is ``_num[i] / _den``: ``_num`` is a tuple of ints
    with trailing zeros trimmed, never longer than K, and ``_den`` is a
    positive int. The form is canonical: ``gcd(_den, *_num) == 1`` and the
    zero series has ``_den == 1``, so equal values have equal fields and
    ``__eq__`` and ``__hash__`` compare them directly. The order of the
    zero series is K (a sentinel meaning "at least the modulus").

    The public constructor coerces every coefficient with ``Fraction`` and
    checks the modulus; ``coeffs`` and ``coeff`` hand coefficients back as
    reduced ``Fraction``s. Results of series arithmetic are built by the
    trusted ``_of``, which only trims and reduces.
    """

    __slots__ = ("modulus", "_num", "_den")

    def __init__(self, modulus: int, coeffs: Sequence[Scalar] = ()):
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        cs = [Fraction(c) for c in coeffs[:modulus]]
        den = lcm(*[c.denominator for c in cs])
        num = [c.numerator * (den // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        self.modulus = modulus
        self._num = tuple(num)
        self._den = den if num else 1

    @classmethod
    def _of(cls, modulus: int, num: list[int], den: int) -> "TSeries":
        """Trusted constructor: ``num`` holds at most ``modulus`` ints and
        ``den`` is positive; trailing zeros are trimmed (in place) and the
        fraction is put in lowest terms."""
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [a // g for a in num]
                den //= g
        out = object.__new__(cls)
        out.modulus = modulus
        out._num = tuple(num)
        out._den = den
        return out

    @staticmethod
    def zero(modulus: int) -> "TSeries":
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        return TSeries._of(modulus, [], 1)

    @staticmethod
    def constant(value: Scalar, modulus: int) -> "TSeries":
        return TSeries.t_power(0, modulus, value)

    @staticmethod
    def t_power(n: int, modulus: int, coeff: Scalar = 1) -> "TSeries":
        if n < 0:
            raise ValueError("negative t-power")
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        p, q = _ratio(coeff)
        if not p or n >= modulus:
            return TSeries._of(modulus, [], 1)
        return TSeries._of(modulus, [0] * n + [p], q)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The stored coefficients as reduced ``Fraction``s; entry i is the
        t^i coefficient."""
        d = self._den
        return tuple(Fraction(a, d) for a in self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def ord(self) -> int:
        """t-adic valuation; the modulus itself for the zero series."""
        for i, a in enumerate(self._num):
            if a:
                return i
        return self.modulus

    def coeff(self, i: int) -> Fraction:
        if not 0 <= i < self.modulus:
            raise ValueError(f"coefficient index {i} outside modulus {self.modulus}")
        return Fraction(self._num[i], self._den) if i < len(self._num) else Fraction(0)

    def _coerce(self, other: "TSeries | Scalar") -> "TSeries":
        if isinstance(other, TSeries):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        return TSeries.constant(other, self.modulus)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TSeries.constant(other, self.modulus)
        if not isinstance(other, TSeries):
            return NotImplemented
        return (self.modulus == other.modulus and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self.modulus, self._num, self._den))

    def __neg__(self) -> "TSeries":
        return TSeries._of(self.modulus, [-a for a in self._num], self._den)

    def _sum(self, other: "TSeries | Scalar", op) -> "TSeries":
        """self + other for ``op`` = ``add``, self - other for ``sub``."""
        other = self._coerce(other)
        x, y = self._num, other._num
        if not y:
            return self
        dx, dy = self._den, other._den
        d = dx
        if dx != dy:
            d = lcm(dx, dy)
            if d != dx:
                x = [a * (d // dx) for a in x]
            if d != dy:
                y = [b * (d // dy) for b in y]
        out = list(map(op, x, y))
        if len(x) > len(y):
            out.extend(x[len(y):])
        elif op is add:
            out.extend(y[len(x):])
        else:
            out.extend([-b for b in y[len(x):]])
        return TSeries._of(self.modulus, out, d)

    def __add__(self, other: "TSeries | Scalar") -> "TSeries":
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other: "TSeries | Scalar") -> "TSeries":
        return self._sum(other, sub)

    def __rsub__(self, other: Scalar) -> "TSeries":
        return (-self) + other

    def _scaled(self, p: int, q: int) -> "TSeries":
        """self * p / q for ints p and q > 0."""
        if not p:
            return TSeries._of(self.modulus, [], 1)
        num = list(self._num) if p == 1 else [a * p for a in self._num]
        return TSeries._of(self.modulus, num, self._den * q)

    def __mul__(self, other: "TSeries | Scalar") -> "TSeries":
        if not isinstance(other, TSeries):
            return self._scaled(*_ratio(other))
        other = self._coerce(other)
        K = self.modulus
        x, y = self._num, other._num
        if not x or not y:
            return TSeries._of(K, [], 1)
        # Strip the leading zeros of both operands; the product is shifted
        # back by the sum of their valuations.
        vx = vy = 0
        while not x[vx]:
            vx += 1
        while not y[vy]:
            vy += 1
        shift = vx + vy
        if shift >= K:
            return TSeries._of(K, [], 1)
        x, y = x[vx:], y[vy:]
        if len(x) < len(y):
            x, y = y, x
        n = min(K - shift, len(x) + len(y) - 1)
        if len(y) == 1:
            k = y[0]
            out = [a * k for a in x[:n]]
        else:
            # out[k] = sum of x[i] * y[k - i]; with ry = y reversed, y[k - i]
            # is ry[top - k + i], and map stops at the shorter slice.
            top = len(y) - 1
            ry = y[::-1]
            m = min(n, len(y))
            out = [sum(map(mul, x, ry[top - k:])) for k in range(m)]
            out += [sum(map(mul, x[k - top:], ry)) for k in range(m, n)]
        return TSeries._of(K, [0] * shift + out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "TSeries":
        p, q = _ratio(other)
        if not p:
            raise ZeroDivisionError("division of a series by zero")
        return self._scaled(-q, -p) if p < 0 else self._scaled(q, p)

    def __pow__(self, n: int) -> "TSeries":
        if n < 0:
            raise ValueError("negative power of a truncated series")
        if not n:
            return TSeries.constant(1, self.modulus)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def shift(self, n: int) -> "TSeries":
        """Multiply by t^n (n >= 0); overflow past the modulus is dropped."""
        if n < 0:
            raise ValueError("negative shift")
        K = self.modulus
        if n >= K:
            return TSeries._of(K, [], 1)
        return TSeries._of(K, [0] * n + list(self._num[:K - n]), self._den)

    def __repr__(self) -> str:
        if not self._num:
            return f"O(t^{self.modulus})"
        parts = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) + f" + O(t^{self.modulus})"


@dataclass
class ReparamResult:
    """Solution of the parameter-matching problem.

    delta_prime[i] (2 <= i <= a) and epsilon[i] (a+1 <= i <= smax) are the
    coefficients of the corrected parameter; unit[i] = the s^{-i}
    coefficient of s(next)/s, kept for downstream expansion reuse.
    """

    model: LocalModel
    smax: int
    modulus: int
    delta_prime: dict[int, TSeries]
    epsilon: dict[int, TSeries]
    unit: dict[int, TSeries]


def _validate_coeff_vectors(model: LocalModel, c_now: Sequence[TSeries],
                            c_next: Sequence[TSeries], modulus: int) -> None:
    a = model.a
    if len(c_now) != a - 1 or len(c_next) != a - 1:
        raise ValueError(f"coefficient vectors must have {a - 1} entries")
    for vec in (c_now, c_next):
        for x in vec:
            if not isinstance(x, TSeries) or x.modulus != modulus:
                raise ValueError("coefficients must be TSeries with the shared modulus")
    for idx, (x, y) in enumerate(zip(c_now, c_next), start=2):
        if x.ord() < idx:
            raise ValueError(f"ord(c{idx}(now)) = {x.ord()} < {idx}")
        need = min(x.ord() + 1, modulus)
        if (y - x).ord() < need:
            raise ValueError(f"ord(c{idx}(next) - c{idx}(now)) < {need}")


def reparam_solve(model: LocalModel, c_now: Sequence[TSeries], c_next: Sequence[TSeries],
                  smax: int, modulus: int) -> ReparamResult:
    """Match s^a + sum c_k(next) s(next)^{a-k} to the same expression at the
    current coefficients by a tail correction of the parameter.

    Solving order by order in the s-exponent: matching s^{a-i} for
    2 <= i <= a fixes delta_prime_i; the vanishing of s^{a-i} for i > a
    fixes epsilon_i. Always delta_prime_2 = delta_2 and
    delta_prime_3 = delta_3.
    """
    a = model.a
    if smax < a:
        raise ValueError(f"smax must be at least a = {a}")
    _validate_coeff_vectors(model, c_now, c_next, modulus)
    zero = TSeries.zero(modulus)
    one = TSeries.constant(1, modulus)
    cnow = {k: c_now[k - 2] for k in range(2, a + 1)}
    cnext = {k: c_next[k - 2] for k in range(2, a + 1)}
    binom = [_binomials(e, a) for e in range(a + 1)]

    # With W = s(next)/s: v[j][m] is the s^{-m} coefficient of (W - 1)^j, so
    # v[1][m] = u_m, and w[e][m] that of W^e = sum_j C(e, j) (W - 1)^j, for
    # e <= a - 2 (the exponents the c_k(next) terms read). Both fill in m order.
    u: dict[int, TSeries] = {}
    v: list[list[TSeries]] = [[zero] * (smax + 1) for _ in range(a + 1)]
    w: list[list[TSeries]] = [[one] + [zero] * smax for _ in range(a - 1)]
    for m in range(2, smax + 1):
        # W - 1 starts at s^-2, so v[j][m] for j >= 2 reads only u_k with
        # k <= m - 2, and [W^e]_m = e * u_m + sum_{j >= 2} C(e, j) v[j][m].
        for j in range(2, min(a, m // 2) + 1):
            prev = v[j - 1]
            acc = zero
            for k in range(2, m - 2 * j + 3):
                if u[k] and prev[m - k]:
                    acc = acc + u[k] * prev[m - k]
            v[j][m] = acc
        known = [zero] * (a + 1)
        for e in range(2, a + 1):
            acc = zero
            for j in range(2, e + 1):
                if v[j][m]:
                    acc = acc + v[j][m] * binom[e][j]
            known[e] = acc
        lhs_known = known[a]
        for k in range(2, a + 1):
            if m - k >= 0:
                lhs_known = lhs_known + cnext[k] * w[a - k][m - k]
        rhs = cnow[m] if 2 <= m <= a else zero
        um = (rhs - lhs_known) / a
        u[m] = um
        v[1][m] = um
        for e in range(1, a - 1):
            w[e][m] = known[e] + um * e

    delta_prime = {i: u[i] * (-a) for i in range(2, a + 1)}
    epsilon = {i: u[i] for i in range(a + 1, smax + 1)}
    return ReparamResult(model, smax, modulus, delta_prime, epsilon, u)


@dataclass
class AuditEntry:
    kind: str
    index: int
    required: int
    actual: int
    margin: int

    @property
    def ok(self) -> bool:
        return self.margin >= 0


@dataclass
class AuditReport:
    entries: list[AuditEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def order_bound_audit(result: ReparamResult, c_now: Sequence[TSeries],
                      c_next: Sequence[TSeries]) -> AuditReport:
    """Check the guaranteed t-adic valuations of the solved coefficients.

    ord(delta_prime_i) >= i + min over j in {2..i-2, i} of (ord(delta_j) - j);
    ord(epsilon_i)     >= i + min over j in {2..a}      of (ord(delta_j) - j).
    Requirements are capped at the modulus (nothing is observable past it).
    """
    a = result.model.a
    K = result.modulus
    deltas = {k: c_next[k - 2] - c_now[k - 2] for k in range(2, a + 1)}
    entries = []
    all_js = range(2, a + 1)
    for i, dp in sorted(result.delta_prime.items()):
        js = [j for j in all_js if j <= i - 2 or j == i]
        required = min(i + min(deltas[j].ord() - j for j in js), K)
        entries.append(AuditEntry("delta_prime", i, required, dp.ord(), dp.ord() - required))
    eps_floor = min(deltas[j].ord() - j for j in all_js)
    for i, ep in sorted(result.epsilon.items()):
        required = min(i + eps_floor, K)
        entries.append(AuditEntry("epsilon", i, required, ep.ord(), ep.ord() - required))
    return AuditReport(entries)


def _unit_coeffs(result: ReparamResult) -> list[TSeries]:
    """The unit W = s(next)/s densely: entry m is its s^{-m} coefficient,
    for 0 <= m <= result.smax (W has no s^{-1} term)."""
    K = result.modulus
    return [TSeries.constant(1, K), TSeries.zero(K)] + [result.unit[m]
                                                       for m in range(2, result.smax + 1)]


def _unit_powers(unit: Sequence[TSeries], l: int, depth: int) -> list[TSeries]:
    """[W^l]_0 .. [W^l]_depth, the s^{-m} coefficients of W^l for any integer l.

    ``unit`` holds W = 1 + sum_{k >= 1} u_k s^{-k} densely (unit[0] == 1) as
    far as it is known. J. C. P. Miller's power recurrence (Knuth, TAOCP
    vol. 2, 4.7) gives p_0 = 1 and
      p_m = (1/m) * sum_{k=1..m} ((l+1)k - m) u_k p_{m-k},
    exact over Q[[t]]/t^K since it divides only by the integer m. A depth
    past the known terms raises: an unknown u_m is never read as zero.
    """
    if depth >= len(unit):
        raise ValueError(f"unit known to s^-{len(unit) - 1}, power asked to s^-{depth}")
    p = [unit[0]]
    for m in range(1, depth + 1):
        acc = TSeries.zero(unit[0].modulus)
        for k in range(1, m + 1):
            weight = (l + 1) * k - m
            if weight and unit[k] and p[m - k]:
                acc = acc + unit[k] * p[m - k] * weight
        p.append(acc / m)
    return p


def _binomials(l: int, n: int) -> list[int]:
    """C(l, 0) .. C(l, n) for any integer l, by C(l, j) = C(l, j-1) (l-j+1) / j
    (exact integer division, also for negative l)."""
    out = [1]
    for j in range(1, n + 1):
        out.append(out[-1] * (l - j + 1) // j)
    return out


class _BinomialPowers:
    """The binomial powers V_j = (W - 1)^j, j = 0, 1, ..., of the unit W,
    and every integer power of W from them.

    ``unit`` is as for ``_unit_powers``. ``powers[j]`` holds the s^{-m}
    coefficients of V_j for 0 <= m <= depth; the list stops before the
    first V_j that vanishes on that window. W - 1 has s-valuation at least
    1, so V_j has at least j and the list holds at most depth + 1 entries.
    ``power(l, depth)`` is then [W^l]_m = sum_j C(l, j) [V_j]_m.
    """

    __slots__ = ("depth", "powers", "_rows")

    def __init__(self, unit: Sequence[TSeries], depth: int):
        if depth >= len(unit):
            raise ValueError(f"unit known to s^-{len(unit) - 1}, power asked to s^-{depth}")
        zero = TSeries.zero(unit[0].modulus)
        step = [zero] + list(unit[1:depth + 1])
        powers = [[unit[0]] + [zero] * depth]
        current = step
        while any(current):
            powers.append(current)
            low = next(m for m, c in enumerate(current) if c)
            product = [zero] * (depth + 1)
            for m in range(low + 1, depth + 1):
                acc = zero
                for k in range(1, m - low + 1):
                    if step[k] and current[m - k]:
                        acc = acc + step[k] * current[m - k]
                product[m] = acc
            current = product
        self.depth = depth
        self.powers = powers
        # _rows[m] = (den, rows): [V_0]_m, [V_1]_m, ... (j <= m) over one
        # denominator, transposed so rows[i] holds their t^i numerators and
        # each t^i coefficient of a power is one dot product with binomials.
        self._rows = []
        for m in range(depth + 1):
            column = [powers[j][m] for j in range(min(m, len(powers) - 1) + 1)]
            den = lcm(*[c._den for c in column])
            width = max(len(c._num) for c in column)
            nums = [[a * (den // c._den) for a in c._num] + [0] * (width - len(c._num))
                    for c in column]
            self._rows.append((den, list(zip(*nums))))

    def power(self, l: int, depth: int) -> list[TSeries]:
        """[W^l]_0 .. [W^l]_depth for any integer l."""
        if depth > self.depth:
            raise ValueError(f"powers known to s^-{self.depth}, asked to s^-{depth}")
        binom = _binomials(l, len(self.powers) - 1)
        K = self.powers[0][0].modulus
        return [TSeries._of(K, [sum(map(mul, binom, row)) for row in rows], den)
                for den, rows in self._rows[:depth + 1]]


def substitution_check(result: ReparamResult, c_now: Sequence[TSeries],
                       c_next: Sequence[TSeries]) -> bool:
    """Back-substitute the solved parameter into the defining expression and
    compare both sides over the exponents a - smax .. a; exactness oracle
    for the solver (it shares none of the solver's recurrence)."""
    a, smax = result.model.a, result.smax
    unit = _unit_coeffs(result)
    # diff[n]: the s^{a-n} coefficient of
    # s(next)^a + sum c_k(next) s(next)^{a-k} - s^a - sum c_k(now) s^{a-k}.
    diff = _unit_powers(unit, a, smax)
    diff[0] = diff[0] - 1
    for k in range(2, a + 1):
        diff[k] = diff[k] - c_now[k - 2]
        for m, p in enumerate(_unit_powers(unit, a - k, smax - k)):
            diff[k + m] = diff[k + m] + c_next[k - 2] * p
    return not any(diff)


def pm_window_bound(model: LocalModel, modulus: int) -> int:
    """The least smax at which the matching identity is decided mod
    t^modulus: modulus - b (see ``pm_identity_check``)."""
    return modulus - model.b


def _pm_difference(sigma_model: SigmaModel, c_now: Sequence[TSeries],
                   c_next: Sequence[TSeries], smax: int, modulus: int) -> list[TSeries]:
    """The regrouped difference of ``pm_identity_check``: entry i is its
    s^{l_max - i} coefficient, for s-exponents l_max down to -smax.

    The unit is solved to depth smax + l_max and expanded once into the
    binomial powers V_j = (W - 1)^j; each s(next)^l = s^l W^l then needs
    only [W^l]_m = sum_j C(l, j) [V_j]_m.
    """
    model = sigma_model.model
    K = modulus
    l_max = model.b + len(sigma_model.g0)
    l_sing = max(K - model.b - 1, 0)
    depth = smax + l_max
    # s(next)^l for l <= l_max needs W^l only to depth l + smax <= depth, and
    # every s^l has l >= -l_sing > -smax.
    result = reparam_solve(model, c_now, c_next, max(depth, model.a), K)
    powers = _BinomialPowers(_unit_coeffs(result), depth)

    ls = range(-l_sing, l_max + 1)
    polys = [sigma_coeff(sigma_model, l, tmax=K) for l in ls]
    sig_now = evaluate_many(polys, c_now)
    sig_next = evaluate_many(polys, c_next)

    diff = [TSeries.zero(K)] * (depth + 1)
    for l, s_now, s_nxt in zip(ls, sig_now, sig_next):
        diff[l_max - l] = diff[l_max - l] - s_now
        if s_nxt:
            for m, p in enumerate(powers.power(l, l + smax)):
                if p:
                    diff[l_max - l + m] = diff[l_max - l + m] + p * s_nxt
    return diff


def pm_identity_check(sigma_model: SigmaModel, c_now: Sequence[TSeries],
                      c_next: Sequence[TSeries], smax: int, modulus: int) -> TriState:
    """Matching identity between two nearby twisted expansions.

    Checks, on the s-exponents -smax .. l_max mod t^modulus:
      sum_{l >= 0} sigma_{-l}(next) s(next)^l - sum_{l >= 0} sigma_{-l}(now) s^l
        == sum_{l <= -1} sigma_{-l}(now) s^l - sum_{l <= -1} sigma_{-l}(next) s(next)^l,
    regrouped as sum_l sigma_{-l}(next) s(next)^l - sigma_{-l}(now) s^l == 0.

    Coefficients at s-exponent e carry t-order at least b - e, so exponents
    below -(modulus - b) vanish mod t^modulus and the window decides the
    identity iff smax >= ``pm_window_bound`` = modulus - b. Below that
    threshold the verdict is INCONCLUSIVE, never a silent pass; malformed
    coefficient vectors raise ``ValueError`` whatever the window.
    """
    _validate_coeff_vectors(sigma_model.model, c_now, c_next, modulus)
    if smax < pm_window_bound(sigma_model.model, modulus):
        return TriState.INCONCLUSIVE
    diff = _pm_difference(sigma_model, c_now, c_next, smax, modulus)
    return TriState.FALSE if any(diff) else TriState.TRUE
