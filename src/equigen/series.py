"""Truncated t-adic series and the coordinate-change solver for comparing
two nearby parameterizations.

``TSeries`` is an element of Q[[t]] / t^K with exact coefficients; it is
the module's only series type. A Laurent expansion in s is handled as a
dense list of TSeries over a window of s-exponents fixed before any
arithmetic starts, so nothing outside the window is ever computed or read.

A series is stored as its t-adic valuation and the integer numerators
from there to its last nonzero coefficient, over one shared positive
denominator, in lowest terms, so series arithmetic makes no ``Fraction``
and never builds, scans or copies the zeros below a valuation: a scalar
multiplies the numerators and the denominator, and a product adds the
valuations and convolves the numerators (one C-level dot product per
output coefficient).
``Fraction``s are made only where a caller reads a coefficient.

Sums of products go through one accumulator, ``TSeries._dot``: the sum
of k * x * y over its terms (y may be absent) is added into one list of
ints over the lcm of the terms' denominators, as long as the terms reach,
and made canonical once, so no series is built per term. Every sum of
products below uses it, and so does ``polycore.evaluate_many`` at series
points, for each polynomial's terms; the binary ``+`` and ``-`` of two
series remain for single sums.

``reparam_solve`` finds the unique change of parameter
``s(next) = s - (1/a) * sum_{i=2}^{a} dprime_i s^{-(i-1)}
           + sum_{i=a+1}^{smax} eps_i s^{-(i-1)}``
matching two coefficient vectors of the defining equation, order by order,
and returns the unit W = s(next)/s as the dense list of its s^{-m}
coefficients. It builds the module's one table of the binomial powers
V_j = (W - 1)^j column by column (``_binomial_column``), adding a row only
once the row above has a nonzero entry, so the table stops growing where
the powers vanish on the window (after about K/3 of them), and returns the
table with the unit. The solver's own left side and the matching
identity read [W^l]_m = sum_j C(l, j) [V_j]_m off it, each folding those
terms into the accumulator of the sum they belong to.
``order_bound_audit`` checks the guaranteed valuation bounds of the output.

Two checks verify a solution on their windows, modulo the declared
truncations. ``pm_identity_check`` checks the matching identity (the
regular-part difference of the twisted expansions equals the singular-part
difference): it evaluates the sigma polynomials first, sharing one
monomial table per point, and takes every W^l it needs from the table of
a solve that stops at the deepest column the identity reads. Columns
m >= 1 of the table have t-order at least m + 1 (the valuation bound that
``order_bound_audit`` checks), so [W^l]_m sigma_l(next) vanishes mod t^K
from m = K - 1 - ord sigma_l(next) on, and no such column is built; a
built column below the bound raises ``AssertionError``.
``substitution_check`` back-substitutes the solved parameter into the
defining equation with J. C. P. Miller's power recurrence for W^l; it
shares none of the binomial-power code and stays the solver's independent
oracle (both sum through the one accumulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import takewhile
from math import gcd, lcm
from operator import add, mul, not_, sub
from typing import Iterable, Sequence, Union

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


def _convolve(x: Sequence[int], y: Sequence[int], n: int) -> list[int]:
    """The first min(n, len(x) + len(y) - 1) coefficients of the product of
    the nonempty numerator lists x and y, one C-level dot product each."""
    if len(x) < len(y):
        x, y = y, x
    n = min(n, len(x) + len(y) - 1)
    if len(y) == 1:
        k = y[0]
        return [a * k for a in x[:n]]
    # out[k] = sum of x[i] * y[k - i]; with ry = y reversed, y[k - i]
    # is ry[top - k + i], and map stops at the shorter slice.
    top = len(y) - 1
    ry = y[::-1]
    m = min(n, len(y))
    out = [sum(map(mul, x, ry[top - k:])) for k in range(m)]
    out += [sum(map(mul, x[k - top:], ry)) for k in range(m, n)]
    return out


class TSeries:
    """Truncated power series in t: exact coefficients, fixed modulus K.

    The t^i coefficient is ``_num[i - _val] / _den`` for
    ``_val <= i < _val + len(_num)`` and zero elsewhere: ``_val`` is the
    valuation, ``_num`` is a tuple of ints from the first nonzero
    coefficient to the last one, with ``_val + len(_num) <= K``, and
    ``_den`` is a positive int. The form is canonical:
    ``gcd(_den, *_num) == 1`` and the zero series is
    ``(_val, _num, _den) == (0, (), 1)``, so equal values have equal fields
    and ``__eq__`` compares them directly; a constant series also equals
    its scalar. Series are not hashable. The order of the zero series is K
    (a sentinel meaning "at least the modulus").

    The public constructor coerces every coefficient with ``Fraction`` and
    checks the modulus; ``coeffs`` and ``coeff`` hand coefficients back as
    reduced ``Fraction``s, read from t^0. Results of series arithmetic are
    built by the trusted ``_of``, which only strips zeros and reduces.
    """

    __slots__ = ("modulus", "_val", "_num", "_den")

    def __init__(self, modulus: int, coeffs: Sequence[Scalar] = ()):
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        cs = [Fraction(c) for c in coeffs[:modulus]]
        den = lcm(*[c.denominator for c in cs])
        canon = TSeries._of(modulus, 0, [c.numerator * (den // c.denominator) for c in cs], den)
        self.modulus = modulus
        self._val, self._num, self._den = canon._val, canon._num, canon._den

    @classmethod
    def _of(cls, modulus: int, val: int, num: list[int], den: int) -> "TSeries":
        """Trusted constructor: ``num`` holds the coefficients of t^val,
        t^(val + 1), ... over ``den`` > 0, with ``val + len(num) <= modulus``;
        its trailing zeros are trimmed (in place) and its leading ones
        stripped, and the fraction is put in lowest terms."""
        while num and not num[-1]:
            num.pop()
        if not num:
            val = 0
            den = 1
        else:
            if not num[0]:
                # Cancellation left leading zeros; count them at C speed.
                k = len(list(takewhile(not_, num)))
                num = num[k:]
                val += k
            if den != 1:
                g = gcd(den, *num)
                if g != 1:
                    num = [a // g for a in num]
                    den //= g
        out = object.__new__(cls)
        out.modulus = modulus
        out._val = val
        out._num = tuple(num)
        out._den = den
        return out

    @staticmethod
    def _dot(modulus: int, terms: Iterable[tuple[Scalar, "TSeries", "TSeries | None"]]
             ) -> "TSeries":
        """The sum of k * x * y mod t^modulus over ``terms`` (k, x, y): k a
        nonzero int or ``Fraction``, x a series and y a series or None, read
        as 1, all of this modulus.

        Every product is added into one list of ints over the lcm of the
        terms' denominators, running from the least valuation among the
        terms to the furthest coefficient one of them reaches (never past
        the modulus), and the sum is made canonical once by ``_of``: no
        series is built per term. A single term is the plain scaled product.
        """
        rows = []
        for k, x, y in terms:
            xn = x._num
            if y is None:
                if not xn:
                    continue
                yn, v, s = None, x._val, x._den
                end = v + len(xn)
            else:
                yn = y._num
                v = x._val + y._val
                if not xn or not yn or v >= modulus:
                    continue
                s = x._den * y._den
                end = min(v + len(xn) + len(yn) - 1, modulus)
            if type(k) is int:
                p = k
            else:
                p = k.numerator
                s *= k.denominator
            rows.append((p, s, v, end, xn, yn))
        if len(rows) < 2:
            if not rows:
                return TSeries._of(modulus, 0, [], 1)
            p, s, v, end, xn, yn = rows[0]
            out = list(xn) if yn is None else _convolve(xn, yn, end - v)
            if p != 1:
                out = [a * p for a in out]
            return TSeries._of(modulus, v, out, s)
        lo = min([row[2] for row in rows])
        den = lcm(*[row[1] for row in rows])
        acc = [0] * (max([row[3] for row in rows]) - lo)
        # Plain loops: the lists are short, and map or slice assignment into
        # the accumulator costs more than it saves.
        for p, s, v, end, xn, yn in rows:
            if s != den:
                p *= den // s
            o = v - lo
            if yn is None:
                for c in xn:
                    acc[o] += p * c
                    o += 1
                continue
            # Coefficient i of x meets the first n = end - v - i of y.
            n = end - v
            for c in xn[:n]:
                if c:
                    c *= p
                    i = o
                    for b in yn[:n]:
                        acc[i] += c * b
                        i += 1
                o += 1
                n -= 1
        return TSeries._of(modulus, lo, acc, den)

    @staticmethod
    def zero(modulus: int) -> "TSeries":
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        return TSeries._of(modulus, 0, [], 1)

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
            return TSeries._of(modulus, 0, [], 1)
        return TSeries._of(modulus, n, [p], q)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients up to the last nonzero one as reduced
        ``Fraction``s; entry i is the t^i coefficient."""
        d = self._den
        return (Fraction(0),) * self._val + tuple(Fraction(a, d) for a in self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    def ord(self) -> int:
        """t-adic valuation; the modulus itself for the zero series."""
        return self._val if self._num else self.modulus

    def coeff(self, i: int) -> Fraction:
        if not 0 <= i < self.modulus:
            raise ValueError(f"coefficient index {i} outside modulus {self.modulus}")
        i -= self._val
        return Fraction(self._num[i], self._den) if 0 <= i < len(self._num) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TSeries.constant(other, self.modulus)
        if not isinstance(other, TSeries):
            return NotImplemented
        return (self.modulus == other.modulus and self._val == other._val
                and self._den == other._den and self._num == other._num)

    def _like(self, other: "TSeries | Scalar") -> "TSeries":
        """``other`` as a series of this modulus: a scalar becomes its
        constant series, and a series of another modulus raises."""
        if not isinstance(other, TSeries):
            return TSeries.constant(other, self.modulus)
        if other.modulus != self.modulus:
            raise ValueError("mixed moduli")
        return other

    def __neg__(self) -> "TSeries":
        return TSeries._of(self.modulus, self._val, [-a for a in self._num], self._den)

    def _sum(self, other: "TSeries | Scalar", op) -> "TSeries":
        """self + other for ``op`` = ``add``, self - other for ``sub``."""
        other = self._like(other)
        x, y = self._num, other._num
        if not y:
            return self
        if not x:
            return other if op is add else -other
        dx, dy = self._den, other._den
        d = dx
        if dx != dy:
            d = lcm(dx, dy)
            if d != dx:
                x = [a * (d // dx) for a in x]
            if d != dy:
                y = [b * (d // dy) for b in y]
        # Pad the later-starting operand by the gap between the valuations.
        vx, vy = self._val, other._val
        if vx < vy:
            pad = [0] * (vy - vx)
            pad += y
            y = pad
        elif vy < vx:
            pad = [0] * (vx - vy)
            pad += x
            x = pad
            vx = vy
        out = list(map(op, x, y))
        if len(x) > len(y):
            out += x[len(y):]
        elif op is add:
            out += y[len(x):]
        else:
            out += [-b for b in y[len(x):]]
        return TSeries._of(self.modulus, vx, out, d)

    def __add__(self, other: "TSeries | Scalar") -> "TSeries":
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other: "TSeries | Scalar") -> "TSeries":
        return self._sum(other, sub)

    def __mul__(self, other: "TSeries | Scalar") -> "TSeries":
        if not isinstance(other, TSeries):
            p, q = _ratio(other)
            return TSeries._of(self.modulus, self._val, [a * p for a in self._num],
                               self._den * q)
        K = self.modulus
        if other.modulus != K:
            raise ValueError("mixed moduli")
        x, y = self._num, other._num
        val = self._val + other._val
        if not x or not y or val >= K:
            return TSeries._of(K, 0, [], 1)
        return TSeries._of(K, val, _convolve(x, y, K - val), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "TSeries":
        p, q = _ratio(other)
        if not p:
            raise ZeroDivisionError("division of a series by zero")
        if p < 0:
            p, q = -p, -q
        return TSeries._of(self.modulus, self._val, [a * q for a in self._num], self._den * p)

    def __repr__(self) -> str:
        if not self._num:
            return f"O(t^{self.modulus})"
        parts = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) + f" + O(t^{self.modulus})"


@dataclass
class ReparamResult:
    """Solution of the parameter-matching problem.

    delta_prime[i] (2 <= i <= a) and epsilon[i] (a+1 <= i <= smax) are the
    coefficients of the corrected parameter; unit[m] (0 <= m <= smax) is
    the s^{-m} coefficient of the unit W = s(next)/s, so unit[0] == 1 and
    unit[1] == 0. powers[j][m] is the s^{-m} coefficient of
    V_j = (W - 1)^j, over the columns of the solve that built it; a row is
    there only once the row above has a nonzero entry, so only the last row
    may be zero.
    """

    model: LocalModel
    smax: int
    modulus: int
    delta_prime: dict[int, TSeries]
    epsilon: dict[int, TSeries]
    unit: list[TSeries]
    powers: list[list[TSeries]] = field(compare=False, repr=False)

    def cut(self, smax: int) -> "ReparamResult":
        """This solution to depth smax (a <= smax <= self.smax): equal to
        solving at smax, since order m of the solve reads only lower orders.
        It keeps the deeper table of ``powers``."""
        return ReparamResult(self.model, smax, self.modulus, dict(self.delta_prime),
                             {i: e for i, e in self.epsilon.items() if i <= smax},
                             self.unit[:smax + 1], self.powers)


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


def _check_solve_args(model: LocalModel, c_now: Sequence[TSeries],
                      c_next: Sequence[TSeries], smax: int, modulus: int) -> None:
    """Raise the ``ValueError`` that ``reparam_solve`` raises on these arguments."""
    if smax < model.a:
        raise ValueError(f"smax must be at least a = {model.a}")
    _validate_coeff_vectors(model, c_now, c_next, modulus)


def reparam_solve(model: LocalModel, c_now: Sequence[TSeries], c_next: Sequence[TSeries],
                  smax: int, modulus: int) -> ReparamResult:
    """Match s^a + sum c_k(next) s(next)^{a-k} to the same expression at the
    current coefficients by a tail correction of the parameter.

    Solving order by order in the s-exponent: matching s^{a-i} for
    2 <= i <= a fixes delta_prime_i; the vanishing of s^{a-i} for i > a
    fixes epsilon_i. Always delta_prime_2 = delta_2 and
    delta_prime_3 = delta_3.

    Each order reads [W^e]_m for e <= a off the table of V_j = (W - 1)^j,
    which grows by one column per order, and by a row V_{j+1} at column m
    iff [V_j]_{m-1} != 0; the result carries the table as ``powers``.
    """
    a = model.a
    _check_solve_args(model, c_now, c_next, smax, modulus)
    zero = TSeries.zero(modulus)
    one = TSeries.constant(1, modulus)
    # coeff[k] multiplies s(next)^{a-k}: s^a itself for k = 0, c_k(next) for k >= 2.
    coeff = [one, zero, *c_next]
    binom = [_binomials(e, e) for e in range(a + 1)]

    # powers[j][m] = [V_j]_m for V_j = (W - 1)^j; [V_1]_m = u_m.
    powers = [[one] + [zero] * smax, [zero] * (smax + 1)]
    for m in range(2, smax + 1):
        # The top row V_j is zero below column m - 1, so V_{j+1} = V_1 V_j
        # can be nonzero from column m on only if [V_j]_{m-1} is.
        if powers[-1][m - 1]:
            powers.append([zero] * (smax + 1))
        _binomial_column(powers, m)
        # [V_1]_m is still zero, so these terms sum to the s^{a-m}
        # coefficient of the left side without its a * u_m term, minus the
        # right side: coeff[k] [W^(a-k)]_(m-k) over k, with
        # [W^e]_n = sum_j C(e, j) [V_j]_n, and -c_m(now).
        terms = [(-1, c_now[m - 2], None)] if m <= a else []
        for k in range(min(a, m) + 1):
            if coeff[k]:
                # coeff[0] = 1 needs no product.
                y = coeff[k] if k else None
                b = binom[a - k]
                for j in range(min(len(b), len(powers))):
                    terms.append((b[j], powers[j][m - k], y))
        powers[1][m] = TSeries._dot(modulus, terms) / -a

    unit = [one] + powers[1][1:]
    delta_prime = {i: unit[i] * (-a) for i in range(2, a + 1)}
    epsilon = {i: unit[i] for i in range(a + 1, smax + 1)}
    return ReparamResult(model, smax, modulus, delta_prime, epsilon, unit, powers)


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
    K = unit[0].modulus
    p = [unit[0]]
    for m in range(1, depth + 1):
        terms = []
        for k in range(1, m + 1):
            weight = (l + 1) * k - m
            if weight:
                terms.append((weight, unit[k], p[m - k]))
        p.append(TSeries._dot(K, terms) / m)
    return p


def _binomials(l: int, n: int) -> list[int]:
    """C(l, 0) .. C(l, n) for any integer l, by C(l, j) = C(l, j-1) (l-j+1) / j
    (exact integer division, also for negative l)."""
    out = [1]
    for j in range(1, n + 1):
        out.append(out[-1] * (l - j + 1) // j)
    return out


def _binomial_column(powers: list[list[TSeries]], m: int) -> None:
    """Fill column m of a table of binomial powers of the unit W.

    ``powers[j][m]`` is the s^{-m} coefficient of V_j = (W - 1)^j. For every
    row j >= 2 this sets [V_j]_m = sum_k [V_1]_k [V_{j-1}]_{m-k}. W - 1 has
    no s^0 term, so V_{j-1} none below s^{-(j-1)}, and the sum runs over
    1 <= k <= m - j + 1: it reads only V_1 and the columns below m, which
    must be filled, and never [V_1]_m.
    """
    step = powers[1]
    K = step[0].modulus
    for j in range(2, len(powers)):
        prev = powers[j - 1]
        powers[j][m] = TSeries._dot(K, [(1, step[k], prev[m - k]) for k in range(1, m - j + 2)])


def substitution_check(result: ReparamResult, c_now: Sequence[TSeries],
                       c_next: Sequence[TSeries]) -> bool:
    """Back-substitute the solved parameter into the defining expression and
    compare both sides over the exponents a - smax .. a; exactness oracle
    for the solver (it shares none of the solver's recurrence)."""
    a, smax, K = result.model.a, result.smax, result.modulus
    # cols[n]: the terms of the s^{a-n} coefficient of
    # s(next)^a + sum c_k(next) s(next)^{a-k} - s^a - sum c_k(now) s^{a-k}.
    cols = [[(1, p, None)] for p in _unit_powers(result.unit, a, smax)]
    cols[0].append((-1, TSeries.constant(1, K), None))
    for k in range(2, a + 1):
        cols[k].append((-1, c_now[k - 2], None))
        for m, p in enumerate(_unit_powers(result.unit, a - k, smax - k)):
            cols[k + m].append((1, p, c_next[k - 2]))
    return not any(TSeries._dot(K, terms) for terms in cols)


def pm_window_bound(model: LocalModel, modulus: int) -> int:
    """The least smax at which the matching identity is decided mod
    t^modulus: modulus - b (see ``pm_identity_check``)."""
    return modulus - model.b


def _pm_difference(sigma_model: SigmaModel, c_now: Sequence[TSeries],
                   c_next: Sequence[TSeries], smax: int,
                   modulus: int) -> tuple[ReparamResult, list[TSeries]]:
    """The unit solved to the depth D the matching identity on the window
    -smax .. l_max reads, and the regrouped difference of
    ``pm_identity_check``: entry i is its s^{l_max - i} coefficient, for
    s-exponents l_max down to -smax.

    Each s(next)^l = s^l W^l needs only [W^l]_m = sum_j C(l, j) [V_j]_m,
    read off the table of V_j = (W - 1)^j that the solve returns. Over Q
    the t-order of a product is the sum of the orders, and that of a sum at
    least their least. For m >= 1, ord [V_j]_m >= m + 1 (capped at the
    modulus), the valuation bound ``order_bound_audit`` checks: so
    [W^l]_m * sigma_l(next) vanishes mod t^K once m >= K - 1 - ord
    sigma_l(next), and the identity reads W^l only to
    min(l + smax, K - 2 - ord sigma_l(next)). The sigma_l are evaluated
    first and the solve stops at D, the deepest such column (at least a
    and smax, so the result can be cut at smax): no column past D is
    built. A built column that breaks the bound would make that cut
    unsound, so it raises ``AssertionError``, never a verdict. Inside D,
    a [W^l]_m is not built where the least order in column m of the table
    and ord sigma_l(next) already reach the modulus.
    """
    model = sigma_model.model
    l_max = model.b + len(sigma_model.g0)
    l_sing = max(modulus - model.b - 1, 0)
    ls = range(-l_sing, l_max + 1)
    # Inputs are validated (ord c_k >= k), so a summand of weighted degree
    # K or more vanishes mod t^K.
    polys = [sigma_coeff(sigma_model, l, tmax=modulus - 1) for l in ls]
    sig_now = evaluate_many(polys, c_now)
    sig_next = evaluate_many(polys, c_next)

    orders = [s.ord() for s in sig_next]
    # The deepest column of W^l read for each l, -1 where sigma_l(next) is
    # zero: column 0 ([W^l]_0 = 1) always, none past K - 2 - ord, and none
    # past l + smax; every s^l has l >= -l_sing > -smax.
    tops = [min(l + smax, max(modulus - 2 - o, 0)) if o < modulus else -1
            for l, o in zip(ls, orders)]
    depth = max(model.a, smax, *tops)
    result = reparam_solve(model, c_now, c_next, depth, modulus)
    powers = result.powers
    column_ord = [min(row[m].ord() for row in powers) for m in range(depth + 1)]
    for m in range(1, depth + 1):
        if column_ord[m] < min(m + 1, modulus):
            raise AssertionError(f"column s^-{m} of the solve has t-order {column_ord[m]}, "
                                 f"below the valuation bound {m + 1}")

    # cols[i] holds the terms of the s^{l_max - i} coefficient. Column 0
    # of W^l is [W^l]_0 = 1, so sigma_l(next) - sigma_l(now) goes to s^l
    # as it is; for m >= 1, [W^l]_m = sum_{j >= 1} C(l, j) [V_j]_m.
    cols: list[list] = [[] for _ in range(smax + l_max + 1)]
    for l, s_now, s_nxt, order, top in zip(ls, sig_now, sig_next, orders, tops):
        cols[l_max - l].append((-1, s_now, None))
        if top < 0:
            continue
        cols[l_max - l].append((1, s_nxt, None))
        room = modulus - order
        binom = _binomials(l, len(powers) - 1)
        for m in range(1, top + 1):
            if column_ord[m] >= room:
                continue
            terms = cols[l_max - l + m]
            for j in range(1, len(powers)):
                if binom[j]:
                    terms.append((binom[j], powers[j][m], s_nxt))
    return result, [TSeries._dot(modulus, terms) for terms in cols]


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
    diff = _pm_difference(sigma_model, c_now, c_next, smax, modulus)[1]
    return TriState.FALSE if any(diff) else TriState.TRUE
