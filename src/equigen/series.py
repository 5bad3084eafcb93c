"""Truncated t-adic series and the coordinate-change solver for comparing
two nearby parameterizations.

``TSeries`` is an element of Q[[t]] / t^K with exact coefficients; it is
the module's only series type. A Laurent expansion in s is handled as a
dense list of TSeries over a window of s-exponents fixed before any
arithmetic starts, so nothing outside the window is ever computed or read.

Series arithmetic builds its results with the trusted constructor
``TSeries._of``, which only trims trailing zeros; the public constructor
coerces every coefficient to ``Fraction``. A product whose operands both
store at least ``INT_CONV_MIN_TERMS`` terms puts each operand over the lcm
of its denominators and convolves the integer numerators, making one
``Fraction`` per output coefficient; shorter products run the schoolbook
loop. The coefficients are the same either way.

``reparam_solve`` finds the unique change of parameter
``s(next) = s - (1/a) * sum_{i=2}^{a} dprime_i s^{-(i-1)}
           + sum_{i=a+1}^{smax} eps_i s^{-(i-1)}``
matching two coefficient vectors of the defining equation, order by order;
``order_bound_audit`` checks the guaranteed valuation bounds of the output.
``substitution_check`` and ``pm_identity_check`` expand the powers of the
unit W = s(next)/s by one recurrence and verify, on their windows, the
back-substituted equation and the matching identity (the regular-part
difference of the twisted expansions equals the singular-part difference),
modulo the declared truncations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence, Union

from .expansion import LocalModel, SigmaModel, sigma_coeff

Scalar = Union[Fraction, int]


_ZERO = Fraction(0)

# Both operands of a series product must store at least this many terms for
# the integer convolution; below it the schoolbook loop, which skips zero
# entries, wins on the sparse low-order series the lift and the
# reparameterization checks multiply (dense random operands favour the
# integer path from 4 terms on). Best of 3 interleaved runs on a 2-vCPU Xeon,
# six random lifts at K = 44 plus one at K = 90 on [(3,4),(2,5)]: 2.59 s at a
# cutoff of 8, 2.61 s at 12, 2.43 s at 16, 2.51 s at 24, 2.77 s at 32; the
# seed-4242 reparam plan (K <= 12, so 16 and up never convolve): 2.96 s at 8,
# 2.50 s at 12, 2.37 s at 16.
INT_CONV_MIN_TERMS = 16


class TriState(Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"


class TSeries:
    """Truncated power series in t: exact coefficients, fixed modulus K.

    coeffs[i] is the t^i coefficient, a ``Fraction``; trailing zeros are
    trimmed and the stored length never exceeds K. The order of the zero
    series is K (a sentinel meaning "at least the modulus").

    The public constructor coerces every coefficient with ``Fraction`` and
    checks the modulus. Results of series arithmetic are built by the
    trusted ``_of``, which only trims, since their coefficients are
    already ``Fraction``s. A product of two series that both store at
    least ``INT_CONV_MIN_TERMS`` terms is convolved over integer
    numerators (``_convolve_numerators``); shorter products use the
    schoolbook loop over ``Fraction``. Both give the same coefficients.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: Sequence[Scalar] = ()):
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        cs = [Fraction(c) for c in coeffs[:modulus]]
        while cs and not cs[-1]:
            cs.pop()
        self.modulus = modulus
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, modulus: int, coeffs: list[Fraction]) -> "TSeries":
        """Trusted constructor: ``coeffs`` are Fractions, at most ``modulus``
        of them; only trailing zeros are trimmed (in place)."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out = object.__new__(cls)
        out.modulus = modulus
        out.coeffs = tuple(coeffs)
        return out

    @staticmethod
    def zero(modulus: int) -> "TSeries":
        return TSeries(modulus)

    @staticmethod
    def constant(value: Scalar, modulus: int) -> "TSeries":
        return TSeries(modulus, [value])

    @staticmethod
    def t_power(n: int, modulus: int, coeff: Scalar = 1) -> "TSeries":
        if n < 0:
            raise ValueError("negative t-power")
        return TSeries(modulus, [0] * n + [coeff])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def ord(self) -> int:
        """t-adic valuation; the modulus itself for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.modulus

    def coeff(self, i: int) -> Fraction:
        if not 0 <= i < self.modulus:
            raise ValueError(f"coefficient index {i} outside modulus {self.modulus}")
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

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
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.modulus, self.coeffs))

    def __neg__(self) -> "TSeries":
        return TSeries._of(self.modulus, [-c for c in self.coeffs])

    def __add__(self, other: "TSeries | Scalar") -> "TSeries":
        other = self._coerce(other)
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for i, c in enumerate(shorter):
            if c:
                out[i] += c
        return TSeries._of(self.modulus, out)

    __radd__ = __add__

    def __sub__(self, other: "TSeries | Scalar") -> "TSeries":
        other = self._coerce(other)
        out = list(self.coeffs)
        n = len(out)
        for i, c in enumerate(other.coeffs[:n]):
            if c:
                out[i] -= c
        out.extend([-c for c in other.coeffs[n:]])
        return TSeries._of(self.modulus, out)

    def __rsub__(self, other: Scalar) -> "TSeries":
        return (-self) + other

    def __mul__(self, other: "TSeries | Scalar") -> "TSeries":
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return TSeries._of(self.modulus, [c * k for c in self.coeffs])
        other = self._coerce(other)
        x, y = self.coeffs, other.coeffs
        if not x or not y:
            return TSeries._of(self.modulus, [])
        n = min(self.modulus, len(x) + len(y) - 1)
        if len(x) >= INT_CONV_MIN_TERMS and len(y) >= INT_CONV_MIN_TERMS:
            return TSeries._of(self.modulus, _convolve_numerators(x, y, n))
        out = [_ZERO] * n
        for i, a in enumerate(x):
            if a:
                for k, b in enumerate(y[:n - i], i):
                    if b:
                        out[k] += a * b
        return TSeries._of(self.modulus, out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "TSeries":
        k = Fraction(other)
        if not k:
            raise ZeroDivisionError("division of a series by zero")
        return self * (1 / k)

    def __pow__(self, n: int) -> "TSeries":
        if n < 0:
            raise ValueError("negative power of a truncated series")
        result = TSeries.constant(1, self.modulus)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift(self, n: int) -> "TSeries":
        """Multiply by t^n (n >= 0); overflow past the modulus is dropped."""
        if n < 0:
            raise ValueError("negative shift")
        if n >= self.modulus:
            return TSeries._of(self.modulus, [])
        return TSeries._of(self.modulus, [_ZERO] * n + list(self.coeffs[:self.modulus - n]))

    def truncate(self, modulus: int) -> "TSeries":
        if modulus > self.modulus:
            raise ValueError("cannot raise a truncation modulus")
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        return TSeries._of(modulus, list(self.coeffs[:modulus]))

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"O(t^{self.modulus})"
        parts = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) + f" + O(t^{self.modulus})"


def _convolve_numerators(x: Sequence[Fraction], y: Sequence[Fraction], n: int) -> list[Fraction]:
    """The first n coefficients of x * y, over integers.

    Each operand is put over the lcm of its denominators, dx and dy; the
    integer numerators are convolved (one C-level dot product per output
    coefficient) and each sum becomes one Fraction(sum, dx * dy).
    """
    dx = lcm(*[c.denominator for c in x])
    dy = lcm(*[c.denominator for c in y])
    nx = [c.numerator * (dx // c.denominator) for c in x]
    ry = [c.numerator * (dy // c.denominator) for c in reversed(y)]
    top_x, top_y = len(x) - 1, len(y) - 1
    d = dx * dy
    out = []
    for k in range(n):
        lo = max(0, k - top_y)
        hi = min(k, top_x) + 1
        # sum over i in [lo, hi) of nx[i] * ny[k - i], where ny[k - i] == ry[top_y - k + i]
        out.append(Fraction(sum(map(mul, nx[lo:hi], ry[top_y - k + lo:top_y - k + hi])), d))
    return out


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

    # w[e][m]: the s^{-m} coefficient of (s(next)/s)^e; filled in m order.
    u: dict[int, TSeries] = {}
    w: list[list[TSeries]] = [[zero] * (smax + 1) for _ in range(a + 1)]
    for e in range(a + 1):
        w[e][0] = one
    for m in range(2, smax + 1):
        # Convolve upward with the u_m-free parts; the linear correction is
        # e * u_m since w[e][m] = known[e] + e * u_m by induction on e.
        known = [zero] * (a + 1)
        for e in range(1, a + 1):
            acc = known[e - 1]
            for jj in range(2, m - 1):
                if u[jj].is_zero():
                    continue
                acc = acc + w[e - 1][m - jj] * u[jj]
            known[e] = acc
        lhs_known = known[a]
        for k in range(2, a + 1):
            if m - k >= 0:
                lhs_known = lhs_known + cnext[k] * w[a - k][m - k]
        rhs = cnow[m] if 2 <= m <= a else zero
        um = (rhs - lhs_known) / a
        u[m] = um
        for e in range(1, a + 1):
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


def pm_identity_check(sigma_model: SigmaModel, c_now: Sequence[TSeries],
                      c_next: Sequence[TSeries], smax: int, modulus: int) -> TriState:
    """Matching identity between two nearby twisted expansions.

    Checks, on the s-exponents -smax .. l_max mod t^modulus:
      sum_{l >= 0} sigma_{-l}(next) s(next)^l - sum_{l >= 0} sigma_{-l}(now) s^l
        == sum_{l <= -1} sigma_{-l}(now) s^l - sum_{l <= -1} sigma_{-l}(next) s(next)^l,
    regrouped as sum_l sigma_{-l}(next) s(next)^l - sigma_{-l}(now) s^l == 0.

    Coefficients at s-exponent e carry t-order at least b - e, so exponents
    below -(modulus - b) vanish mod t^modulus and the window decides the
    identity iff smax >= modulus - b. Below that threshold the verdict is
    INCONCLUSIVE, never a silent pass.
    """
    model = sigma_model.model
    b, K = model.b, modulus
    if smax < K - b:
        return TriState.INCONCLUSIVE
    l_max = b + len(sigma_model.g0)
    l_sing = max(K - b - 1, 0)
    # Past that threshold no other bound can leave the window undetermined:
    # s(next)^l for l <= l_max needs W^l only to depth l + smax <= smax + l_max,
    # which this solve provides, and every s^l has l >= -l_sing > -smax.
    result = reparam_solve(model, c_now, c_next, max(smax + l_max, model.a), K)
    unit = _unit_coeffs(result)

    names = [f"c{k}" for k in range(2, model.a + 1)]
    val_now = dict(zip(names, c_now))
    val_next = dict(zip(names, c_next))

    def sigma_at(l: int, values) -> TSeries:
        poly = sigma_coeff(sigma_model, l, tmax=K)
        v = poly.evaluate(values)
        return v if isinstance(v, TSeries) else TSeries.constant(v, K)

    # diff[i]: the s^{l_max - i} coefficient of the regrouped difference.
    diff = [TSeries.zero(K)] * (l_max + smax + 1)
    for l in range(-l_sing, l_max + 1):
        s_now = sigma_at(l, val_now)
        s_nxt = sigma_at(l, val_next)
        diff[l_max - l] = diff[l_max - l] - s_now
        if s_nxt:
            for m, p in enumerate(_unit_powers(unit, l, l + smax)):
                diff[l_max - l + m] = diff[l_max - l + m] + s_nxt * p
    return TriState.FALSE if any(diff) else TriState.TRUE
