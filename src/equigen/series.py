"""Truncated t-adic series, windowed Laurent expansions in s, and the
coordinate-change solver for comparing two nearby parameterizations.

``TSeries`` is an element of Q[[t]] / t^K with exact coefficients.
``LaurentSlice`` is a finite window of a Laurent expansion in s whose
coefficients are TSeries: exponents above ``hi`` are genuinely zero,
exponents below ``lo`` were not retained (unknown, never assumed zero).
Every operation propagates both bounds honestly, so a result is only ever
read where it is actually determined.

``reparam_solve`` finds the unique change of parameter
``s(next) = s - (1/a) * sum_{i=2}^{a} dprime_i s^{-(i-1)}
           + sum_{i=a+1}^{smax} eps_i s^{-(i-1)}``
matching two coefficient vectors of the defining equation, order by order;
``order_bound_audit`` checks the guaranteed valuation bounds of the output,
and ``pm_identity_check`` verifies that the regular-part difference of the
twisted expansions equals the singular-part difference (the matching
identity), modulo the declared truncations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .expansion import LocalModel, SigmaModel, sigma_coeff

Scalar = Union[Fraction, int]


class TriState(Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"


class TSeries:
    """Truncated power series in t: exact coefficients, fixed modulus K.

    coeffs[i] is the t^i coefficient; trailing zeros are trimmed and the
    stored length never exceeds K. The order of the zero series is K (a
    sentinel meaning "at least the modulus").
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
        return TSeries(self.modulus, [-c for c in self.coeffs])

    def __add__(self, other: "TSeries | Scalar") -> "TSeries":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return TSeries(self.modulus,
                       [(self.coeffs[i] if i < len(self.coeffs) else Fraction(0)) +
                        (other.coeffs[i] if i < len(other.coeffs) else Fraction(0))
                        for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other: "TSeries | Scalar") -> "TSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "TSeries":
        return (-self) + other

    def __mul__(self, other: "TSeries | Scalar") -> "TSeries":
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return TSeries(self.modulus, [c * k for c in self.coeffs])
        other = self._coerce(other)
        out = [Fraction(0)] * min(self.modulus, len(self.coeffs) + len(other.coeffs) - 1
                                  if self.coeffs and other.coeffs else 0)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= self.modulus:
                    break
                if b:
                    out[i + j] += a * b
        return TSeries(self.modulus, out)

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
        return TSeries(self.modulus, (0,) * n + self.coeffs)

    def truncate(self, modulus: int) -> "TSeries":
        if modulus > self.modulus:
            raise ValueError("cannot raise a truncation modulus")
        return TSeries(modulus, self.coeffs[:modulus])

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"O(t^{self.modulus})"
        parts = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) + f" + O(t^{self.modulus})"


NEG_INF = float("-inf")


class LaurentSlice:
    """A retained window of a Laurent expansion in s with TSeries coefficients.

    Exponents above ``hi`` are genuinely zero; exponents below ``lo`` were
    dropped and are unknown. ``lo`` may be -inf when nothing was dropped.
    """

    __slots__ = ("modulus", "lo", "hi", "coeffs")

    def __init__(self, modulus: int, lo, hi: int, coeffs: Mapping[int, TSeries] | None = None):
        self.modulus = modulus
        self.lo = lo
        self.hi = hi
        clean: dict[int, TSeries] = {}
        for e, c in (coeffs or {}).items():
            if c.modulus != modulus:
                raise ValueError("mixed moduli in slice coefficients")
            if e > hi or e < lo:
                raise ValueError(f"exponent {e} outside window [{lo}, {hi}]")
            if not c.is_zero():
                clean[e] = c
        self.coeffs = clean

    @staticmethod
    def monomial(modulus: int, exponent: int, coeff: TSeries | Scalar) -> "LaurentSlice":
        if not isinstance(coeff, TSeries):
            coeff = TSeries.constant(coeff, modulus)
        return LaurentSlice(modulus, NEG_INF, exponent, {exponent: coeff})

    @staticmethod
    def zero(modulus: int, hi: int = 0) -> "LaurentSlice":
        return LaurentSlice(modulus, NEG_INF, hi, {})

    def coeff_at(self, e: int) -> TSeries:
        """Coefficient of s^e. Raises if e lies below the trust floor."""
        if e < self.lo:
            raise ValueError(f"exponent {e} below retained window floor {self.lo}")
        return self.coeffs.get(e, TSeries.zero(self.modulus))

    def _check(self, other: "LaurentSlice") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")

    def __neg__(self) -> "LaurentSlice":
        return LaurentSlice(self.modulus, self.lo, self.hi,
                            {e: -c for e, c in self.coeffs.items()})

    def __add__(self, other: "LaurentSlice") -> "LaurentSlice":
        self._check(other)
        lo = max(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = acc.get(e, TSeries.zero(self.modulus)) + c
            if s.is_zero():
                acc.pop(e, None)
            else:
                acc[e] = s
        acc = {e: c for e, c in acc.items() if e >= lo}
        return LaurentSlice(self.modulus, lo, hi, acc)

    def __sub__(self, other: "LaurentSlice") -> "LaurentSlice":
        return self + (-other)

    def __mul__(self, other: "LaurentSlice") -> "LaurentSlice":
        """Product, trusted only where every contributing term was retained:
        the floor is max(lo1 + hi2, lo2 + hi1)."""
        self._check(other)
        lo = max(self.lo + other.hi if self.lo != NEG_INF else NEG_INF,
                 other.lo + self.hi if other.lo != NEG_INF else NEG_INF)
        hi = self.hi + other.hi
        acc: dict[int, TSeries] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < lo:
                    continue
                s = acc.get(e, TSeries.zero(self.modulus)) + c1 * c2
                if s.is_zero():
                    acc.pop(e, None)
                else:
                    acc[e] = s
        return LaurentSlice(self.modulus, lo, hi, acc)

    def scale(self, factor: TSeries | Scalar) -> "LaurentSlice":
        if not isinstance(factor, TSeries):
            factor = TSeries.constant(factor, self.modulus)
        out: dict[int, TSeries] = {}
        for e, c in self.coeffs.items():
            s = c * factor
            if not s.is_zero():
                out[e] = s
        return LaurentSlice(self.modulus, self.lo, self.hi, out)

    def power(self, n: int, floor=None) -> "LaurentSlice":
        """Integer power. Negative powers require a unit slice: hi == 0 with
        constant term 1; ``floor`` bounds how deep the inverse is expanded."""
        if n >= 0:
            result = LaurentSlice.monomial(self.modulus, 0, TSeries.constant(1, self.modulus))
            base = self
            k = n
            while k:
                if k & 1:
                    result = result * base
                k >>= 1
                if k:
                    base = base * base
            return result
        return self.inverse_unit(floor).power(-n)

    def inverse_unit(self, floor=None) -> "LaurentSlice":
        """Inverse of 1 + u with u supported in negative exponents, by the
        geometric series; terms below the floor are dropped (and the floor
        bound is recorded honestly)."""
        if self.hi != 0 or self.coeff_at(0) != TSeries.constant(1, self.modulus):
            raise ValueError("inverse needs a unit slice: top exponent 0, constant term 1")
        if floor is None:
            floor = self.lo
        u = self - LaurentSlice.monomial(self.modulus, 0, TSeries.constant(1, self.modulus))
        if u.hi >= 0:
            u = u.clip(u.lo, -1)
        result = LaurentSlice.monomial(self.modulus, 0, TSeries.constant(1, self.modulus))
        term = result
        while True:
            term = term * (-u)
            if term.hi < floor:
                break
            result = result + term
        return result

    def clip(self, lo, hi: int) -> "LaurentSlice":
        """Restrict the window. Raising hi is outlawed unless content allows;
        lowering lo below the trust floor is refused."""
        if lo < self.lo:
            raise ValueError("cannot extend the window below the trust floor")
        new_hi = min(hi, self.hi)
        keep = {e: c for e, c in self.coeffs.items() if lo <= e <= new_hi}
        return LaurentSlice(self.modulus, lo, new_hi, keep)

    def agrees_with(self, other: "LaurentSlice", lo: int, hi: int) -> bool:
        """Coefficient-wise equality on [lo, hi]; raises if either side does
        not determine the whole window."""
        self._check(other)
        for e in range(lo, hi + 1):
            if self.coeff_at(e) != other.coeff_at(e):
                return False
        return True

    def __repr__(self) -> str:
        items = ", ".join(f"s^{e}: {c!r}" for e, c in sorted(self.coeffs.items(), reverse=True))
        return f"LaurentSlice[{self.lo}..{self.hi}] {{{items}}}"


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


def reparam_unit_slice(result: ReparamResult, floor: int) -> LaurentSlice:
    """The unit W = s(next)/s as a Laurent window down to the floor."""
    K = result.modulus
    coeffs = {0: TSeries.constant(1, K)}
    for m, um in result.unit.items():
        if -m >= floor and not um.is_zero():
            coeffs[-m] = um
    return LaurentSlice(K, max(floor, -result.smax), 0, coeffs)


def substitution_check(result: ReparamResult, c_now: Sequence[TSeries],
                       c_next: Sequence[TSeries]) -> bool:
    """Back-substitute the solved parameter into the defining expression and
    compare both sides as Laurent windows; exactness oracle for the solver."""
    model = result.model
    a, K, smax = model.a, result.modulus, result.smax
    w_unit = reparam_unit_slice(result, floor=-smax)
    s_next = LaurentSlice.monomial(K, 1, 1) * w_unit
    lhs = s_next.power(a)
    for k in range(2, a + 1):
        lhs = lhs + s_next.power(a - k).scale(c_next[k - 2])
    rhs = LaurentSlice.monomial(K, a, 1)
    for k in range(2, a + 1):
        rhs = rhs + LaurentSlice.monomial(K, a - k, c_now[k - 2])
    window_lo = a - smax
    return lhs.agrees_with(rhs, window_lo, a)


def regularize(slice_: LaurentSlice) -> tuple[LaurentSlice, LaurentSlice]:
    """Split into the regular part (exponents >= 0) and singular part (< 0)."""
    reg = {e: c for e, c in slice_.coeffs.items() if e >= 0}
    sing = {e: c for e, c in slice_.coeffs.items() if e < 0}
    reg_slice = LaurentSlice(slice_.modulus, max(slice_.lo, 0), max(slice_.hi, 0), reg)
    sing_slice = LaurentSlice(slice_.modulus, slice_.lo, min(slice_.hi, -1), sing)
    return reg_slice, sing_slice


def residue_at(slice_: LaurentSlice) -> TSeries:
    """The s^{-1} coefficient. Exponents above hi are knowably zero; below
    the trust floor the answer is undetermined and an error is raised."""
    return slice_.coeff_at(-1)


def pm_identity_check(sigma_model: SigmaModel, c_now: Sequence[TSeries],
                      c_next: Sequence[TSeries], smax: int, modulus: int) -> TriState:
    """Matching identity between two nearby twisted expansions.

    Checks, as a windowed Laurent identity mod t^modulus:
      sum_{l >= 0} sigma_{-l}(next) s(next)^l - sum_{l >= 0} sigma_{-l}(now) s^l
        == sum_{l <= -1} sigma_{-l}(now) s^l - sum_{l <= -1} sigma_{-l}(next) s(next)^l.

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
    result = reparam_solve(model, c_now, c_next, max(smax + l_max, model.a), K)

    floor = -(smax + l_max)
    w_unit = reparam_unit_slice(result, floor)
    s_next = LaurentSlice.monomial(K, 1, 1) * w_unit
    w_inv = w_unit.inverse_unit(floor)
    s_next_inv = LaurentSlice.monomial(K, -1, 1) * w_inv

    names = [f"c{k}" for k in range(2, model.a + 1)]
    val_now = dict(zip(names, c_now))
    val_next = dict(zip(names, c_next))

    def sigma_at(l: int, values) -> TSeries:
        poly = sigma_coeff(sigma_model, l, tmax=K)
        v = poly.evaluate(values)
        return v if isinstance(v, TSeries) else TSeries.constant(v, K)

    lhs = LaurentSlice.zero(K)
    pos_power = LaurentSlice.monomial(K, 0, 1)
    for l in range(0, l_max + 1):
        if l > 0:
            pos_power = pos_power * s_next
        s_now = sigma_at(l, val_now)
        s_nxt = sigma_at(l, val_next)
        if not s_nxt.is_zero():
            lhs = lhs + pos_power.scale(s_nxt)
        if not s_now.is_zero():
            lhs = lhs - LaurentSlice.monomial(K, l, s_now)

    rhs = LaurentSlice.zero(K)
    neg_power = LaurentSlice.monomial(K, 0, 1)
    for l in range(-1, -l_sing - 1, -1):
        neg_power = neg_power * s_next_inv
        s_now = sigma_at(l, val_now)
        s_nxt = sigma_at(l, val_next)
        if not s_now.is_zero():
            rhs = rhs + LaurentSlice.monomial(K, l, s_now)
        if not s_nxt.is_zero():
            rhs = rhs - neg_power.scale(s_nxt)

    window_lo, window_hi = -smax, l_max
    if lhs.lo > window_lo or rhs.lo > window_lo:
        return TriState.INCONCLUSIVE
    return TriState.TRUE if lhs.agrees_with(rhs, window_lo, window_hi) else TriState.FALSE
