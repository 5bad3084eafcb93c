"""Exact sparse multivariate polynomial arithmetic over the rationals.

Scalars are `fractions.Fraction` throughout; nothing in this package ever
touches a float. Polynomials are sparse maps from exponent vectors to
nonzero coefficients over a fixed, ordered variable set. Each variable
carries a nonnegative integer weight used for weighted-degree bookkeeping
(the coefficient variable ``c<k>`` has weight ``k``). Beside the
division-free determinant sits ``_echelonize``, the package's one exact row
reduction of rational matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import le
from typing import Hashable, Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]


def grevlex_key(exps: Exponents) -> tuple:
    """Sort key realizing graded reverse lexicographic order (ascending)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def lex_key(exps: Exponents) -> tuple:
    """Sort key realizing lexicographic order (ascending)."""
    return exps


@dataclass(frozen=True)
class VarSet:
    """An ordered set of named variables with nonnegative integer weights."""

    names: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        if any(w < 0 for w in self.weights):
            raise ValueError("variable weights must be nonnegative")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def extend(self, name: str, weight: int = 0) -> "VarSet":
        """Append one variable (used for auxiliary membership variables)."""
        return VarSet(self.names + (name,), self.weights + (weight,))

    @staticmethod
    def coefficients(a: int) -> "VarSet":
        """Variables c2..ca, with weight(c_k) = k."""
        if a < 2:
            raise ValueError(f"need a >= 2, got {a}")
        ks = range(2, a + 1)
        return VarSet(tuple(f"c{k}" for k in ks), tuple(ks))

    @staticmethod
    def doubled(a: int) -> "VarSet":
        """Variables c2..ca followed by ct2..cta (the comparison copy)."""
        if a < 2:
            raise ValueError(f"need a >= 2, got {a}")
        ks = range(2, a + 1)
        names = tuple(f"c{k}" for k in ks) + tuple(f"ct{k}" for k in ks)
        return VarSet(names, tuple(ks) + tuple(ks))

    @staticmethod
    def blocks(a_list: Sequence[int]) -> "VarSet":
        """Variables c{k}_{j} for point j = 1..e, k = 2..a_j, weight k."""
        names: list[str] = []
        weights: list[int] = []
        for j, a in enumerate(a_list, start=1):
            if a < 2:
                raise ValueError(f"need a_j >= 2, got {a}")
            for k in range(2, a + 1):
                names.append(f"c{k}_{j}")
                weights.append(k)
        return VarSet(tuple(names), tuple(weights))


class MPoly:
    """Sparse polynomial: map from exponent vector to nonzero Fraction.

    Instances are treated as immutable; all operations return new objects.
    Equality is structural (same variable set, same terms).
    """

    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms: Mapping[Exponents, Scalar] | None = None):
        self.varset = varset
        clean: dict[Exponents, Fraction] = {}
        if terms:
            n = len(varset)
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent vector {exps} has wrong length for {varset.names}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = Fraction(coeff)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(varset: VarSet) -> "MPoly":
        return MPoly(varset)

    @staticmethod
    def constant(varset: VarSet, value: Scalar) -> "MPoly":
        return MPoly(varset, {(0,) * len(varset): Fraction(value)})

    @staticmethod
    def variable(varset: VarSet, name: str) -> "MPoly":
        exps = [0] * len(varset)
        exps[varset.index(name)] = 1
        return MPoly(varset, {tuple(exps): Fraction(1)})

    @staticmethod
    def monomial(varset: VarSet, exps: Exponents, coeff: Scalar = 1) -> "MPoly":
        return MPoly(varset, {tuple(exps): Fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.varset, frozenset(self.terms.items())))

    # -- ring operations ---------------------------------------------------

    def _check_ring(self, other: "MPoly") -> None:
        if self.varset != other.varset:
            raise ValueError("polynomials live in different variable sets")

    def __neg__(self) -> "MPoly":
        out = MPoly(self.varset)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __add__(self, other: "MPoly | Scalar") -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.varset, other)
        self._check_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, Fraction(0)) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        out = MPoly(self.varset)
        out.terms = acc
        return out

    __radd__ = __add__

    def __sub__(self, other: "MPoly | Scalar") -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.varset, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MPoly":
        return (-self) + other

    def __mul__(self, other: "MPoly | Scalar") -> "MPoly":
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            out = MPoly(self.varset)
            if k:
                out.terms = {e: c * k for e, c in self.terms.items()}
            return out
        self._check_ring(other)
        acc: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = acc.get(e, Fraction(0)) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        out = MPoly(self.varset)
        out.terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.constant(self.varset, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def diff(self, name: str) -> "MPoly":
        """Partial derivative with respect to one variable."""
        i = self.varset.index(name)
        acc: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                s = acc.get(e2, Fraction(0)) + c * e[i]
                if s:
                    acc[e2] = s
                else:
                    acc.pop(e2, None)
        out = MPoly(self.varset)
        out.terms = acc
        return out

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a full assignment of the variables.

        Values may be Fractions, ints, polynomials, or truncated series:
        anything with ring addition/multiplication against Fractions works.
        Partial assignments are rejected.
        """
        missing = [n for n in self.varset.names if n not in values]
        if missing:
            raise KeyError(f"missing values for variables {missing}")
        vals = [values[n] for n in self.varset.names]
        total = None
        for e, c in sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0])):
            term = c
            for v, p in zip(vals, e):
                if p:
                    term = term * (v ** p)
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    # -- degrees -----------------------------------------------------------

    def weighted_degree(self):
        """Weighted degree if homogeneous: int, "inhomogeneous", or "any".

        "any" is the distinguished answer for the zero polynomial, which is
        homogeneous of every degree.
        """
        if not self.terms:
            return "any"
        w = self.varset.weights
        degs = {sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms}
        if len(degs) > 1:
            return "inhomogeneous"
        return degs.pop()

    # -- normalization -----------------------------------------------------

    def content_free(self) -> "MPoly":
        """Divide out rational content; leading coefficient made positive.

        The result has coprime integer coefficients, so repeated reduction
        steps cannot grow denominators. Zero maps to zero.
        """
        if not self.terms:
            return self
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        scale = Fraction(den_lcm, num_gcd)
        lead = max(self.terms, key=grevlex_key)
        if self.terms[lead] < 0:
            scale = -scale
        return self * scale

    # -- presentation ------------------------------------------------------

    def sorted_terms(self, reverse: bool = True) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in canonical (graded reverse lexicographic) order.

        Descending by default, so the leading term comes first.
        """
        for e in sorted(self.terms, key=grevlex_key, reverse=reverse):
            yield e, self.terms[e]

    def text(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"MPoly({poly_text(self)})"


def monomial_text(varset: VarSet, exps: Exponents) -> str:
    parts = []
    for name, e in zip(varset.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def poly_text(p: MPoly) -> str:
    """Canonical text form: grevlex-descending terms, exact p/q coefficients.

    This string is a golden-output contract; do not change the format.
    """
    if not p.terms:
        return "0"
    chunks: list[str] = []
    for e, c in p.sorted_terms():
        mon = monomial_text(p.varset, e)
        mag = abs(c)
        if mon == "1":
            body = str(mag)
        elif mag == 1:
            body = mon
        else:
            body = f"{mag}*{mon}"
        if not chunks:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(chunks)


def poly_json(p: MPoly) -> dict:
    """Machine form: variable names plus sorted (exponents, coefficient) terms."""
    return {
        "variables": list(p.varset.names),
        "terms": [
            {"exponents": list(e), "coefficient": str(c)}
            for e, c in p.sorted_terms()
        ],
    }


def divides(e1: Exponents, e2: Exponents) -> bool:
    return all(map(le, e1, e2))


def det_bareiss(matrix: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a square polynomial matrix, without division.

    Laplace expansion along the rows, memoized over column subsets: for the
    bottom k rows and a k-subset S of the columns (a bitmask),
    minor[S] = sum over j in S of (-1)^pos * M[n-k][j] * minor[S - {j}],
    pos being the number of columns of S left of j, and minor[{}] = 1. The
    2^n minors cost about n * 2^(n-1) products; zero entries and zero
    minors are skipped, and no intermediate result is larger than a minor
    of the matrix.

    The name is kept from the Bareiss elimination this replaced, because
    the benchmark's tracer wraps ``polycore.det_bareiss`` by name.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no determinant")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    varset = matrix[0][0].varset
    if any(entry.varset != varset for row in matrix for entry in row):
        raise ValueError("matrix entries live in different variable sets")
    minors = {0: MPoly.constant(varset, 1)}
    for row in reversed(matrix):
        larger: dict[int, MPoly] = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or not entry:
                    continue
                term = entry * minor
                if (cols & ((1 << j) - 1)).bit_count() & 1:
                    term = -term
                key = cols | 1 << j
                larger[key] = larger[key] + term if key in larger else term
        minors = {cols: minor for cols, minor in larger.items() if minor}
    return minors.get((1 << n) - 1, MPoly.zero(varset))


def _echelonize(coords: Sequence[Hashable], rows: list[dict[Hashable, Fraction]]
                ) -> tuple[list[dict[Hashable, Fraction]], list[int | None], list[dict[int, Fraction]]]:
    """Gauss-Jordan over the column keys (pivot scan left to right), the one
    exact row reduction of this package.

    Returns fully reduced rows, the index into coords of each row's pivot
    column (None for rows that reduce to zero), and per-row combinations
    over the original row indices: work[r] = sum_i combos[r][i] * rows[i].
    """
    combos: list[dict[int, Fraction]] = [{i: Fraction(1)} for i in range(len(rows))]
    work = [dict(r) for r in rows]
    pivots: list[int | None] = [None] * len(rows)
    used_rows: set[int] = set()
    for ci, coord in enumerate(coords):
        pivot_row = next((r for r in range(len(work))
                          if r not in used_rows and work[r].get(coord)), None)
        if pivot_row is None:
            continue
        used_rows.add(pivot_row)
        pivots[pivot_row] = ci
        pval = work[pivot_row][coord]
        for r in range(len(work)):
            if r == pivot_row:
                continue
            factor = work[r].get(coord)
            if not factor:
                continue
            scale = factor / pval
            for c2, v in work[pivot_row].items():
                nv = work[r].get(c2, Fraction(0)) - scale * v
                if nv:
                    work[r][c2] = nv
                else:
                    work[r].pop(c2, None)
            for oi, v in combos[pivot_row].items():
                nv = combos[r].get(oi, Fraction(0)) - scale * v
                if nv:
                    combos[r][oi] = nv
                else:
                    combos[r].pop(oi, None)
    return work, pivots, combos
