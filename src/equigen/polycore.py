"""Exact sparse multivariate polynomial arithmetic over the rationals.

Scalars are `fractions.Fraction` throughout; nothing in this package ever
touches a float. Polynomials are sparse maps from exponent vectors to
nonzero coefficients over a fixed, ordered variable set.

``_Packing`` is the package's one packed-monomial format: a monomial is
one int, its exponents in fields wide enough that a product never carries
(Monagan and Pearce, CASC 2007). The Groebner engine uses its full keys,
which compare as grevlex. ``MPoly.__mul__`` and ``det_bareiss`` use only
its exponent word: each factor, or each row of a determinant, is scaled to
integer coefficients by the lcm of its denominators, a product of monomials
is ``+`` on words, and no Fraction is built until the result is unpacked.
Beside them sits ``_echelonize``, the package's one exact row reduction of
rational matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import lshift, neg
from typing import Hashable, Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]


def grevlex_key(exps: Exponents) -> tuple:
    """Sort key realizing graded reverse lexicographic order (ascending)."""
    return (sum(exps), tuple(map(neg, reversed(exps))))


@dataclass(frozen=True)
class VarSet:
    """An ordered set of named variables."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def extend(self, name: str) -> "VarSet":
        """Append one variable (used for auxiliary membership variables)."""
        return VarSet(self.names + (name,))

    @staticmethod
    def coefficients(a: int) -> "VarSet":
        """Variables c2..ca."""
        if a < 2:
            raise ValueError(f"need a >= 2, got {a}")
        return VarSet(tuple(f"c{k}" for k in range(2, a + 1)))

    @staticmethod
    def doubled(a: int) -> "VarSet":
        """Variables c2..ca followed by ct2..cta (the comparison copy)."""
        if a < 2:
            raise ValueError(f"need a >= 2, got {a}")
        ks = range(2, a + 1)
        return VarSet(tuple(f"c{k}" for k in ks) + tuple(f"ct{k}" for k in ks))

    @staticmethod
    def blocks(a_list: Sequence[int]) -> "VarSet":
        """Variables c{k}_{j} for point j = 1..e, k = 2..a_j."""
        names: list[str] = []
        for j, a in enumerate(a_list, start=1):
            if a < 2:
                raise ValueError(f"need a_j >= 2, got {a}")
            names.extend(f"c{k}_{j}" for k in range(2, a + 1))
        return VarSet(tuple(names))


class MPoly:
    """Sparse polynomial: map from exponent vector to nonzero Fraction.

    Instances are treated as immutable; all operations return new objects.
    Equality is structural (same variable set, same terms).

    The public constructor checks every exponent vector and coerces every
    coefficient with ``Fraction``. Results of polynomial arithmetic are
    built by the trusted ``_of``.
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

    @classmethod
    def _of(cls, varset: VarSet, terms: dict[Exponents, Scalar]) -> "MPoly":
        """Trusted constructor: ``terms`` already maps exponent vectors of
        the right length to nonzero coefficients, and is kept, not copied.
        The Groebner engine's working basis holds int coefficients."""
        out = object.__new__(cls)
        out.varset = varset
        out.terms = terms
        return out

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
        return MPoly._of(self.varset, {e: -c for e, c in self.terms.items()})

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
        return MPoly._of(self.varset, acc)

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
            return MPoly._of(self.varset, {e: c * k for e, c in self.terms.items()} if k else {})
        self._check_ring(other)
        if not (self.terms and other.terms):
            return MPoly._of(self.varset, {})
        packing = _Packing.of((self, other))
        lcm1, (terms1,) = _scaled(packing, (self,))
        lcm2, (terms2,) = _scaled(packing, (other,))
        acc: dict[int, int] = {}
        get = acc.get
        for w1, c1 in terms1:
            for w2, c2 in terms2:
                w = w1 + w2
                acc[w] = get(w, 0) + c1 * c2
        scale, unpack = lcm1 * lcm2, packing.unpack
        return MPoly._of(self.varset, {unpack(w): Fraction(c, scale) for w, c in acc.items() if c})

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
        return MPoly._of(self.varset, acc)

    def evaluate(self, point: Sequence[object]):
        """Evaluate at ``point``, one value per variable in ``varset`` order.

        Values may be Fractions, ints, polynomials, or truncated series:
        anything with ring addition/multiplication against Fractions works.
        A point of the wrong length is rejected.
        """
        return evaluate_many((self,), point)[0]

    # -- change of ring ----------------------------------------------------

    def rename(self, varset: VarSet, names: Sequence[str] | None = None) -> "MPoly":
        """This polynomial over ``varset``: variable i becomes the variable
        ``names[i]`` there, by default the one of the same name.

        Variables sent to one name are identified, so their exponents add;
        terms that cancel are dropped. Other variables get exponent 0.
        """
        if names is None:
            names = self.varset.names
        elif len(names) != len(self.varset):
            raise ValueError(f"need {len(self.varset)} names, got {len(names)}")
        targets = [varset.index(name) for name in names]
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            full = [0] * len(varset)
            for t, e in zip(targets, exps):
                full[t] += e
            key = tuple(full)
            acc[key] = acc.get(key, 0) + coeff
        return MPoly._of(varset, {e: c for e, c in acc.items() if c})

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in canonical (graded reverse lexicographic) order,
        descending, so the leading term comes first."""
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            yield e, self.terms[e]

    def __repr__(self) -> str:
        return f"MPoly({poly_text(self)})"


class _Packing:
    """Monomials over n variables, packed into one int each.

    The int has 2n fields of ``width`` bits. The low n fields are the word:
    exponent e_k in field k - 1, with the top bit of each field, its guard,
    left clear. The high n fields are the order key: the partial sum
    S_k = e_1 + ... + e_k in field k - 1, so the degree S_n is the most
    significant field. Comparing ints is then grevlex, a product is ``+``,
    a quotient ``-``, and m1 divides m2 iff ``(m2 - m1) & guard`` is 0. A
    packing made for degree d holds every monomial of degree up to
    ``max_deg`` >= 2d without a carry between fields.

    ``word`` is the low n fields alone. Words also multiply by ``+`` and
    ``unpack`` reads them; they are for products, which need no order.
    """

    __slots__ = ("max_deg", "guard", "_width", "_ones", "_low", "_key_shift", "_deg_shift",
                 "_shifts")

    def __init__(self, n: int, degree: int) -> None:
        width = (2 * degree).bit_length() + 1
        self.max_deg = (1 << (width - 1)) - 1
        self._width = width
        self._key_shift = n * width
        self._low = (1 << self._key_shift) - 1
        self._ones = self._low // ((1 << width) - 1)  # a 1 in each of the n fields
        self.guard = self._ones << (width - 1)
        self._deg_shift = (2 * n - 1) * width
        self._shifts = range(0, self._key_shift, width)

    @staticmethod
    def of(polys: Sequence[MPoly]) -> "_Packing":
        """The packing made for the largest degree among the polynomials."""
        return _Packing(len(polys[0].varset),
                        max(max(map(sum, p.terms), default=0) for p in polys))

    def _with_key(self, word: int) -> int:
        # The low n fields of word * ones are the partial sums S_1..S_n.
        return ((word * self._ones) & self._low) << self._key_shift | word

    def word(self, exps: Exponents) -> int:
        return sum(map(lshift, exps, self._shifts))

    def pack(self, exps: Exponents) -> int:
        return self._with_key(self.word(exps))

    def unpack(self, mon: int) -> Exponents:
        # A plain loop: about twice as fast as tuple() over a generator.
        mask, exps = (1 << self._width) - 1, []
        for s in self._shifts:
            exps.append((mon >> s) & mask)
        return tuple(exps)

    def degree(self, mon: int) -> int:
        return mon >> self._deg_shift

    def lcm(self, m1: int, m2: int) -> int:
        """The lcm by a per-field max of the words. It is exact whenever
        both monomials fit, although its degree may reach 2 * max_deg."""
        low, guard = self._low, self.guard
        w1, w2 = m1 & low, m2 & low
        ge = ((w1 | guard) - w2) & guard  # guard bit set where e1 >= e2
        take1 = ge - (ge >> (self._width - 1))
        return self._with_key(w2 ^ ((w1 ^ w2) & take1))


def _scaled(packing: _Packing, polys: Sequence[MPoly]) -> tuple[int, list[list[tuple[int, int]]]]:
    """The polynomials times the lcm L of all their coefficient
    denominators: L, and each product as (word, int coefficient) pairs."""
    lcm = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    word = packing.word
    return lcm, [[(word(e), c.numerator * (lcm // c.denominator)) for e, c in p.terms.items()]
                 for p in polys]


def evaluate_many(polys: Sequence[MPoly], point: Sequence[object]) -> list:
    """``[p.evaluate(point) for p in polys]``, the one evaluation routine.

    The polynomials share one variable set, and ``point`` holds one value
    per variable in its order. They share one monomial table: a monomial
    not yet in it is reached by walking down in its last nonzero variable
    to a known monomial or a single variable, then built on the way back up
    with one product per new monomial. Each term is then one scalar
    multiple of a table entry.
    """
    if not polys:
        return []
    varset = polys[0].varset
    if any(p.varset != varset for p in polys):
        raise ValueError("evaluate_many needs polynomials over one variable set")
    if len(point) != len(varset):
        raise ValueError(f"need {len(varset)} values, one per variable {varset.names}, "
                         f"got {len(point)}")
    table: dict[Exponents, object] = {}
    out = []
    for p in polys:
        total = None
        for e, c in p.terms.items():
            m = table.get(e)
            if m is None and any(e):
                chain = []
                while m is None and any(e):
                    i = len(e) - 1
                    while not e[i]:
                        i -= 1
                    chain.append((e, i))
                    e = e[:i] + (e[i] - 1,) + e[i + 1:]
                    m = table.get(e)
                for e, i in reversed(chain):
                    m = point[i] if m is None else m * point[i]
                    table[e] = m
            term = c if m is None else m * c
            total = term if total is None else total + term
        out.append(Fraction(0) if total is None else total)
    return out


def primitive_terms(terms: Mapping[Hashable, Scalar], lead: Hashable | None = None) -> dict:
    """The primitive integer multiple of a nonzero polynomial's terms.

    Coefficients may be ints or Fractions. For c = n/d in lowest terms the
    content is gcd(n) / lcm(d), so each coefficient maps to the exact int
    n // gcd(n) * (lcm(d) // d); the sign makes the leading coefficient
    positive: the one at ``lead``, by default at the grevlex-largest
    exponent vector. The terms keep their order.
    """
    coeffs = terms.values()
    num_gcd = math.gcd(*[c.numerator for c in coeffs])
    den_lcm = math.lcm(*[c.denominator for c in coeffs])
    if lead is None:
        lead = max(terms, key=grevlex_key)
    if terms[lead] < 0:
        num_gcd = -num_gcd
    return {e: c.numerator // num_gcd * (den_lcm // c.denominator) for e, c in terms.items()}


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


def det_bareiss(matrix: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a square polynomial matrix, without division.

    Laplace expansion along the rows, memoized over column subsets: for the
    bottom k rows and a k-subset S of the columns (a bitmask),
    minor[S] = sum over j in S of (-1)^pos * M[n-k][j] * minor[S - {j}],
    pos being the number of columns of S left of j, and minor[{}] = 1. The
    2^n minors cost about n * 2^(n-1) products; zero entries and zero
    minors are skipped, and no intermediate result is larger than a minor
    of the matrix.

    The expansion runs on packed integer data. Each row is multiplied by
    the lcm of its coefficient denominators, so every entry is integral and
    the determinant is scaled by the product L of those lcms. A minor has
    total degree at most D, the sum over rows of the row's largest total
    degree, so ``_Packing`` words made for degree D add without carries.
    Minors are dicts from word to integer coefficient; the full minor is
    unpacked once, each coefficient as Fraction(c, L).

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
    packing = _Packing(len(varset), sum(max((sum(e) for entry in row for e in entry.terms),
                                            default=0) for row in matrix))
    # rows[r][j] = (entry, -entry) as lists of (word, integer coefficient)
    # pairs, or None for a zero entry; the sign of a cofactor picks one.
    rows = []
    scale = 1
    for row in matrix:
        lcm, scaled_row = _scaled(packing, row)
        scale *= lcm
        rows.append([(terms, [(w, -c) for w, c in terms]) if terms else None
                     for terms in scaled_row])
    minors: dict[int, dict[int, int]] = {0: {0: 1}}
    for row in reversed(rows):
        larger: dict[int, dict[int, int]] = {}
        for cols, minor in minors.items():
            minor_terms = minor.items()
            for j, signed in enumerate(row):
                if signed is None or cols >> j & 1:
                    continue
                acc = larger.setdefault(cols | 1 << j, {})
                get = acc.get
                for w1, c1 in signed[(cols & ((1 << j) - 1)).bit_count() & 1]:
                    for w2, c2 in minor_terms:
                        w = w1 + w2
                        acc[w] = get(w, 0) + c1 * c2
        minors = {}
        for cols, acc in larger.items():
            acc = {w: c for w, c in acc.items() if c}
            if acc:
                minors[cols] = acc
    unpack = packing.unpack
    return MPoly._of(varset, {unpack(w): Fraction(c, scale)
                              for w, c in minors.get((1 << n) - 1, {}).items()})


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
