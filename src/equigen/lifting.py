"""Order-by-order lifting of equisingular deformations across several
singular points, with the section bookkeeping that feeds it.

A configuration is a list of local models (a_j, b_j). It owns one global
scale per point, ``SingularConfig.d``: d_j = M / (b_j + 1) with
M = lcm(b_j + 1), so that all points reach their first obstruction order
t^M simultaneously. Every order below is read from it. Sections are
residue profiles on pole coordinates (j, m); a total order on those
coordinates induces the section order, a filtration, and a canonical basis
whose leading coordinates are pairwise distinct. Each basis element
contributes one polynomial star equation tying together the obstruction
polynomials of the points where its order is attained.

The lifting engine itself solves, order by order in t,

    fbar_{b+j}(c) = t^{d(b+j)} f_{b+j}(c_witness) + o_{b+j}(c)   mod t^{...}

for every point and equation index, correcting along an exact dual kernel
basis of the perturbed Jacobian. Perturbation providers supply the o-terms
as structured term lists validated against their admissible shapes.

Round k moves each c_i only at t^(d i + k), so the steps and the audit
read the residuals relaxed (``read_residual``): one evaluator per point
holds c_i, ct_i and c_i - ct_i as integer numerators over one denominator,
and product nodes, shared by the monomials of fbar and the o-terms, keep
the coefficients they have made. A read makes each coefficient once, as
soon as a check asks for it, and tests it for zero as an integer; a
correction patches the coefficient at its own offset. ``residual``
evaluates from scratch; the final closure check uses it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container, Mapping, Sequence, Union

from .expansion import LocalModel, big_f, f_bar, f_bar_jacobian_at, f_coeff
from .groebner import GStatus
from .polycore import MPoly, VarSet, _echelonize
from .series import TSeries

Pair = tuple[int, int]


@dataclass(frozen=True)
class SingularConfig:
    """The multiset of singular points of the curve, as local models."""

    points: tuple[LocalModel, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("configuration needs at least one point")

    @property
    def e(self) -> int:
        return len(self.points)

    @functools.cached_property
    def d(self) -> tuple[int, ...]:
        """The lift scales d_j = M / (b_j + 1), M = lcm(b_j + 1), in point order."""
        M = math.lcm(*(p.b + 1 for p in self.points))
        return tuple(M // (p.b + 1) for p in self.points)

    def model(self, j: int) -> LocalModel:
        if not 1 <= j <= self.e:
            raise ValueError(f"point index {j} outside 1..{self.e}")
        return self.points[j - 1]

    def validate_pair(self, pair: Pair) -> None:
        j, m = pair
        model = self.model(j)
        if not 1 <= m <= model.a - 1:
            raise ValueError(f"pole order m={m} outside 1..{model.a - 1} at point {j}")


def pair_value(config: SingularConfig, pair: Pair) -> int:
    """The obstruction order d_j * (b_j + a_j - m) attached to a pole coordinate."""
    config.validate_pair(pair)
    j, m = pair
    model = config.model(j)
    return config.d[j - 1] * (model.b + model.a - m)


def _pair_key(config: SingularConfig, pair: Pair) -> tuple[int, int]:
    """Sort key of the pair order (ascending): smaller attached value means
    larger pair; ties are broken by the larger point index."""
    return -pair_value(config, pair), pair[0]


@dataclass(frozen=True)
class SectionProfile:
    """A section given by its residue data: nonzero coefficients of the
    s_j^{-m} poles, indexed by pole coordinates (j, m)."""

    id: str
    residues: tuple[tuple[Pair, Fraction], ...]

    @staticmethod
    def of(id: str, residues: Mapping[Pair, Fraction | int | str]) -> "SectionProfile":
        items = []
        for pair, r in sorted(residues.items()):
            r = Fraction(r)
            if r:
                items.append(((int(pair[0]), int(pair[1])), r))
        return SectionProfile(id, tuple(items))

    @property
    def psupp(self) -> tuple[Pair, ...]:
        return tuple(p for p, _ in self.residues)


def validate_section(config: SingularConfig, section: SectionProfile) -> None:
    for pair in section.psupp:
        config.validate_pair(pair)


def _coordinate_order(config: SingularConfig) -> list[Pair]:
    """All pole coordinates sorted descending in the pair order (largest first)."""
    coords = [(j, m) for j in range(1, config.e + 1)
              for m in range(1, config.model(j).a - 1 + 1)]
    coords.sort(key=lambda pr: _pair_key(config, pr), reverse=True)
    return coords


@dataclass
class BasisEntry:
    section: SectionProfile
    leading: Pair
    ord: int


def build_section_basis(config: SingularConfig,
                        sections: Sequence[SectionProfile]) -> list[BasisEntry]:
    """Reduce the given sections to filtration representatives, echelonized
    and sorted by decreasing section order (ties by increasing point index).

    Linearly dependent inputs are a usage error; the error names the
    dependency. Each output entry descends from one input section and keeps
    its id; leading coordinates are pairwise distinct by construction.
    """
    if not sections:
        return []
    for s in sections:
        validate_section(config, s)
    ids = [s.id for s in sections]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate section ids: {ids}")
    coords = _coordinate_order(config)
    rows = [{p: r for p, r in s.residues} for s in sections]
    work, pivots, combos = _echelonize(coords, rows)
    entries = []
    for ri, row in enumerate(work):
        if not row:
            combo = " , ".join(f"{v} * {ids[oi]}" for oi, v in sorted(combos[ri].items()))
            raise ValueError(
                f"section {ids[ri]} is linearly dependent on the others: {combo} = 0")
        lead = coords[pivots[ri]]
        entries.append(BasisEntry(SectionProfile.of(ids[ri], row), lead,
                                  pair_value(config, lead)))
    entries.sort(key=lambda en: (-en.ord, en.leading[0]))
    return entries


@dataclass
class StarEquation:
    section_id: str
    ord: int
    contributors: list[tuple[Pair, Fraction]]
    poly: MPoly


@dataclass
class StarSystem:
    """One polynomial equation per basis section, over the joint block ring.

    The equation of a section collects the pole coordinates where its order
    is attained: sum over those (j, m) of a_j * residue * F_{-(a_j - m)}
    evaluated in the block variables of point j.
    """

    config: SingularConfig
    equations: list[StarEquation]


def build_star_system(config: SingularConfig, basis: list[BasisEntry]) -> StarSystem:
    joint = VarSet.blocks([p.a for p in config.points])
    equations = []
    for entry in basis:
        section = entry.section
        contributors = [(pair, r) for pair, r in section.residues
                        if pair_value(config, pair) == entry.ord]
        poly = MPoly.zero(joint)
        for (j, m), r in contributors:
            model = config.model(j)
            term = big_f(model, model.a - m) * (r * model.a)
            poly = poly + term.rename(joint, [f"c{k}_{j}" for k in range(2, model.a + 1)])
        equations.append(StarEquation(section.id, entry.ord, contributors, poly))
    return StarSystem(config, equations)


def star_satisfied(system: StarSystem, points: Sequence[Sequence[Fraction]]) -> bool:
    """Evaluate every star equation at per-point coefficient vectors."""
    config = system.config
    if len(points) != config.e:
        raise ValueError(f"need {config.e} coefficient vectors")
    flat: list[Fraction] = []
    for j, vec in enumerate(points, start=1):
        model = config.model(j)
        if len(vec) != model.a - 1:
            raise ValueError(f"point {j} needs {model.a - 1} coordinates")
        flat.extend(Fraction(v) for v in vec)
    return all(eq.poly.evaluate(flat) == 0 for eq in system.equations)


def dual_kernel_basis(model: LocalModel, point: Sequence[Fraction]) -> list[tuple[Fraction, ...]]:
    """Vectors v_1..v_{a-1} with d fbar_{b+l}(point)[v_j] = delta_{lj}.

    These are the columns of the exact inverse of the perturbed Jacobian at
    the point; existence is precisely the transversality condition, so a
    row without a pivot in the one elimination is a precondition error. The
    product J * V is verified to be exactly the identity.
    """
    point = tuple(Fraction(x) for x in point)
    n = model.a - 1
    jac = f_bar_jacobian_at(model, point)
    # Fully reduced rows are scaled unit rows; their combinations are J^-1.
    work, pivots, combos = _echelonize(range(n), jac)
    if None in pivots:
        raise ValueError(f"transversality fails at ({', '.join(map(str, point))}): "
                         "no dual kernel basis")
    inv = [None] * n
    for r, p in enumerate(pivots):
        inv[p] = [combos[r].get(i, Fraction(0)) / work[r][p] for i in range(n)]
    for i in range(n):
        for j in range(n):
            prod = sum(v * inv[k][j] for k, v in jac[i].items())
            if prod != (1 if i == j else 0):
                raise AssertionError("inverse verification failed")
    return [tuple(inv[i][j] for i in range(n)) for j in range(n)]


@dataclass(frozen=True)
class PerturbTerm1:
    """alpha * t^tpow * prod c_k^exps; admissible when
    tpow + ord(alpha) + d * sum(k * exps_k) >= d*(b+j) + 1."""

    alpha: Union[Fraction, TSeries]
    tpow: int
    exps: tuple[int, ...]


@dataclass(frozen=True)
class PerturbTerm2:
    """alpha * t^tpow * prod c_k^exps * (c_k1 - c_k1(seed)) * (c_k2 - c_k2(seed));
    admissible when tpow + ord(alpha) + d * sum(k * exps_k) >= d*(b+j) - d*(k1+k2)."""

    alpha: Union[Fraction, TSeries]
    tpow: int
    exps: tuple[int, ...]
    k1: int
    k2: int


PerturbTerm = Union[PerturbTerm1, PerturbTerm2]
# A provider returns the o-terms of equation eq at point j, given the state.
# The terms may depend on the coefficient series of any point, but not on
# the round state.k: lift_run serves a residual read again until the series
# it was read from change.
Provider = Callable[["LiftState", int, int], Sequence[PerturbTerm]]


class PerturbContractError(ValueError):
    """A provider returned a term outside the admissible shapes."""


def _term_alpha_ord(alpha: Union[Fraction, TSeries], modulus: int) -> int:
    if isinstance(alpha, TSeries):
        if alpha.modulus != modulus:
            raise PerturbContractError(f"term coefficient modulus {alpha.modulus} != {modulus}")
        return alpha.ord()
    return 0 if alpha else modulus


def validate_perturb_term(term: PerturbTerm, model: LocalModel, d: int, eq: int,
                          modulus: int) -> None:
    a, b = model.a, model.b
    if len(term.exps) != a - 1 or any(e < 0 for e in term.exps) or term.tpow < 0:
        raise PerturbContractError(f"malformed term {term!r}")
    weight = sum(k * e for k, e in zip(range(2, a + 1), term.exps))
    lower = term.tpow + _term_alpha_ord(term.alpha, modulus) + d * weight
    if isinstance(term, PerturbTerm1):
        bound = d * (b + eq) + 1
    else:
        if not (2 <= term.k1 <= a and 2 <= term.k2 <= a):
            raise PerturbContractError(f"difference factor index outside 2..{a} in {term!r}")
        bound = d * (b + eq) - d * (term.k1 + term.k2)
    if lower < bound:
        raise PerturbContractError(
            f"perturbation term violates its order bound "
            f"(needs >= {bound}, has {lower}): {term!r}")


def _eval_perturb(terms: Sequence[PerturbTerm], model: LocalModel, d: int, eq: int,
                  c: Sequence[TSeries], c_seed: Sequence[TSeries], modulus: int) -> TSeries:
    total = TSeries.zero(modulus)
    # Coefficient first: each term starts as alpha * t^tpow and multiplies in
    # c_i once per unit of its exponent, then each difference factor, so every
    # product already carries the term's t-valuation and stops at the modulus.
    for term in terms:
        validate_perturb_term(term, model, d, eq, modulus)
        if not term.alpha:
            continue
        if isinstance(term.alpha, TSeries):
            val = term.alpha * TSeries.t_power(term.tpow, modulus)
        else:
            val = TSeries.t_power(term.tpow, modulus, term.alpha)
        for ci, e in zip(c, term.exps):
            for _ in range(e):
                val = val * ci
        if isinstance(term, PerturbTerm2):
            for k in (term.k1, term.k2):
                val = val * (c[k - 2] - c_seed[k - 2])
        total = total + val
    return total


def zero_provider(state: "LiftState", j: int, eq: int) -> Sequence[PerturbTerm]:
    return ()


def random_provider(config: SingularConfig, seed: int) -> Provider:
    """Deterministic admissible perturbations, drawn once per (point, eq).

    The term lists are fixed at construction so repeated residual reads see
    the same equations; every term sits exactly at, or above, its shape's
    order bound.
    """
    import random

    table: dict[tuple[int, int], tuple[PerturbTerm, ...]] = {}
    for j in range(1, config.e + 1):
        model = config.model(j)
        d = config.d[j - 1]
        for eq in range(1, model.a):
            rng = random.Random(f"{seed}:{j}:{eq}")
            terms: list[PerturbTerm] = []
            for _ in range(rng.randint(1, 3)):
                exps = [0] * (model.a - 1)
                for _ in range(rng.randint(0, 2)):
                    exps[rng.randrange(model.a - 1)] += 1
                weight = sum(k * e for k, e in zip(range(2, model.a + 1), exps))
                tpow = max(0, d * (model.b + eq) + 1 - d * weight) + rng.randint(0, 2)
                alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                terms.append(PerturbTerm1(alpha, tpow, tuple(exps)))
            if rng.random() < 0.7:
                k1 = rng.randint(2, model.a)
                k2 = rng.randint(2, model.a)
                tpow = max(0, d * (model.b + eq) - d * (k1 + k2)) + rng.randint(0, 2)
                alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                terms.append(PerturbTerm2(alpha, tpow, (0,) * (model.a - 1), k1, k2))
            table[(j, eq)] = tuple(terms)

    def provider(state: LiftState, j: int, eq: int) -> Sequence[PerturbTerm]:
        return table[(j, eq)]

    return provider


@dataclass
class LiftState:
    """Current coefficient series of every point, plus the fixed seed data.

    Invariant: c[j][i-2] is congruent to t^{d_j * i} * witness_i mod
    t^{d_j * i + 1}, and every equation (j, eq) holds mod
    t^{min(d_j (b_j + eq) + k, K)}.

    ``targets[(j, eq)]`` is the constant t^{d_j (b_j + eq)} f_{b_j+eq}(witness_j),
    computed once per lift.
    """

    config: SingularConfig
    c: list[list[TSeries]]
    c_seed: list[list[TSeries]]
    kernels: list[list[tuple[Fraction, ...]]]
    k: int
    modulus: int
    targets: dict[tuple[int, int], TSeries]

    def __post_init__(self) -> None:
        # The relaxed evaluator of each point read so far (see
        # read_residual); not a field, so not compared or printed.
        self.relaxed: dict[int, _RelaxedPoint] = {}

    def closed_modulus(self, j: int, eq: int, k: int | None = None) -> int:
        model = self.config.model(j)
        return min(self.config.d[j - 1] * (model.b + eq) + (self.k if k is None else k),
                   self.modulus)


def make_lift_state(config: SingularConfig, witnesses: Sequence[Sequence[Fraction]],
                    modulus: int) -> LiftState:
    """Seed the lift at c_i^{(j)} = t^{d_j i} * witness_i; the seeded state
    satisfies every equation mod t^{d_j (b_j + eq) + 1} (k = 1)."""
    if len(witnesses) != config.e:
        raise ValueError(f"need {config.e} witness points")
    wit = [tuple(Fraction(x) for x in w) for w in witnesses]
    kernels = []
    c: list[list[TSeries]] = []
    targets: dict[tuple[int, int], TSeries] = {}
    for j in range(1, config.e + 1):
        model = config.model(j)
        if len(wit[j - 1]) != model.a - 1:
            raise ValueError(f"witness {j} needs {model.a - 1} coordinates")
        d = config.d[j - 1]
        if modulus < d * (model.b + 1):
            raise ValueError(
                f"modulus {modulus} below first obstruction order {d * (model.b + 1)} at point {j}")
        kernels.append(dual_kernel_basis(model, wit[j - 1]))
        c.append([TSeries.t_power(d * i, modulus, wi)
                  for i, wi in zip(range(2, model.a + 1), wit[j - 1])])
        for eq in range(1, model.a):
            value = f_coeff(model, model.b, model.b + eq).evaluate(wit[j - 1])
            targets[(j, eq)] = TSeries.t_power(d * (model.b + eq), modulus, value)
    return LiftState(config, c, [list(v) for v in c], kernels, 1, modulus, targets)


def residual(state: LiftState, providers: Provider, j: int, eq: int) -> TSeries:
    """fbar_{b+eq}(c) - t^{d(b+eq)} f_{b+eq}(witness) - o_{b+eq}(c) at point j,
    computed from scratch with one call of the provider."""
    model = state.config.model(j)
    d = state.config.d[j - 1]
    c = state.c[j - 1]
    # VarSet.doubled: c2..ca, then the comparison copy ct2..cta.
    fbar_val = f_bar(model, eq).evaluate(c + state.c_seed[j - 1])
    o_val = _eval_perturb(providers(state, j, eq), model, d, eq, c, state.c_seed[j - 1],
                          state.modulus)
    return fbar_val - state.targets[(j, eq)] - o_val


# Leaf kinds, in the order a product multiplies them in: the seed copy ct_i,
# c_i, the difference c_i - ct_i, and a fixed series (a series alpha). Seed
# factors come first, so a product of them alone is made once, and a fixed
# series last, so the products before it are shared.
_SEED, _C, _DIFF, _FIXED = range(4)


class _Series:
    """A relaxed series of one lift point: for n < len(num), the coefficient
    of t^(base + n) is num[n] / (D**deg * den), D the point's denominator.

    A leaf (``left`` is None) holds every coefficient below the modulus, and
    ``rev``, its numerators reversed. A product node is ``left * right``,
    ``right`` a leaf, and makes its coefficients in order as reads ask for
    them.
    """

    __slots__ = ("base", "size", "deg", "den", "num", "rev", "left", "right")

    def __init__(self, base: int, deg: int, den: int, modulus: int, num: Sequence[int] = (),
                 left: "_Series | None" = None, right: "_Series | None" = None):
        self.base, self.deg, self.den = base, deg, den
        self.size = max(modulus - base, 0)
        self.left, self.right = left, right
        self.num = list(num[:self.size])
        if left is None:
            self.num += [0] * (self.size - len(self.num))
            self.rev = self.num[::-1]


class _Sum:
    """One equation's residual as a sum of scalar multiples of nodes, a
    node's coefficient n at t^(off + n). Coefficient p is an int over
    B * S * D**dm: B the lcm of the scalars' denominators, S that of the
    nodes' dens and dm their largest deg. Every coefficient below ``z`` is
    known to be zero.
    """

    __slots__ = ("parts", "lcm_s", "den", "dm", "lo", "z", "D", "scaled")

    def __init__(self, parts: list[tuple[Fraction, _Series, int]], modulus: int):
        parts = [(s, node, shift + node.base) for s, node, shift in parts
                 if shift + node.base < modulus]
        lcm_b = math.lcm(*(s.denominator for s, _, _ in parts))
        self.lcm_s = math.lcm(*(node.den for _, node, _ in parts))
        self.den = lcm_b * self.lcm_s
        self.dm = max((node.deg for _, node, _ in parts), default=0)
        self.parts = [(s.numerator * (lcm_b // s.denominator), node, off)
                      for s, node, off in parts]
        self.lo = self.z = min((off for _, _, off in parts), default=modulus)
        self.D = 0
        self.scaled: list[tuple[int, _Series, int]] = []


class _RelaxedPoint:
    """The relaxed evaluator of one point of a lift (van der Hoeven, "Relax,
    but don't be too lazy", J. Symbolic Comput. 34, 2002).

    It mirrors the point's series c_i, ct_i and c_i - ct_i as leaves over
    one denominator D, each from its base, the least of d*i and the
    valuations of c_i and ct_i, so that a correction of round k lands at
    offset k. Product nodes are keyed by their multiset of leaves and
    shared by the monomials of fbar and the perturbation terms, and keep
    the coefficients they have made; ``products`` counts them. A correction
    patches each node that has its leaf at its offset and drops what lies
    above. A correction whose denominator does not divide D grows D and
    rescales the stored numerators.
    """

    def __init__(self, state: LiftState, j: int):
        self.model = state.config.model(j)
        self.d = state.config.d[j - 1]
        self.modulus = K = state.modulus
        # The mirrored series: c_2..c_a, then ct_2..ct_a.
        self.series = state.c[j - 1] + state.c_seed[j - 1]
        self.D = math.lcm(*(q.denominator for s in self.series for q in s.coeffs))
        self.leaves: dict[tuple, _Series] = {}
        n = self.model.a - 1
        for i, now, seed in zip(range(2, n + 2), self.series, self.series[n:]):
            base = min(self.d * i, now.ord(), seed.ord())
            now, seed = self._over(now, base), self._over(seed, base)
            self.leaves[(_C, i)] = _Series(base, 1, 1, K, now)
            self.leaves[(_SEED, i)] = _Series(base, 1, 1, K, seed)
            self.leaves[(_DIFF, i)] = _Series(base, 1, 1, K, list(map(int.__sub__, now, seed)))
        self.one = _Series(0, 0, 1, K, [1])
        # Validated terms by (eq, id), kept so that their ids, and those of
        # their series alphas, stay unique.
        self.checked: dict[tuple[int, int], PerturbTerm] = {}
        self.nodes: dict[tuple, _Series] = {}
        # The products with a factor c_i or c_i - ct_i, by i, in the order
        # they were made: each after its left factor.
        self.users: dict[int, list[_Series]] = {}
        self.sums: dict[int, tuple[tuple[int, ...], _Sum]] = {}
        self.moves = 0
        self.products = 0

    def mirrors(self, state: LiftState, j: int) -> bool:
        """Whether the point's series are still the objects this mirrors."""
        return (state.modulus == self.modulus
                and list(map(id, state.c[j - 1] + state.c_seed[j - 1]))
                == list(map(id, self.series)))

    def _over(self, series: TSeries, base: int) -> list[int]:
        """The coefficients of ``series`` from t^base as numerators over D."""
        D = self.D
        return [q.numerator * (D // q.denominator) for q in series.coeffs[base:]]

    def _node(self, key: tuple) -> _Series:
        """The product of the leaves ``key``, sorted by kind: the product of
        all but the last, times the last."""
        if len(key) < 2:
            return self.leaves[key[0]] if key else self.one
        node = self.nodes.get(key)
        if node is None:
            left, right = self._node(key[:-1]), self.leaves[key[-1]]
            node = self.nodes[key] = _Series(left.base + right.base, left.deg + right.deg,
                                             left.den * right.den, self.modulus,
                                             left=left, right=right)
            for i in {i for kind, i in key if kind in (_C, _DIFF)}:
                self.users.setdefault(i, []).append(node)
        return node

    def _upto(self, node: _Series, n: int) -> list[int]:
        """The numerators of ``node``, made up to n where they stop short:
        each is one dot product of the left factor with the reversed leaf."""
        num = node.num
        if len(num) <= n:
            left = self._upto(node.left, n)
            rev, top = node.right.rev, node.right.size - 1
            self.products += n + 1 - len(num)
            for m in range(len(num), n + 1):
                num.append(sum(map(int.__mul__, left, rev[top - m:])))
        return num

    def read(self, eq: int, terms: Sequence[PerturbTerm], target: TSeries) -> "ResidualRead":
        """A read of equation eq with these o-terms, each validated once."""
        terms = tuple(terms)
        for term in terms:
            if (eq, id(term)) not in self.checked:
                validate_perturb_term(term, self.model, self.d, eq, self.modulus)
                self.checked[(eq, id(term))] = term
        key = tuple(map(id, terms))
        held = self.sums.get(eq)
        if held is None or held[0] != key:
            held = self.sums[eq] = (key, self._sum(eq, terms, target))
        return ResidualRead(self, held[1])

    def _sum(self, eq: int, terms: Sequence[PerturbTerm], target: TSeries) -> _Sum:
        a, K = self.model.a, self.modulus
        parts = []
        # The target t^{d(b+eq)} f_{b+eq}(witness): a scalar at each of its
        # nonzero coefficients.
        for p in range(target.ord(), K):
            value = target.coeff(p)
            if value:
                parts.append((-value, self.one, p))
        for e, coeff in f_bar(self.model, eq).terms.items():
            # Doubled ring: c2..ca, then ct2..cta.
            key = tuple((kind, i) for kind, half in ((_SEED, e[a - 1:]), (_C, e[:a - 1]))
                        for i, n in zip(range(2, a + 1), half) for _ in range(n))
            parts.append((coeff, self._node(key), 0))
        for term in terms:
            if not term.alpha:
                continue
            key = tuple((_C, i) for i, n in zip(range(2, a + 1), term.exps) for _ in range(n))
            if isinstance(term, PerturbTerm2):
                key += tuple(sorted([(_DIFF, term.k1), (_DIFF, term.k2)]))
            alpha = term.alpha
            if isinstance(alpha, TSeries):
                # One more leaf, last, over its own denominator.
                fixed = (_FIXED, id(alpha))
                if fixed not in self.leaves:
                    coeffs = alpha.coeffs
                    den = math.lcm(*(q.denominator for q in coeffs))
                    self.leaves[fixed] = _Series(
                        alpha.ord(), 0, den, K,
                        [q.numerator * (den // q.denominator) for q in coeffs[alpha.ord():]])
                key += (fixed,)
                alpha = 1
            parts.append((-Fraction(alpha), self._node(key), term.tpow))
        return _Sum(parts, K)

    def sum_num(self, s: _Sum, p: int) -> int:
        """Coefficient p of the sum, as its numerator over s.den * D**s.dm."""
        if s.D != self.D:
            D = s.D = self.D
            s.scaled = [(a * D ** (s.dm - node.deg) * (s.lcm_s // node.den), node, off)
                        for a, node, off in s.parts]
        return sum([a * self._upto(node, p - off)[p - off]
                    for a, node, off in s.scaled if off <= p])

    def move(self, i: int, pos: int, value: Fraction, new: TSeries) -> None:
        """Add ``value`` at t^pos to c_i, whose series is now ``new``."""
        q = value.denominator
        if self.D % q:
            self._grow(math.lcm(self.D, q) // self.D)
        v = value.numerator * (self.D // q)
        now = self.leaves[(_C, i)]
        o = pos - now.base
        if o < now.size:
            # The leaves of c_i move by v at offset o. Above offset 0 a
            # product P * L then moves there by dP[o] * L[0] + P[0] * dL[o],
            # and is cut above it.
            delta = {}
            for leaf in (now, self.leaves[(_DIFF, i)]):
                leaf.num[o] += v
                leaf.rev[leaf.size - 1 - o] = leaf.num[o]
                delta[leaf] = v
            for node in self.users.get(i, ()):
                num = node.num
                if len(num) > o:
                    if not o:
                        del num[:]
                        continue
                    left, right = node.left, node.right
                    dn = delta.get(left, 0) * right.num[0] + left.num[0] * delta.get(right, 0)
                    num[o] += dn
                    delta[node] = dn
                    del num[o + 1:]
            for _, s in self.sums.values():
                s.z = min(s.z, s.lo + o)
        self.series[i - 2] = new
        self.moves += 1

    def _grow(self, g: int) -> None:
        """D *= g: every stored numerator times g**deg."""
        self.D *= g
        for node in [*self.leaves.values(), *self.nodes.values()]:
            if node.deg:
                f = g ** node.deg
                node.num[:] = [x * f for x in node.num]
                if node.left is None:
                    node.rev[:] = node.num[::-1]


class ResidualRead:
    """A read of one equation's residual fbar - target - o, made one
    coefficient at a time by its point's relaxed evaluator, from the prefix
    already known to be zero. It holds until the point's series move."""

    __slots__ = ("_point", "_sum", "_moves")

    def __init__(self, point: _RelaxedPoint, s: _Sum):
        self._point, self._sum, self._moves = point, s, point.moves

    def _current(self) -> _RelaxedPoint:
        if self._point.moves != self._moves:
            raise ValueError("residual read made before its point's series moved")
        return self._point

    def order(self, window: int) -> int:
        """The residual's t-adic order if it is below ``window`` (at most the
        modulus), else ``window``."""
        point, s = self._current(), self._sum
        while s.z < window:
            if point.sum_num(s, s.z):
                return s.z
            s.z += 1
        return window

    def coeff(self, n: int) -> Fraction:
        """The residual's t^n coefficient, n below the modulus."""
        point, s = self._current(), self._sum
        if n < s.z:
            return Fraction(0)
        return Fraction(point.sum_num(s, n), s.den * point.D ** s.dm)


def _relaxed(state: LiftState, j: int) -> _RelaxedPoint:
    """Point j's evaluator, made again if its series are no longer the ones
    it mirrors."""
    point = state.relaxed.get(j)
    if point is None or not point.mirrors(state, j):
        point = state.relaxed[j] = _RelaxedPoint(state, j)
    return point


def read_residual(state: LiftState, providers: Provider, j: int, eq: int) -> ResidualRead:
    """The residual of ``residual`` as a relaxed read, with one call of the
    provider."""
    point = _relaxed(state, j)
    return point.read(eq, providers(state, j, eq), state.targets[(j, eq)])


def lift_point_step(state: LiftState, providers: Provider, j: int,
                    read: dict[int, ResidualRead]) -> None:
    """Close order k for every equation of point j.

    Each equation's defect at t^{d(b+eq)+k} is cancelled by moving the
    coefficients along the dual kernel vector scaled by t^{d i + k}; lower
    equations stay closed because the kernel vectors are exact.

    ``read`` maps eq to a residual read of point j at the current state. The
    step uses it where it holds one and adds each fresh read to it; a read
    makes only the coefficients the step asks for, up to t^{d(b+eq)+k}. A
    correction moves c[j-1] and the point's relaxed evaluator with it, and
    empties ``read``.
    """
    model = state.config.model(j)
    d = state.config.d[j - 1]
    K = state.modulus
    k = state.k
    for eq in range(1, model.a):
        bar_order = state.closed_modulus(j, eq)
        if bar_order >= K:
            continue
        res = read.get(eq)
        if res is None:
            res = read[eq] = read_residual(state, providers, j, eq)
        order = res.order(bar_order + 1)
        if order < bar_order:
            raise ValueError(
                f"state violates its invariant at point {j}, equation {eq}: "
                f"residual order {order} < {bar_order}")
        if order > bar_order:
            continue
        defect = res.coeff(bar_order)
        read.clear()
        point = _relaxed(state, j)
        c = state.c[j - 1]
        vec = state.kernels[j - 1][eq - 1]
        for i, w in zip(range(2, model.a + 1), vec):
            if w:
                value = -defect * w
                c[i - 2] = c[i - 2] + TSeries.t_power(d * i + k, K, value)
                point.move(i, d * i + k, value, c[i - 2])


@dataclass
class LiftAuditEntry:
    k: int
    stepped_point: int
    observed_point: int
    eq: int
    closed_modulus: int
    closed: bool


@dataclass
class LiftReport:
    state: LiftState
    steps: int
    residual_orders: dict[tuple[int, int], int]
    audit: list[LiftAuditEntry]
    history: list[tuple[int, list[list[TSeries]]]]

    @property
    def audit_ok(self) -> bool:
        return all(en.closed for en in self.audit)


def lift_run(config: SingularConfig | LocalModel, witnesses, modulus: int,
             providers: Provider | None = None) -> LiftReport:
    """Drive the lift to the working modulus, one order per round.

    Rounds sweep the points in index order (round-robin). After each
    per-point sub-step, every other equation (l, eq) is checked against the
    state invariant (the non-interference audit): one entry per equation,
    one fresh ``read_residual``, closed when its order reaches the modulus
    the invariant promises at that stage (round k + 1 for points already
    stepped, k for the rest). Runs until every equation is closed mod
    t^modulus; with the modulus at or below the first obstruction order the
    seed is already final and no corrections happen. The final closure
    check recomputes every residual from scratch through ``residual``.

    The steps and the audit read relaxed: each point's evaluator keeps the
    product coefficients it has made, a correction of round k patches them
    at offset k, and a read makes the coefficients from the prefix already
    known to be zero up to the order it checks, so a round makes about one
    new coefficient per product node. Each point keeps the reads made since
    its series last moved, and its next step starts from them: the audit's
    reads of a point replace them, and a step's reads after its last
    correction stay. So the provider's terms must depend on the coefficient
    series alone, not on the round ``state.k``; a provider that changes
    with k can leave an order open, which the final closure check reports.
    """
    if isinstance(config, LocalModel):
        config = SingularConfig((config,))
        witnesses = [witnesses]
    if providers is None:
        providers = zero_provider
    state = make_lift_state(config, witnesses, modulus)
    history: list[tuple[int, list[list[TSeries]]]] = [(0, [list(v) for v in state.c])]
    audit: list[LiftAuditEntry] = []
    reads: list[dict[int, ResidualRead]] = [{} for _ in config.points]
    # Some equation is still open in round k while the lowest first
    # obstruction order plus k is below the modulus.
    first = min(d * (p.b + 1) for d, p in zip(config.d, config.points))
    steps = 0
    while first + state.k < modulus:
        k = state.k
        for j in range(1, config.e + 1):
            lift_point_step(state, providers, j, reads[j - 1])
            for l in range(1, config.e + 1):
                if l == j:
                    continue
                reads[l - 1] = {}
                for eq in range(1, config.model(l).a):
                    cm = state.closed_modulus(l, eq, k + 1 if l < j else k)
                    res = reads[l - 1][eq] = read_residual(state, providers, l, eq)
                    audit.append(LiftAuditEntry(k, j, l, eq, cm, res.order(cm) >= cm))
        state.k += 1
        steps += 1
        history.append((state.k - 1, [list(v) for v in state.c]))

    orders = {}
    for j in range(1, config.e + 1):
        for eq in range(1, config.model(j).a):
            orders[(j, eq)] = residual(state, providers, j, eq).ord()
            if orders[(j, eq)] < state.closed_modulus(j, eq):
                raise AssertionError(
                    f"final residual at point {j}, eq {eq} not closed: "
                    f"order {orders[(j, eq)]} < {state.closed_modulus(j, eq)}")
    return LiftReport(state, steps, orders, audit, history)


def check_d(model: LocalModel, dim_twisted: int, dim_plain: int) -> bool:
    """Dimension drop condition at one point: the twisted linear system must
    lose less than a_j - 1 relative to the plain one."""
    if dim_twisted < 0 or dim_plain < 0:
        raise ValueError("dimensions must be nonnegative")
    return dim_twisted < dim_plain + model.a - 1


def polar_cover_table(config: SingularConfig, sections: Sequence[SectionProfile]
                      ) -> dict[int, set[int]]:
    """I_j = the set of pole orders m at point j realized by a section of the
    span with polar support exactly {(j, m)}.

    The span holds the unit vector at (j, m) iff a fully reduced row is
    supported exactly there (rows without a pivot reduce to zero)."""
    coords = _coordinate_order(config)
    rows = [{p: r for p, r in s.residues} for s in sections]
    work, pivots, _ = _echelonize(coords, rows)
    table: dict[int, set[int]] = {j: set() for j in range(1, config.e + 1)}
    for row, piv in zip(work, pivots):
        if piv is not None and len(row) == 1:
            j, m = coords[piv]
            table[j].add(m)
    return table


def choose_l(config: SingularConfig, sections: Sequence[SectionProfile]) -> list[int | None]:
    """The per-point pole-order certificate used to seed a deformation.

    For each point: if no singleton-support pole order exists, or the
    smallest exceeds 1, take l_j = 1; if the smallest is 1, take the least
    order in 1..a_j-1 that is NOT realized. None marks a point where every
    order is realized (no admissible choice; the deformation construction
    seeds that point with zero instead)."""
    table = polar_cover_table(config, sections)
    out: list[int | None] = []
    for j in range(1, config.e + 1):
        model = config.model(j)
        realized = table[j]
        if not realized or min(realized) > 1:
            out.append(1)
            continue
        free = sorted(set(range(1, model.a)) - realized)
        out.append(free[0] if free else None)
    return out


@dataclass
class DeformVerdict:
    status: str  # "deforms" | "does_not_deform" | "unknown"
    reason: str
    certificate: list[int | None] | None = None


def check_verdict_input(config: SingularConfig, sections: Sequence[SectionProfile],
                        dims: Mapping[int, tuple[int, int]] | None,
                        g_points: Container[int]) -> None:
    """Raise ``ValueError`` on input that ``deform_verdict`` cannot decide:
    a section outside the configuration or, unless every a_j = 2, a point
    with a_j >= 3 that lacks dims[j] or is not among ``g_points``, the
    points that have a genericity status."""
    for s in sections:
        validate_section(config, s)
    if all(p.a == 2 for p in config.points):
        return
    missing = []
    for j in range(1, config.e + 1):
        if config.model(j).a == 2:
            continue
        if dims is None or j not in dims:
            missing.append(f"dims[{j}]")
        if j not in g_points:
            missing.append(f"g_table[{j}]")
    if missing:
        raise ValueError(f"general criterion needs {', '.join(missing)}")


def deform_verdict(config: SingularConfig, sections: Sequence[SectionProfile],
                   dims: Mapping[int, tuple[int, int]] | None,
                   g_table: Mapping[int, GStatus] | None,
                   nbar_nonzero: bool = False) -> DeformVerdict:
    """Decide first-order deformability of the configuration.

    For configurations of double points (every a_j = 2) the decision is
    total: the curve deforms iff some point carries no section with polar
    support exactly there, or the residual pairing class is nonzero (the
    caller-supplied flag). Otherwise the criterion is one-directional:
    every point must pass the dimension condition (dims[j] = (twisted,
    plain)) and have genericity status "holds" (g_table[j]); any miss is
    reported as unknown, never as a refusal.
    """
    check_verdict_input(config, sections, dims, g_table or {})
    if all(p.a == 2 for p in config.points):
        # With every a_j = 2, choose_l gives l_j = 1 at an uncovered point
        # and None at a covered one.
        cert = choose_l(config, sections)
        uncovered = [j for j, l in enumerate(cert, 1) if l is not None]
        if uncovered:
            return DeformVerdict(
                "deforms",
                f"points {uncovered} carry no section with polar support exactly there",
                cert)
        if nbar_nonzero:
            return DeformVerdict(
                "deforms",
                "every point is covered but the residual pairing class is nonzero",
                cert)
        return DeformVerdict(
            "does_not_deform",
            "every point carries a dedicated polar section and the residual pairing class vanishes",
            cert)

    failures = []
    for j in range(1, config.e + 1):
        model = config.model(j)
        if model.a == 2:
            continue
        tw, pl = dims[j]
        if not check_d(model, tw, pl):
            failures.append(f"dimension condition fails at point {j}")
        status = g_table[j]
        if status is not GStatus.HOLDS:
            failures.append(f"genericity {status.value} at point {j}")
    if not failures:
        return DeformVerdict(
            "deforms",
            "every point passes the dimension condition and genericity",
            choose_l(config, sections))
    return DeformVerdict("unknown", "; ".join(failures) + " (criterion is one-directional)")
