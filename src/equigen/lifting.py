"""Order-by-order lifting of equisingular deformations across several
singular points, with the section bookkeeping that feeds it.

A configuration is a list of local models (a_j, b_j). Global weights give
each point a scale d_j = M / (b_j + 1) with M = lcm(b_j + 1), so that all
points reach their first obstruction order simultaneously. Sections are
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

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

    def model(self, j: int) -> LocalModel:
        if not 1 <= j <= self.e:
            raise ValueError(f"point index {j} outside 1..{self.e}")
        return self.points[j - 1]

    def validate_pair(self, pair: Pair) -> None:
        j, m = pair
        model = self.model(j)
        if not 1 <= m <= model.a - 1:
            raise ValueError(f"pole order m={m} outside 1..{model.a - 1} at point {j}")


@dataclass(frozen=True)
class Weights:
    """Common obstruction scale: M = lcm(b_j + 1), d_j = M / (b_j + 1)."""

    M: int
    d: tuple[int, ...]


def compute_weights(config: SingularConfig) -> Weights:
    M = 1
    for p in config.points:
        M = math.lcm(M, p.b + 1)
    return Weights(M, tuple(M // (p.b + 1) for p in config.points))


def pair_value(config: SingularConfig, weights: Weights, pair: Pair) -> int:
    """The obstruction order d_j * (b_j + a_j - m) attached to a pole coordinate."""
    config.validate_pair(pair)
    j, m = pair
    model = config.model(j)
    return weights.d[j - 1] * (model.b + model.a - m)


def pair_compare(config: SingularConfig, p1: Pair, p2: Pair) -> int:
    """Total order on pole coordinates: smaller attached value means larger
    pair; ties are broken by the larger point index. Returns -1, 0, or 1."""
    w = compute_weights(config)
    v1, v2 = pair_value(config, w, p1), pair_value(config, w, p2)
    if v1 != v2:
        return 1 if v1 < v2 else -1
    if p1[0] != p2[0]:
        return 1 if p1[0] > p2[0] else -1
    return 0


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

    def residue(self, pair: Pair) -> Fraction:
        for p, r in self.residues:
            if p == pair:
                return r
        return Fraction(0)


def validate_section(config: SingularConfig, section: SectionProfile) -> None:
    for pair in section.psupp:
        config.validate_pair(pair)


def section_ord(config: SingularConfig, section: SectionProfile) -> tuple[Pair | None, int | float]:
    """Leading pole coordinate P (the largest in the pair order) and the
    section order, the minimum attached value over the polar support.
    The empty support has no P and infinite order."""
    validate_section(config, section)
    if not section.psupp:
        return None, math.inf
    w = compute_weights(config)
    best = max(section.psupp,
               key=lambda pr: (-pair_value(config, w, pr), pr[0]))
    return best, pair_value(config, w, best)


def _coordinate_order(config: SingularConfig) -> list[Pair]:
    """All pole coordinates sorted descending in the pair order (largest first)."""
    w = compute_weights(config)
    coords = [(j, m) for j in range(1, config.e + 1)
              for m in range(1, config.model(j).a - 1 + 1)]
    coords.sort(key=lambda pr: (-pair_value(config, w, pr), pr[0]), reverse=True)
    return coords


@dataclass
class BasisEntry:
    section: SectionProfile
    leading: Pair
    ord: int


@dataclass
class SectionBasis:
    """Echelonized representatives with pairwise distinct leading coordinates,
    sorted by decreasing section order (ties by increasing point index)."""

    config: SingularConfig
    entries: list[BasisEntry]


def build_section_basis(config: SingularConfig, sections: Sequence[SectionProfile]) -> SectionBasis:
    """Reduce the given sections to filtration representatives.

    Linearly dependent inputs are a usage error; the error names the
    dependency. Each output entry descends from one input section and keeps
    its id; leading coordinates are pairwise distinct by construction.
    """
    if not sections:
        return SectionBasis(config, [])
    for s in sections:
        validate_section(config, s)
    ids = [s.id for s in sections]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate section ids: {ids}")
    coords = _coordinate_order(config)
    rows = [{p: r for p, r in s.residues} for s in sections]
    work, pivots, combos = _echelonize(coords, rows)
    w = compute_weights(config)
    entries = []
    for ri, row in enumerate(work):
        if not row:
            combo = " , ".join(f"{v} * {ids[oi]}" for oi, v in sorted(combos[ri].items()))
            raise ValueError(
                f"section {ids[ri]} is linearly dependent on the others: {combo} = 0")
        lead = coords[pivots[ri]]
        entries.append(BasisEntry(SectionProfile.of(ids[ri], row), lead,
                                  pair_value(config, w, lead)))
    entries.sort(key=lambda en: (-en.ord, en.leading[0]))
    return SectionBasis(config, entries)


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
    varset: VarSet
    equations: list[StarEquation]


def _block_embed(config: SingularConfig, joint: VarSet, j: int, p: MPoly) -> MPoly:
    """Map a polynomial in the single-point ring of point j into the joint ring."""
    model = config.model(j)
    names = [f"c{k}_{j}" for k in range(2, model.a + 1)]
    out = MPoly.zero(joint)
    for exps, coeff in p.terms.items():
        full = [0] * len(joint)
        for name, e in zip(names, exps):
            full[joint.index(name)] = e
        out = out + MPoly.monomial(joint, tuple(full), coeff)
    return out


def build_star_system(config: SingularConfig, basis: SectionBasis) -> StarSystem:
    joint = VarSet.blocks([p.a for p in config.points])
    w = compute_weights(config)
    equations = []
    for entry in basis.entries:
        section = entry.section
        contributors = [(pair, section.residue(pair)) for pair in section.psupp
                        if pair_value(config, w, pair) == entry.ord]
        poly = MPoly.zero(joint)
        for (j, m), r in contributors:
            model = config.model(j)
            term = big_f(model, model.a - m) * (r * model.a)
            poly = poly + _block_embed(config, joint, j, term)
        equations.append(StarEquation(section.id, entry.ord, contributors, poly))
    return StarSystem(config, joint, equations)


def star_satisfied(system: StarSystem, points: Sequence[Sequence[Fraction]]) -> bool:
    """Evaluate every star equation at per-point coefficient vectors."""
    config = system.config
    if len(points) != config.e:
        raise ValueError(f"need {config.e} coefficient vectors")
    values: dict[str, Fraction] = {}
    for j in range(1, config.e + 1):
        model = config.model(j)
        vec = points[j - 1]
        if len(vec) != model.a - 1:
            raise ValueError(f"point {j} needs {model.a - 1} coordinates")
        for k, v in zip(range(2, model.a + 1), vec):
            values[f"c{k}_{j}"] = Fraction(v)
    return all(eq.poly.evaluate(values) == 0 for eq in system.equations)


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
        raise ValueError(f"transversality fails at {point}: no dual kernel basis")
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
    for term in terms:
        validate_perturb_term(term, model, d, eq, modulus)
        val = TSeries.t_power(term.tpow, modulus) * term.alpha
        for ci, e in zip(c, term.exps):
            if e:
                val = val * ci ** e
        if isinstance(term, PerturbTerm2):
            val = val * (c[term.k1 - 2] - c_seed[term.k1 - 2])
            val = val * (c[term.k2 - 2] - c_seed[term.k2 - 2])
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

    weights = compute_weights(config)
    table: dict[tuple[int, int], tuple[PerturbTerm, ...]] = {}
    for j in range(1, config.e + 1):
        model = config.model(j)
        d = weights.d[j - 1]
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
            if model.a >= 2 and rng.random() < 0.7:
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
    """

    config: SingularConfig
    weights: Weights
    witnesses: list[tuple[Fraction, ...]]
    c: list[list[TSeries]]
    c_seed: list[list[TSeries]]
    kernels: list[list[tuple[Fraction, ...]]]
    k: int
    modulus: int

    def closed_modulus(self, j: int, eq: int, k: int | None = None) -> int:
        model = self.config.model(j)
        return min(self.weights.d[j - 1] * (model.b + eq) + (self.k if k is None else k),
                   self.modulus)


def make_lift_state(config: SingularConfig, witnesses: Sequence[Sequence[Fraction]],
                    modulus: int) -> LiftState:
    """Seed the lift at c_i^{(j)} = t^{d_j i} * witness_i; the seeded state
    satisfies every equation mod t^{d_j (b_j + eq) + 1} (k = 1)."""
    if len(witnesses) != config.e:
        raise ValueError(f"need {config.e} witness points")
    weights = compute_weights(config)
    wit = [tuple(Fraction(x) for x in w) for w in witnesses]
    kernels = []
    c: list[list[TSeries]] = []
    for j in range(1, config.e + 1):
        model = config.model(j)
        if len(wit[j - 1]) != model.a - 1:
            raise ValueError(f"witness {j} needs {model.a - 1} coordinates")
        d = weights.d[j - 1]
        if modulus < d * (model.b + 1):
            raise ValueError(
                f"modulus {modulus} below first obstruction order {d * (model.b + 1)} at point {j}")
        kernels.append(dual_kernel_basis(model, wit[j - 1]))
        c.append([TSeries.t_power(d * i, modulus, wi)
                  for i, wi in zip(range(2, model.a + 1), wit[j - 1])])
    return LiftState(config, weights, wit, c, [list(v) for v in c], kernels, 1, modulus)


def residual(state: LiftState, providers: Provider, j: int, eq: int) -> TSeries:
    """fbar_{b+eq}(c) - t^{d(b+eq)} f_{b+eq}(witness) - o_{b+eq}(c) at point j."""
    model = state.config.model(j)
    d = state.weights.d[j - 1]
    K = state.modulus
    values: dict[str, TSeries] = {}
    for k_idx in range(2, model.a + 1):
        values[f"c{k_idx}"] = state.c[j - 1][k_idx - 2]
        values[f"ct{k_idx}"] = state.c_seed[j - 1][k_idx - 2]
    fbar_val = f_bar(model, eq).evaluate(values)
    if not isinstance(fbar_val, TSeries):
        fbar_val = TSeries.constant(fbar_val, K)
    wit_values = {f"c{k_idx}": w for k_idx, w in zip(range(2, model.a + 1), state.witnesses[j - 1])}
    target = TSeries.t_power(d * (model.b + eq), K,
                             f_coeff(model, model.b, model.b + eq).evaluate(wit_values))
    o_val = _eval_perturb(providers(state, j, eq), model, d, eq,
                          state.c[j - 1], state.c_seed[j - 1], K)
    return fbar_val - target - o_val


def lift_point_step(state: LiftState, providers: Provider, j: int) -> None:
    """Close order k for every equation of point j.

    Each equation's defect at t^{d(b+eq)+k} is cancelled by moving the
    coefficients along the dual kernel vector scaled by t^{d i + k}; lower
    equations stay closed because the kernel vectors are exact.
    """
    model = state.config.model(j)
    d = state.weights.d[j - 1]
    K = state.modulus
    k = state.k
    for eq in range(1, model.a):
        bar_order = d * (model.b + eq) + k
        if bar_order >= K:
            continue
        res = residual(state, providers, j, eq)
        if res.ord() < bar_order:
            raise ValueError(
                f"state violates its invariant at point {j}, equation {eq}: "
                f"residual order {res.ord()} < {bar_order}")
        defect = res.coeff(bar_order)
        if not defect:
            continue
        vec = state.kernels[j - 1][eq - 1]
        for i, w in zip(range(2, model.a + 1), vec):
            if w:
                bump = TSeries.t_power(d * i + k, K, -defect * w)
                state.c[j - 1][i - 2] = state.c[j - 1][i - 2] + bump


@dataclass
class LiftAuditEntry:
    k: int
    stepped_point: int
    observed_point: int
    eq: int
    closed_modulus: int
    unchanged: bool


@dataclass
class LiftReport:
    state: LiftState
    steps: int
    residual_orders: dict[tuple[int, int], int]
    audit: list[LiftAuditEntry]
    history: list[tuple[int, list[list[TSeries]]]]

    @property
    def audit_ok(self) -> bool:
        return all(en.unchanged for en in self.audit)


def lift_run(config: SingularConfig | LocalModel, witnesses, modulus: int,
             providers: Provider | None = None) -> LiftReport:
    """Drive the lift to the working modulus, one order per round.

    Rounds sweep the points in index order (round-robin); after each
    per-point sub-step, every other point's residuals are re-read at their
    currently closed modulus and must be bit-identical (the
    non-interference audit). Runs until every equation is closed mod
    t^modulus; with the modulus at or below the first obstruction order the
    seed is already final and no corrections happen.
    """
    if isinstance(config, LocalModel):
        config = SingularConfig((config,))
        witnesses = [witnesses]
    if providers is None:
        providers = zero_provider
    state = make_lift_state(config, witnesses, modulus)
    history: list[tuple[int, list[list[TSeries]]]] = [(0, [list(v) for v in state.c])]
    audit: list[LiftAuditEntry] = []

    def first_open() -> int:
        return min(state.weights.d[j - 1] * (config.model(j).b + 1)
                   for j in range(1, config.e + 1)) + state.k

    steps = 0
    while first_open() < modulus:
        k = state.k
        for j in range(1, config.e + 1):
            before = {}
            for l in range(1, config.e + 1):
                if l == j:
                    continue
                for eq in range(1, config.model(l).a):
                    stage_k = k + 1 if l < j else k
                    cm = state.closed_modulus(l, eq, stage_k)
                    before[(l, eq)] = residual(state, providers, l, eq).truncate(cm)
            lift_point_step(state, providers, j)
            for (l, eq), prev in before.items():
                stage_k = k + 1 if l < j else k
                cm = state.closed_modulus(l, eq, stage_k)
                now = residual(state, providers, l, eq).truncate(cm)
                audit.append(LiftAuditEntry(k, j, l, eq, cm, now == prev))
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
    for s in sections:
        validate_section(config, s)
    if all(p.a == 2 for p in config.points):
        table = polar_cover_table(config, sections)
        uncovered = [j for j in range(1, config.e + 1) if 1 not in table[j]]
        cert = [None if 1 in table[j] else 1 for j in range(1, config.e + 1)]
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

    missing = []
    for j in range(1, config.e + 1):
        model = config.model(j)
        if model.a == 2:
            continue
        if dims is None or j not in dims:
            missing.append(f"dims[{j}]")
        if g_table is None or j not in g_table:
            missing.append(f"g_table[{j}]")
    if missing:
        raise ValueError(f"general criterion needs {', '.join(missing)}")

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
