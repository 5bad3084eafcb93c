"""Groebner-basis engine and the transversality / genericity decision procedures.

The engine is a budgeted Buchberger implementation over exact rationals:
normal pair-selection strategy (lowest lcm first, ties broken by pair index),
product and chain criteria, and a reduced (monic, sorted, hence unique) basis
at the end, all in grevlex: radical membership, the one question the engine
answers, has the same answer in every monomial order. Pending S-pairs sit in
a heap keyed by the selection rule, and the normal form takes the largest
remaining term from a max-heap, so neither rescans its whole set at each
step. Budgets cover wall-clock seconds, on one clock shared by every run of
a check, and processed S-pairs per run; exhaustion, in the pair loop or in
the final inter-reduction, yields a first-class timeout verdict instead of
an exception.

The working basis is primitive integer polynomials (``primitive_terms``:
coprime int coefficients, grevlex-leading coefficient positive). Each
S-polynomial is built in ints as (lc2/g)·x^(L−lm1)·g1 − (lc1/g)·x^(L−lm2)·g2
with g = gcd(lc1, lc2), a scalar multiple of the monic one; the normal form
makes a Fraction only for a quotient coeff/lc that is not exact. The normal
form is linear and picks reducers by support alone, and the primitive part
is scale-invariant, so the basis, the S-pairs and the reduced monic basis
are those of the monic computation. Only the reduced basis is returned,
with Fraction coefficients.

Inside the engine each monomial is one int, the full key of the package's
one packing, ``polycore._Packing``: the partial sums S_n, ..., S_1 of its
exponents (S_k = e_1 + ... + e_k), most significant first, above the
exponents themselves, each exponent in a field with a clear guard bit on
top. Comparing two ints is then grevlex, a product is ``+``, a quotient
``-``, and a divides b iff ``(b - a) & guard`` is 0 (Monagan and Pearce,
CASC 2007); an lcm is a per-field max of the exponents. The field width
comes from the generators' largest degree, with room for the lcm of any two
of their terms. Every term a run builds has at most the degree of a
generator or of a processed S-pair's lcm, so a pair whose lcm does not fit
starts the run again with wider fields; the run is deterministic, so its
pairs and its basis do not depend on the width.
``buchberger`` packs the generators and unpacks only the reduced basis.

On top of it: radical ideal membership by the auxiliary-variable trick
(p lies in the radical of I iff 1 lies in I + (1 - y*p)), the transversality
test at a rational point, and the per-index genericity test via two
generator presentations that must agree. Transversality is decided at the
point: the perturbed Jacobian is evaluated there and reduced by exact
elimination, with no symbolic determinant.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from math import gcd
from time import monotonic
from typing import Iterable, Sequence

from .expansion import LocalModel, big_f, f_bar_jacobian_at, f_coeff, jac_bar, theta_cap
from .polycore import MPoly, VarSet, _echelonize, _Packing, primitive_terms


class Membership(Enum):
    TRUE = "true"
    FALSE = "false"
    TIMEOUT = "timeout"


class GStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    TIMEOUT = "timeout"


class InternalConsistencyError(RuntimeError):
    """Two presentations of the same ideal produced different verdicts."""


@dataclass(frozen=True)
class Ideal:
    """A finite generating set; zero generators dropped, duplicates removed."""

    varset: VarSet
    generators: tuple[MPoly, ...]

    @staticmethod
    def of(varset: VarSet, gens: Sequence[MPoly]) -> "Ideal":
        seen: list[MPoly] = []
        for g in gens:
            if g.varset != varset:
                raise ValueError("generator lives in a different variable set")
            if g.is_zero() or g in seen:
                continue
            seen.append(g)
        return Ideal(varset, tuple(seen))


@dataclass
class Budget:
    """Wall-clock and S-pair budget; None means unlimited.

    ``seconds`` runs on one clock, started by ``start()``: every engine run
    given a started budget shares its clock, so the seconds bound them all
    together. ``max_pairs`` bounds each Buchberger run on its own.
    """

    seconds: float | None = None
    max_pairs: int | None = None
    started_at: float | None = field(default=None, init=False, repr=False, compare=False)

    def start(self) -> "Budget":
        """This budget with its clock running from now; a budget already
        started is returned as it is."""
        if self.started_at is not None:
            return self
        running = replace(self)
        running.started_at = monotonic()
        return running

    def expired(self) -> bool:
        return (self.seconds is not None and self.started_at is not None
                and monotonic() - self.started_at > self.seconds)


@dataclass
class GBResult:
    """The reduced basis, or None when the budget ran out."""

    basis: list[MPoly] | None
    pairs_processed: int
    elapsed: float


class _Poly:
    """A polynomial inside the engine: ``terms`` maps packed monomials to
    int or Fraction coefficients; ``lm`` is the leading monomial, None for
    the zero polynomial."""

    __slots__ = ("terms", "lm")

    def __init__(self, terms: dict[int, int | Fraction]) -> None:
        self.terms = terms
        self.lm = max(terms) if terms else None


def _packed(packing: _Packing, p: MPoly) -> _Poly:
    return _Poly({packing.pack(e): c for e, c in p.terms.items()})


def _unpacked(packing: _Packing, varset: VarSet, p: _Poly) -> MPoly:
    return MPoly._of(varset, {packing.unpack(m): c for m, c in p.terms.items()})


class _Overflow(Exception):
    """An S-pair's lcm is of a degree that the run's packing cannot hold."""

    def __init__(self, degree: int) -> None:
        super().__init__(degree)
        self.degree = degree


def normal_form(p: _Poly, basis: Sequence[_Poly], guard: int) -> _Poly:
    """Fully reduce p modulo the basis: no result monomial is divisible
    by any basis leading monomial.

    Monomials are packed ints of one ``_Packing``, and ``guard`` is its
    guard mask. Terms are reduced largest first, taken from a max-heap over
    the working polynomial; an entry whose term has since cancelled is
    skipped when it surfaces. Each term is reduced by the first basis
    element, in basis order, whose leading monomial divides it.

    Coefficients may be ints or Fractions, as in the engine's integer
    basis; a result coefficient is an int only where every step on its
    term stayed integral.
    """
    # Terms are not copied into tails: one call reduces by few of the basis
    # elements (about one in fifteen in check G at (5,7)).
    reducers = [(g.lm, g.terms[g.lm], g.terms) for g in basis if g.terms]
    work = dict(p.terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    out: dict[int, int | Fraction] = {}
    while heap:
        mon = -heappop(heap)
        coeff = work.pop(mon, None)
        if coeff is None:
            continue
        for lm, lc, terms in reducers:
            shift = mon - lm
            if shift & guard:
                continue
            # An int quotient stays an int when it is exact; otherwise
            # it is a Fraction, never int / int (a float).
            if type(coeff) is int:
                factor, r = divmod(coeff, lc)
                if r:
                    factor = Fraction(coeff, lc)
            else:
                factor = coeff / lc
            # Every new term lies below mon: a reduced term never returns.
            for eg, cg in terms.items():
                if eg == lm:
                    continue
                tgt = eg + shift
                old = work.get(tgt)
                if old is None:
                    work[tgt] = -factor * cg
                    heappush(heap, -tgt)
                else:
                    s = old - factor * cg
                    if s:
                        work[tgt] = s
                    else:
                        del work[tgt]
            break
        else:
            out[mon] = coeff
    return _Poly(out)


def _s_poly(g1: _Poly, g2: _Poly, lcm: int) -> _Poly:
    """S-polynomial of two integer basis elements, in integers.

    With g = gcd(lc1, lc2) and L the lcm of the leading monomials it is
    (lc2/g)·x^(L−lm1)·g1 − (lc1/g)·x^(L−lm2)·g2, which is lc1·lc2/g times
    the monic S-polynomial. The cancelling term at L is never built.
    """
    lm1, lm2 = g1.lm, g2.lm
    lc1, lc2 = g1.terms[lm1], g2.terms[lm2]
    g = gcd(lc1, lc2)
    k1, k2 = lc2 // g, lc1 // g
    shift1, shift2 = lcm - lm1, lcm - lm2
    out = {e + shift1: k1 * c for e, c in g1.terms.items() if e != lm1}
    for e, c in g2.terms.items():
        if e == lm2:
            continue
        tgt = e + shift2
        s = out.get(tgt, 0) - k2 * c
        if s:
            out[tgt] = s
        else:
            del out[tgt]
    return _Poly(out)


def buchberger(ideal: Ideal, budget: Budget | None = None) -> GBResult:
    """Compute a reduced grevlex Groebner basis, or report budget exhaustion.

    The reduced basis is monic, pairwise top-irreducible, and sorted by
    leading monomial, hence unique for the ideal: permuting the input
    generators cannot change it.
    """
    if not ideal.generators:
        raise ValueError("Groebner engine needs at least one generator")
    budget = (budget or Budget()).start()
    t0 = monotonic()
    varset = ideal.varset
    gens = [MPoly._of(varset, primitive_terms(g.terms)) for g in ideal.generators]
    packing = _Packing.of(gens)
    while True:
        try:
            basis, pairs = _buchberger_packed(varset, gens, packing, budget)
        except _Overflow as wide:
            packing = _Packing(len(varset), wide.degree)
            continue
        return GBResult(basis, pairs, monotonic() - t0)


def _buchberger_packed(varset: VarSet, gens: list[MPoly], packing: _Packing,
                       budget: Budget) -> tuple[list[MPoly] | None, int]:
    """``buchberger``'s run on one packing: the reduced basis (None on a
    timeout) and the pairs processed.

    Raises ``_Overflow`` when a pair that passes the criteria has an lcm of
    degree above ``packing.max_deg``. The S-polynomial and its normal form
    stay within that degree (grevlex is graded, and a reduction step brings
    only terms below the one it reduces), so that one test covers every
    monomial the run builds. A pending pair's lcm is exact up to twice the
    limit, so it may order the heap and meet the criteria first.
    """
    pairs = 0
    basis = [_packed(packing, g) for g in gens]
    lms = [g.lm for g in basis]

    # Unit short-circuit: a constant generator makes everything trivial.
    if 0 in lms:
        return [MPoly.constant(varset, 1)], 0

    guard, lcm_of, degree = packing.guard, packing.lcm, packing.degree
    # Normal strategy: lowest lcm first (packed ints compare as grevlex,
    # degree first), ties broken by (i, j). Pairs are only pushed or popped
    # smallest first, so the heap yields them in the order a full scan for
    # the minimum would.
    pending: list[tuple[int, int, int]] = []
    done: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int) -> None:
        heapq.heappush(pending, (lcm_of(lms[i], lms[j]), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)

    def chain_skip(i: int, j: int, lcm: int) -> bool:
        for k, lm in enumerate(lms):
            if k == i or k == j:
                continue
            if not (lcm - lm) & guard:
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    return True
        return False

    while pending:
        lcm, i, j = heapq.heappop(pending)
        done.add((i, j))
        # Product criterion: coprime leading monomials reduce to zero.
        if lcm == lms[i] + lms[j]:
            continue
        if chain_skip(i, j, lcm):
            continue
        # The budget is tested before the pair is counted: a refused pair
        # is not processed.
        if (budget.max_pairs is not None and pairs >= budget.max_pairs) or budget.expired():
            return None, pairs
        if degree(lcm) > packing.max_deg:
            raise _Overflow(degree(lcm))
        pairs += 1
        rem = normal_form(_s_poly(basis[i], basis[j], lcm), basis, guard)
        if not rem.terms:
            continue
        rem = _Poly(primitive_terms(rem.terms, rem.lm))
        if rem.lm == 0:
            return [MPoly.constant(varset, 1)], pairs
        new_idx = len(basis)
        basis.append(rem)
        lms.append(rem.lm)
        for t in range(new_idx):
            push_pair(t, new_idx)

    return _reduce_basis(varset, basis, packing, budget), pairs


def _reduce_basis(varset: VarSet, basis: list[_Poly], packing: _Packing,
                  budget: Budget) -> list[MPoly] | None:
    """The reduced basis: minimal, each element fully reduced by the others,
    monic with Fraction coefficients, sorted by leading monomial. None when
    the budget's clock runs out between two normal forms."""
    guard = packing.guard
    lms = [g.lm for g in basis]
    keep = []
    for i, lm in enumerate(lms):
        if any(j != i and not (lm - lms[j]) & guard
               and (lms[j] != lm or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        if budget.expired():
            return None
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, guard) if others else g
        if r.terms:
            reduced.append(r)
    reduced.sort(key=lambda g: g.lm)
    return [_unpacked(packing, varset, r) * Fraction(1, r.terms[r.lm]) for r in reduced]


def ideal_contains_one(result: GBResult) -> bool:
    if result.basis is None:
        raise ValueError("no basis available (engine timed out)")
    return len(result.basis) == 1 and result.basis[0].is_constant()


@dataclass
class MembershipResult:
    verdict: Membership
    pairs_processed: int = 0
    elapsed: float = 0.0


def radical_member(p: MPoly, ideal: Ideal, budget: Budget | None = None) -> MembershipResult:
    """Does p lie in the radical of the ideal?

    Adds a fresh variable y and tests whether the extended ideal
    I + (1 - y*p) contains 1. Sound and complete whenever the engine
    finishes within budget. The zero ideal short-circuits to p == 0.
    """
    if p.varset != ideal.varset:
        raise ValueError("candidate lives in a different variable set")
    if not ideal.generators:
        return MembershipResult(Membership.TRUE if p.is_zero() else Membership.FALSE)
    aux = "y"
    while aux in ideal.varset.names:
        aux += "_"
    big = ideal.varset.extend(aux)
    y = MPoly.variable(big, aux)
    gens = [g.rename(big) for g in ideal.generators]
    gens.append(MPoly.constant(big, 1) - y * p.rename(big))
    result = buchberger(Ideal.of(big, gens), budget=budget)
    if result.basis is None:
        return MembershipResult(Membership.TIMEOUT, result.pairs_processed, result.elapsed)
    verdict = Membership.TRUE if ideal_contains_one(result) else Membership.FALSE
    return MembershipResult(verdict, result.pairs_processed, result.elapsed)


def check_t(model: LocalModel, point: Sequence[Fraction]) -> bool:
    """Transversality of the perturbed system at a rational point: its
    Jacobian there is invertible, i.e. exact elimination of the evaluated
    matrix finds a pivot in every row."""
    return None not in _echelonize(range(model.a - 1), f_bar_jacobian_at(model, point))[1]


def _presentation_obstruction(model: LocalModel, i: int) -> tuple[Ideal, MPoly]:
    """Generators {F_{-n} : n != i} with membership candidate F_{-i} * Jbar."""
    gens = [big_f(model, n) for n in range(1, model.a) if n != i]
    return Ideal.of(model.varset, gens), big_f(model, i) * jac_bar(model)


def _presentation_simplified(model: LocalModel, i: int) -> tuple[Ideal, MPoly]:
    """Equivalent triangular generators with candidate f_{b+i} * Jbar.

    For n < i the generator is plain f_{b+n}; for n > i it is
    f_{b+n} + Theta_{n-i}^{(-i)} * f_{b+i} (the n = i+1 correction vanishes).
    """
    b = model.b
    f_i = f_coeff(model, b, b + i)
    gens = []
    for n in range(1, model.a):
        if n == i:
            continue
        g = f_coeff(model, b, b + n)
        if n - i >= 2:
            g = g + theta_cap(model, -i, n - i) * f_i
        gens.append(g)
    return Ideal.of(model.varset, gens), f_i * jac_bar(model)


@dataclass
class GIndexResult:
    index: int
    status: GStatus
    membership: Membership
    pairs_processed: int = 0
    elapsed: float = 0.0


@dataclass
class GVerdict:
    status: GStatus
    per_index: list[GIndexResult] = field(default_factory=list)


def check_g_index(model: LocalModel, i: int, budget: Budget | None = None) -> GIndexResult:
    """Genericity at one index: can the i-th obstruction be made the only
    nonvanishing one at a transversal point?

    Holds iff F_{-i} * Jbar does NOT lie in the radical of the ideal of the
    other obstructions. Both generator presentations are run and must agree;
    disagreement is an engine bug, not a verdict. The budget's seconds bound
    both runs together.
    """
    if not 1 <= i <= model.a - 1:
        raise ValueError(f"index must be in [1, {model.a - 1}], got {i}")
    budget = (budget or Budget()).start()
    if budget.expired():
        return GIndexResult(i, GStatus.TIMEOUT, Membership.TIMEOUT)
    return _check_g_index_on(model, i, _presentation_obstruction(model, i), budget)


def _check_g_index_on(model: LocalModel, i: int, obstruction: tuple[Ideal, MPoly],
                      budget: Budget) -> GIndexResult:
    """``check_g_index`` with the obstruction presentation already built,
    as ``_presentation_obstruction(model, i)`` returns it, and the budget
    already started. The simplified presentation is built only while the
    clock has time after the first run."""
    ideal_f_form, cand_f_form = obstruction
    r1 = radical_member(cand_f_form, ideal_f_form, budget)
    if budget.expired():
        return GIndexResult(i, GStatus.TIMEOUT, Membership.TIMEOUT, r1.pairs_processed,
                            r1.elapsed)
    ideal_simple, cand_simple = _presentation_simplified(model, i)
    r2 = radical_member(cand_simple, ideal_simple, budget)
    pairs = r1.pairs_processed + r2.pairs_processed
    elapsed = r1.elapsed + r2.elapsed
    if Membership.TIMEOUT in (r1.verdict, r2.verdict):
        return GIndexResult(i, GStatus.TIMEOUT, Membership.TIMEOUT, pairs, elapsed)
    if r1.verdict is not r2.verdict:
        raise InternalConsistencyError(
            f"presentations disagree at (a={model.a}, b={model.b}, i={i}): "
            f"obstruction form {r1.verdict.value}, simplified form {r2.verdict.value}")
    status = GStatus.HOLDS if r1.verdict is Membership.FALSE else GStatus.FAILS
    return GIndexResult(i, status, r1.verdict, pairs, elapsed)


def aggregate_status(statuses: Iterable[GStatus]) -> GStatus:
    """Overall verdict of several indices: fails if any index fails, else
    timeout if any index timed out, else holds."""
    seen = set(statuses)
    for status in (GStatus.FAILS, GStatus.TIMEOUT):
        if status in seen:
            return status
    return GStatus.HOLDS


def check_g(model: LocalModel, budget: Budget | None = None) -> GVerdict:
    """Genericity at every index 1..a-1, aggregated by ``aggregate_status``.
    The budget's seconds bound all indices together."""
    budget = (budget or Budget()).start()
    per_index = [check_g_index(model, i, budget) for i in range(1, model.a)]
    return GVerdict(aggregate_status(r.status for r in per_index), per_index)

