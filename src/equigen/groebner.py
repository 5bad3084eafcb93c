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
from operator import add, le, sub
from time import monotonic
from typing import Iterable, Sequence

from .expansion import LocalModel, big_f, f_bar_jacobian_at, f_coeff, jac_bar, theta_cap
from .polycore import (Exponents, MPoly, VarSet, _echelonize, divides, grevlex_key,
                       primitive_terms)


def _grevlex_heap_key(exps: Exponents) -> tuple:
    """Key that sorts exactly opposite to ``grevlex_key``, for a max-heap on heapq."""
    return (-sum(exps), exps[::-1])


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


def _lcm_exps(e1: Exponents, e2: Exponents) -> Exponents:
    return tuple(map(max, e1, e2))


def normal_form(p: MPoly, basis: Sequence[MPoly], lms: Sequence[Exponents] | None = None) -> MPoly:
    """Fully reduce p modulo the basis: no result monomial is divisible
    by any basis leading monomial.

    Terms are reduced largest first, taken from a max-heap over the working
    polynomial; an entry whose term has since cancelled is skipped when it
    surfaces. Each term is reduced by the first basis element, in basis
    order, whose leading monomial divides it. ``lms`` may give the basis
    leading monomials when the caller already holds them.

    Coefficients may be ints or Fractions, as in the engine's integer
    basis; a result coefficient is an int only where every step on its
    term stayed integral.
    """
    if lms is None:
        lms = [max(g.terms, key=grevlex_key) if g.terms else None for g in basis]
    # Terms are not copied into tails: one call reduces by few of the basis
    # elements (about one in fifteen in check G at (5,7)).
    reducers = [(lm, g.terms[lm], g.terms) for lm, g in zip(lms, basis) if g.terms]
    work = dict(p.terms)
    heap = [(_grevlex_heap_key(e), e) for e in work]
    heapq.heapify(heap)
    out: dict[Exponents, int | Fraction] = {}
    while heap:
        mon = heapq.heappop(heap)[1]
        coeff = work.pop(mon, None)
        if coeff is None:
            continue
        for lm, lc, terms in reducers:
            if all(map(le, lm, mon)):
                shift = tuple(map(sub, mon, lm))
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
                    tgt = tuple(map(add, eg, shift))
                    old = work.get(tgt)
                    if old is None:
                        work[tgt] = -factor * cg
                        heapq.heappush(heap, (_grevlex_heap_key(tgt), tgt))
                    else:
                        s = old - factor * cg
                        if s:
                            work[tgt] = s
                        else:
                            del work[tgt]
                break
        else:
            out[mon] = coeff
    return MPoly._of(p.varset, out)


def _s_poly(g1: MPoly, g2: MPoly, lm1: Exponents, lm2: Exponents) -> MPoly:
    """S-polynomial of two integer basis elements, in integers.

    With g = gcd(lc1, lc2) and L the lcm of the leading monomials it is
    (lc2/g)·x^(L−lm1)·g1 − (lc1/g)·x^(L−lm2)·g2, which is lc1·lc2/g times
    the monic S-polynomial. The cancelling term at L is never built.
    """
    lcm = _lcm_exps(lm1, lm2)
    lc1, lc2 = g1.terms[lm1], g2.terms[lm2]
    g = gcd(lc1, lc2)
    k1, k2 = lc2 // g, lc1 // g
    shift1, shift2 = tuple(map(sub, lcm, lm1)), tuple(map(sub, lcm, lm2))
    out = {tuple(map(add, e, shift1)): k1 * c for e, c in g1.terms.items() if e != lm1}
    for e, c in g2.terms.items():
        if e == lm2:
            continue
        tgt = tuple(map(add, e, shift2))
        s = out.get(tgt, 0) - k2 * c
        if s:
            out[tgt] = s
        else:
            del out[tgt]
    return MPoly._of(g1.varset, out)


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
    pairs = 0

    varset = ideal.varset
    basis = [MPoly._of(varset, primitive_terms(g.terms)) for g in ideal.generators]
    lms = [max(g.terms, key=grevlex_key) for g in basis]

    # Unit short-circuit: a constant generator makes everything trivial.
    if any(not any(lm) for lm in lms):
        one = [MPoly.constant(ideal.varset, 1)]
        return GBResult(one, 0, monotonic() - t0)

    # Normal strategy: lowest lcm first (grevlex_key leads with the degree),
    # ties broken by (i, j). Pairs are only pushed or popped smallest first,
    # so the heap yields them in the order a full scan for the minimum would.
    pending: list[tuple[tuple, tuple[int, int], Exponents]] = []
    done: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int) -> None:
        lcm = _lcm_exps(lms[i], lms[j])
        heapq.heappush(pending, (grevlex_key(lcm), (i, j), lcm))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)

    def chain_skip(i: int, j: int, lcm: Exponents) -> bool:
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if divides(lms[k], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    return True
        return False

    while pending:
        _, (i, j), lcm = heapq.heappop(pending)
        done.add((i, j))
        # Product criterion: coprime leading monomials reduce to zero.
        if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue
        if chain_skip(i, j, lcm):
            continue
        # The budget is tested before the pair is counted: a refused pair
        # is not processed.
        if (budget.max_pairs is not None and pairs >= budget.max_pairs) or budget.expired():
            return GBResult(None, pairs, monotonic() - t0)
        pairs += 1
        rem = normal_form(_s_poly(basis[i], basis[j], lms[i], lms[j]), basis, lms)
        if rem.is_zero():
            continue
        rem = MPoly._of(varset, primitive_terms(rem.terms))
        lm_new = max(rem.terms, key=grevlex_key)
        if not any(lm_new):
            basis = [MPoly.constant(varset, 1)]
            return GBResult(basis, pairs, monotonic() - t0)
        new_idx = len(basis)
        basis.append(rem)
        lms.append(lm_new)
        for t in range(new_idx):
            push_pair(t, new_idx)

    reduced = _reduce_basis(basis, lms, budget)
    return GBResult(reduced, pairs, monotonic() - t0)


def _reduce_basis(basis: list[MPoly], lms: list[Exponents], budget: Budget) -> list[MPoly] | None:
    """The reduced basis: minimal, each element fully reduced by the others,
    monic with Fraction coefficients, sorted by leading monomial. None when
    the budget's clock runs out between two normal forms."""
    keep = []
    for i, lm in enumerate(lms):
        if any(j != i and divides(lms[j], lm)
               and (lms[j] != lm or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    minimal_lms = [lms[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        if budget.expired():
            return None
        others = minimal[:i] + minimal[i + 1:]
        r = (normal_form(g, others, minimal_lms[:i] + minimal_lms[i + 1:])
             if others else g)
        if r.is_zero():
            continue
        lm = max(r.terms, key=grevlex_key)
        reduced.append(r * Fraction(1, r.terms[lm]))
    reduced.sort(key=lambda g: grevlex_key(max(g.terms, key=grevlex_key)))
    return reduced


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
    ideal_f_form, cand_f_form = _presentation_obstruction(model, i)
    ideal_simple, cand_simple = _presentation_simplified(model, i)
    r1 = radical_member(cand_f_form, ideal_f_form, budget)
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

