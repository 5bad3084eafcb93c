"""Groebner-basis engine and the transversality / genericity decision procedures.

The engine is a budgeted Buchberger pair loop over exact rationals, in
grevlex: radical membership, the one question the program asks of it, has
the same answer in every monomial order. ``buchberger`` runs the loop, with
the normal pair-selection strategy (lowest lcm first, ties broken by pair
index) and the product and chain criteria, and returns its basis as it
ended. The loop stops as soon as a remainder or a generator is a constant,
so a loop that finishes without one has decided that 1 is not in the ideal.
``reduced_basis`` follows the loop with its inter-reduction to the reduced
(monic, sorted, hence unique) basis, the one step that builds ``MPoly``s.
Pending S-pairs sit in a heap keyed by the selection rule, and the normal
form takes the largest remaining term from a max-heap, so neither rescans
its whole set at each step. Each basis element keeps the set of partners
it has been popped with, so the chain criterion for a pair (i, j) tests
only the elements in both sets (Becker and Weispfenning, *Gröbner Bases*,
5.5). Budgets cover wall-clock seconds, on one clock shared by every run
of a check, and processed S-pairs per run; exhaustion, in the pair loop or
in ``reduced_basis``'s inter-reduction, yields a first-class timeout
verdict instead of an exception.

The engine holds a polynomial in one form, the entry (lm, lc, terms):
primitive int terms (coprime coefficients) whose grevlex-leading
coefficient lc, at lm, is positive. Generators, remainders and reduced
elements are entries, each made once by the one normalization ``_entry``
from (numerator, denominator) pairs. Each S-polynomial is built in ints as
(lc2/g)·x^(L−lm1)·g1 − (lc1/g)·x^(L−lm2)·g2 with g = gcd(lc1, lc2), a
scalar multiple of the monic one. The normal form holds each working
coefficient as a reduced (numerator, denominator) pair of ints and returns
the remainder's entry. The normal form is linear and picks reducers by
support alone, and the primitive part is scale-invariant, so the basis,
the S-pairs and the reduced monic basis are those of the monic
computation. No Fraction is made until ``reduced_basis`` makes its
elements monic, with Fraction coefficients, as it unpacks them.

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
pairs and its basis do not depend on the width. ``buchberger`` packs the
generators as they come and returns its entries packed, with the packing.

On top of it: radical ideal membership by the auxiliary-variable trick
(p lies in the radical of I iff 1 lies in I + (1 - y*p)), the transversality
test at a rational point, and the per-index genericity test via two
generator presentations that must agree. Transversality is decided at the
point: the perturbed Jacobian is evaluated there and reduced by exact
elimination, with no symbolic determinant.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from time import monotonic
from typing import Iterable, NamedTuple, Sequence

from .expansion import LocalModel, big_f, f_bar_jacobian_at, f_coeff, jac_bar, theta_cap
from .polycore import MPoly, VarSet, _echelonize, _Packing


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

    ``seconds`` is a deadline: its clock runs from when the budget is made,
    and every engine run given the budget shares it, so the seconds bound
    them all together. ``max_pairs`` bounds each Buchberger run on its own.
    """

    seconds: float | None = None
    max_pairs: int | None = None
    # A lambda, so each budget reads the module's clock when it is made.
    started_at: float = field(default_factory=lambda: monotonic(), init=False, repr=False,
                              compare=False)

    def expired(self) -> bool:
        return self.seconds is not None and monotonic() - self.started_at > self.seconds


class _Entry(NamedTuple):
    """A polynomial inside the engine, in the one form the engine holds:
    primitive int terms keyed by packed monomial, in any order, with the
    coefficient ``lc`` at the leading monomial ``lm`` positive. Zero is
    ``(None, 0, {})``. Generators, remainders and reduced elements are
    entries; an S-polynomial is a plain int term dict."""

    lm: int | None
    lc: int
    terms: dict[int, int]


def _entry(pairs: dict[int, tuple[int, int]], lm: int) -> _Entry:
    """The entry of the nonzero polynomial with terms ``pairs``, each
    coefficient a (numerator, denominator > 0) pair in lowest terms, and
    leading monomial ``lm``.

    The content is gcd(numerators) / lcm(denominators), signed by the
    leading coefficient, so each n/d maps to the exact int
    n // gcd * (lcm // d). The terms keep their order.
    """
    num_gcd = gcd(*[n for n, _ in pairs.values()])
    den_lcm = lcm(*[d for _, d in pairs.values()])
    if pairs[lm][0] < 0:
        num_gcd = -num_gcd
    terms = {m: n // num_gcd * (den_lcm // d) for m, (n, d) in pairs.items()}
    return _Entry(lm, terms[lm], terms)


class GBResult(NamedTuple):
    """A ``buchberger`` run: the pair loop's entries in the order the loop
    added them, only the unit entry once the loop met a constant, or None
    when the budget ran out; the S-pairs it processed; its seconds; and the
    packing its entries' monomials are keyed by."""

    entries: list[_Entry] | None
    pairs_processed: int
    elapsed: float
    packing: _Packing | None = None


class _Overflow(Exception):
    """An S-pair's lcm is of a degree that the run's packing cannot hold."""

    def __init__(self, degree: int) -> None:
        super().__init__(degree)
        self.degree = degree


def normal_form(p: dict[int, int], basis: Sequence[_Entry], guard: int) -> _Entry:
    """Fully reduce p modulo the basis: no monomial of the result is
    divisible by any basis leading monomial. The result is the entry of
    the remainder, its primitive integer multiple.

    p maps monomials, packed ints of one ``_Packing``, to ints, and
    ``guard`` is the packing's guard mask. Terms are reduced largest
    first, taken from a max-heap over the working polynomial; an entry
    whose term has since cancelled is skipped when it surfaces. Each term
    is reduced by the first basis entry, in basis order, whose leading
    monomial divides it.

    Each working coefficient is a reduced (numerator, denominator > 0)
    pair of ints, stepped by Fraction's own gcd rules (Henrici's; Knuth,
    TAOCP vol. 2, 4.5.1), so it is the exact rational a Fraction would
    hold. The terms left over come out largest first, so the first is the
    leading monomial, and ``_entry`` makes them primitive; a zero
    remainder is ``(None, 0, {})``.
    """
    # Terms are not copied into tails: one call reduces by few of the basis
    # elements (about one in fifteen in check G at (5,7)).
    work = {m: (c, 1) for m, c in p.items()}
    heap = [-m for m in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    out: dict[int, tuple[int, int]] = {}
    while heap:
        mon = -heappop(heap)
        coeff = work.pop(mon, None)
        if coeff is None:
            continue
        for lm, lc, terms in basis:
            shift = mon - lm
            if shift & guard:
                continue
            # The factor coeff / lc = fn / fd in lowest terms.
            n, d = coeff
            g = gcd(n, lc)
            fn, fd = n // g, d * (lc // g)
            # Every new term lies below mon: a reduced term never returns.
            for eg, cg in terms.items():
                if eg == lm:
                    continue
                tgt = eg + shift
                # factor * cg = pn / pd in lowest terms, as gcd(fn, fd) = 1.
                if fd == 1:
                    pn, pd = fn * cg, 1
                else:
                    g = gcd(cg, fd)
                    pn, pd = fn * (cg // g), fd // g
                old = work.get(tgt)
                if old is None:
                    work[tgt] = (-pn, pd)
                    heappush(heap, -tgt)
                    continue
                # old - pn / pd in lowest terms.
                on, od = old
                g = gcd(od, pd)
                if g == 1:
                    num, den = on * pd - pn * od, od * pd
                else:
                    s = od // g
                    num = on * (pd // g) - pn * s
                    g2 = gcd(num, g)
                    den = s * pd
                    if g2 != 1:
                        num, den = num // g2, den // g2
                if num:
                    work[tgt] = (num, den)
                else:
                    del work[tgt]
            break
        else:
            out[mon] = coeff
    if not out:
        return _Entry(None, 0, {})
    return _entry(out, next(iter(out)))


def _s_poly(g1: _Entry, g2: _Entry, lcm: int) -> dict[int, int]:
    """S-polynomial of two basis entries, in integers.

    With g = gcd(lc1, lc2) and L the lcm of the leading monomials it is
    (lc2/g)·x^(L−lm1)·g1 − (lc1/g)·x^(L−lm2)·g2, which is lc1·lc2/g times
    the monic S-polynomial. The cancelling term at L is never built.
    """
    lm1, lc1, terms1 = g1
    lm2, lc2, terms2 = g2
    g = gcd(lc1, lc2)
    k1, k2 = lc2 // g, lc1 // g
    shift1, shift2 = lcm - lm1, lcm - lm2
    out = {e + shift1: k1 * c for e, c in terms1.items() if e != lm1}
    for e, c in terms2.items():
        if e == lm2:
            continue
        tgt = e + shift2
        s = out.get(tgt, 0) - k2 * c
        if s:
            out[tgt] = s
        else:
            del out[tgt]
    return out


def buchberger(ideal: Ideal, budget: Budget | None = None) -> GBResult:
    """Run the grevlex pair loop on the ideal's generators, or report budget
    exhaustion.

    The run's entries are the primitive integer basis the loop built, in
    the order it added them: a Groebner basis of the ideal, which depends
    on the generators' order. Once the loop meets a constant, they are the
    unit entry alone; ``ideal_contains_one`` reads that. ``reduced_basis``
    makes the unique basis from them.
    """
    if not ideal.generators:
        raise ValueError("Groebner engine needs at least one generator")
    budget = budget or Budget()
    t0 = monotonic()
    gens = ideal.generators
    packing = _Packing.of(gens)
    while True:
        try:
            entries, pairs = _buchberger_packed(gens, packing, budget)
        except _Overflow as wide:
            packing = _Packing(len(ideal.varset), wide.degree)
            continue
        return GBResult(entries, pairs, monotonic() - t0, packing)


def _buchberger_packed(gens: Sequence[MPoly], packing: _Packing,
                       budget: Budget) -> tuple[list[_Entry] | None, int]:
    """``buchberger``'s run on one packing: its entries (None on a timeout)
    and the pairs processed.

    Raises ``_Overflow`` when a pair that passes the criteria has an lcm of
    degree above ``packing.max_deg``. The S-polynomial and its normal form
    stay within that degree (grevlex is graded, and a reduction step brings
    only terms below the one it reduces), so that one test covers every
    monomial the run builds. A pending pair's lcm is exact up to twice the
    limit, so it may order the heap and meet the criteria first.
    """
    pairs = 0
    basis = []
    for g in gens:
        packed = {packing.pack(e): (c.numerator, c.denominator) for e, c in g.terms.items()}
        basis.append(_entry(packed, max(packed)))
    lms = [lm for lm, _, _ in basis]

    # Unit short-circuit: a constant generator makes everything trivial.
    if 0 in lms:
        return [basis[lms.index(0)]], 0

    guard, lcm_of, degree = packing.guard, packing.lcm, packing.degree
    # Normal strategy: lowest lcm first (packed ints compare as grevlex,
    # degree first), ties broken by (i, j). Pairs are only pushed or popped
    # smallest first, so the heap yields them in the order a full scan for
    # the minimum would.
    pending: list[tuple[int, int, int]] = []
    # done[k]: the partners of basis element k in the pairs popped so far.
    done: list[set[int]] = [set() for _ in basis]

    def push_pair(i: int, j: int) -> None:
        heapq.heappush(pending, (lcm_of(lms[i], lms[j]), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)

    def chain_skip(i: int, j: int, lcm: int) -> bool:
        # Chain criterion: some k whose pairs with i and j are both popped
        # has a leading monomial dividing the lcm. No pair (k, k) is ever
        # made, so k is neither i nor j.
        for k in done[i] & done[j]:
            if not (lcm - lms[k]) & guard:
                return True
        return False

    while pending:
        lcm, i, j = heapq.heappop(pending)
        done[i].add(j)
        done[j].add(i)
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
        if rem.lm is None:
            continue
        if rem.lm == 0:
            return [rem], pairs
        new_idx = len(basis)
        basis.append(rem)
        lms.append(rem.lm)
        done.append(set())
        for t in range(new_idx):
            push_pair(t, new_idx)

    return basis, pairs


def reduced_basis(ideal: Ideal, budget: Budget | None = None) -> list[MPoly] | None:
    """The ideal's reduced grevlex Groebner basis: monic, pairwise
    top-irreducible and sorted by leading monomial, hence unique for the
    ideal, so permuting the generators cannot change it. None when the
    budget runs out in the pair loop or in the inter-reduction after it."""
    budget = budget or Budget()
    run = buchberger(ideal, budget)
    if run.entries is None:
        return None
    return _reduce_basis(ideal.varset, run.entries, run.packing, budget)


def _reduce_basis(varset: VarSet, basis: list[_Entry], packing: _Packing,
                  budget: Budget) -> list[MPoly] | None:
    """The reduced basis: minimal, each element fully reduced by the others,
    monic with Fraction coefficients, sorted by leading monomial. None when
    the budget's clock runs out between two normal forms."""
    guard = packing.guard
    lms = [lm for lm, _, _ in basis]
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
        # No other leading monomial divides g's, so its remainder is not 0
        # and keeps g's leading monomial.
        reduced.append(normal_form(g.terms, others, guard) if others else g)
    reduced.sort(key=lambda g: g.lm)
    unpack = packing.unpack
    return [MPoly._of(varset, {unpack(m): Fraction(c, lc) for m, c in terms.items()})
            for _, lc, terms in reduced]


def ideal_contains_one(result: GBResult) -> bool:
    """Whether the run met a constant, i.e. the ideal contains 1: its
    entries are then the unit entry alone, and otherwise none of them is
    constant. Raises ``ValueError`` after a timeout."""
    if result.entries is None:
        raise ValueError("no basis available (engine timed out)")
    return result.entries[0].lm == 0


@dataclass
class MembershipResult:
    verdict: Membership
    pairs_processed: int = 0
    elapsed: float = 0.0


def radical_member(p: MPoly, ideal: Ideal, budget: Budget | None = None) -> MembershipResult:
    """Does p lie in the radical of the ideal?

    Adds a fresh variable y and tests whether the extended ideal
    I + (1 - y*p) contains 1. Sound and complete whenever the engine's
    pair loop finishes within budget: the verdict is read off the loop's
    packed entries, with no reduced basis and no ``MPoly`` built.
    The zero ideal needs no case of its own: for p = 0 the one generator
    is the constant 1, and otherwise a single generator makes no pair.
    """
    if p.varset != ideal.varset:
        raise ValueError("candidate lives in a different variable set")
    aux = "y"
    while aux in ideal.varset.names:
        aux += "_"
    big = ideal.varset.extend(aux)
    # One pass per generator: y is the last variable of the extended set.
    gens = [MPoly._of(big, {e + (0,): c for e, c in g.terms.items()}) for g in ideal.generators]
    gens.append(MPoly._of(big, {(0,) * len(big): 1, **{e + (1,): -c for e, c in p.terms.items()}}))
    result = buchberger(Ideal.of(big, gens), budget)
    if result.entries is None:
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
    both runs together, and the generation of Jbar before them: a clock
    that runs out there gives a timeout with no pairs.
    """
    if not 1 <= i <= model.a - 1:
        raise ValueError(f"index must be in [1, {model.a - 1}], got {i}")
    budget = budget or Budget()
    if budget.expired():
        return GIndexResult(i, GStatus.TIMEOUT)
    # Jbar is generated on the clock; both presentations then read it from
    # its memo.
    if jac_bar(model, budget.expired) is None:
        return GIndexResult(i, GStatus.TIMEOUT)
    return _check_g_index_on(model, i, _presentation_obstruction(model, i), budget)


def _check_g_index_on(model: LocalModel, i: int, obstruction: tuple[Ideal, MPoly],
                      budget: Budget) -> GIndexResult:
    """``check_g_index`` with the obstruction presentation already built,
    as ``_presentation_obstruction(model, i)`` returns it. The simplified
    presentation is built only while the clock has time after the first
    run."""
    ideal_f_form, cand_f_form = obstruction
    r1 = radical_member(cand_f_form, ideal_f_form, budget)
    if budget.expired():
        return GIndexResult(i, GStatus.TIMEOUT, r1.pairs_processed, r1.elapsed)
    ideal_simple, cand_simple = _presentation_simplified(model, i)
    r2 = radical_member(cand_simple, ideal_simple, budget)
    pairs = r1.pairs_processed + r2.pairs_processed
    elapsed = r1.elapsed + r2.elapsed
    if Membership.TIMEOUT in (r1.verdict, r2.verdict):
        return GIndexResult(i, GStatus.TIMEOUT, pairs, elapsed)
    if r1.verdict is not r2.verdict:
        raise InternalConsistencyError(
            f"presentations disagree at (a={model.a}, b={model.b}, i={i}): "
            f"obstruction form {r1.verdict.value}, simplified form {r2.verdict.value}")
    status = GStatus.HOLDS if r1.verdict is Membership.FALSE else GStatus.FAILS
    return GIndexResult(i, status, pairs, elapsed)


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
    per_index = [check_g_index(model, i, budget) for i in range(1, model.a)]
    return GVerdict(aggregate_status(r.status for r in per_index), per_index)

