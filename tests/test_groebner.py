"""Budgeted Groebner engine, radical membership, and the decision
procedures for transversality and genericity."""

import itertools
import random
from fractions import Fraction
from operator import add, sub

import pytest

from equigen import groebner
from equigen.expansion import LocalModel, big_f, jac_bar
from equigen.groebner import (
    Budget,
    GStatus,
    Ideal,
    Membership,
    _presentation_obstruction,
    _presentation_simplified,
    buchberger,
    check_g,
    check_g_index,
    check_t,
    ideal_contains_one,
    normal_form,
    radical_member,
)
from equigen.polycore import (Exponents, MPoly, VarSet, _Packing, grevlex_key, poly_text,
                              primitive_terms)

from oracles import divides, witness_verify

VS = VarSet(("x", "y"))
VS3 = VarSet(("x", "y", "z"))
X = MPoly.variable(VS, "x")
Y = MPoly.variable(VS, "y")

SEED = 20260816


def _gb_texts(ideal, budget=None):
    res = buchberger(ideal, budget)
    assert res.basis is not None
    return [poly_text(g) for g in res.basis]


# ---------------------------------------------------------------------------
# Buchberger basics


def test_gb_textbook_example():
    assert _gb_texts(Ideal.of(VS, [X**2 - Y, X**3])) == ["y^2", "x*y", "x^2 - y"]


def test_gb_single_generator_monic():
    assert _gb_texts(Ideal.of(VS, [3 * (X**2 - Y)])) == ["x^2 - y"]


def test_gb_already_complete():
    assert _gb_texts(Ideal.of(VS, [X, Y])) == ["y", "x"]


def test_gb_unit_short_circuit():
    res = buchberger(Ideal.of(VS, [X, X - MPoly.constant(VS, 1), Y**5]))
    assert res.basis is not None
    assert ideal_contains_one(res)


def test_gb_rejects_empty():
    with pytest.raises(ValueError):
        buchberger(Ideal.of(VS, []))


def test_ideal_of_drops_zero_and_duplicates():
    ideal = Ideal.of(VS, [X, MPoly.zero(VS), X, Y])
    assert len(ideal.generators) == 2


def test_gb_invariant_under_generator_order():
    gens = [X**2 - Y, X**3, X * Y - Y]
    expect = None
    for perm in itertools.permutations(gens):
        texts = _gb_texts(Ideal.of(VS, list(perm)))
        if expect is None:
            expect = texts
        assert texts == expect


def _nf(p, divisors):
    """``normal_form`` of MPolys, packed and unpacked by the engine's packing."""
    pk = _Packing.of([p, *divisors])
    return groebner._unpacked(pk, p.varset, normal_form(
        groebner._packed(pk, p), [groebner._packed(pk, g) for g in divisors], pk.guard))


def test_normal_form_of_members_vanishes():
    res = buchberger(Ideal.of(VS, [X**2 - Y, X**3]))
    rng = random.Random(SEED)
    for _ in range(100):
        combo = MPoly.zero(VS)
        for g in (X**2 - Y, X**3):
            mult = MPoly(VS, {(rng.randint(0, 2), rng.randint(0, 2)):
                              Fraction(rng.randint(-3, 3))})
            combo = combo + mult * g
        assert _nf(combo, res.basis).is_zero()


def reference_normal_form(p, basis):
    """The engine's earlier normal form: a full max() scan of the working
    terms per reduction step, first dividing basis element as reducer."""
    lead_data = [(max(g.terms, key=grevlex_key), g) for g in basis if not g.is_zero()]
    work = dict(p.terms)
    out: dict[Exponents, Fraction] = {}
    while work:
        mon = max(work, key=grevlex_key)
        coeff = work.pop(mon)
        for lm, g in lead_data:
            if all(x <= y for x, y in zip(lm, mon)):
                shift = tuple(a - b for a, b in zip(mon, lm))
                factor = coeff / g.terms[lm]
                for eg, cg in g.terms.items():
                    if eg == lm:
                        continue
                    tgt = tuple(a + b for a, b in zip(eg, shift))
                    s = work.get(tgt, Fraction(0)) - factor * cg
                    if s:
                        work[tgt] = s
                    else:
                        work.pop(tgt, None)
                break
        else:
            out[mon] = coeff
    result = MPoly(p.varset)
    result.terms = out
    return result


def _random_poly(rng, varset, n_terms, max_deg):
    p = MPoly.zero(varset)
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_deg) for _ in varset.names)
        p = p + MPoly(varset, {exps: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
    return p


def test_normal_form_matches_reference_scan():
    # Divisor lists are arbitrary, not Groebner bases, so the remainder
    # depends on which divisor reduces each term: equal results show the
    # heap keeps both the term order and the reducer choice.
    rng = random.Random(SEED)
    for _ in range(300):
        divisors = [_random_poly(rng, VS3, rng.randint(1, 4), 2)
                    for _ in range(rng.randint(1, 4))]
        divisors.insert(rng.randint(0, len(divisors)), MPoly.zero(VS3))
        p = _random_poly(rng, VS3, rng.randint(0, 12), 5)
        got = _nf(p, divisors)
        want = reference_normal_form(p, divisors)
        assert got == want
        assert list(got.terms) == list(want.terms)


def test_normal_form_is_linear():
    res = buchberger(Ideal.of(VS, [X**2 - Y]))
    p = X**3 + Y
    q = X * Y - MPoly.constant(VS, 2)
    lhs = _nf(p + q, res.basis)
    assert lhs == _nf(p, res.basis) + _nf(q, res.basis)


# ---------------------------------------------------------------------------
# the integer basis kernel


def monic_s_poly(g1, g2, lm1, lm2):
    """The engine's earlier S-polynomial: monomial multipliers with a
    Fraction 1/lc each, through MPoly products."""
    lcm = tuple(map(max, lm1, lm2))
    m1 = MPoly(g1.varset, {tuple(a - b for a, b in zip(lcm, lm1)): 1 / g1.terms[lm1]})
    m2 = MPoly(g2.varset, {tuple(a - b for a, b in zip(lcm, lm2)): 1 / g2.terms[lm2]})
    return m1 * g1 - m2 * g2


def _random_int_poly(rng, varset, n_terms, max_deg):
    # Coefficients share small prime factors, so gcd(lc1, lc2) is often not 1.
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_deg) for _ in varset.names)
        terms[exps] = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 35))
    return MPoly(varset, terms)


def test_integer_s_poly_matches_monic_oracle():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(300):
        polys = [_random_int_poly(rng, VS3, rng.randint(1, 5), 3) for _ in range(rng.randint(2, 5))]
        basis = [MPoly(VS3, primitive_terms(p.terms)) for p in polys if p.terms]
        if len(basis) < 2:
            continue
        int_basis = [MPoly._of(VS3, primitive_terms(g.terms)) for g in basis]
        lms = [max(g.terms, key=grevlex_key) for g in basis]
        i, j = rng.sample(range(len(basis)), 2)
        pk = _Packing.of(basis)
        g1, g2 = groebner._packed(pk, int_basis[i]), groebner._packed(pk, int_basis[j])
        s_new = groebner._unpacked(pk, VS3, groebner._s_poly(g1, g2, pk.lcm(g1.lm, g2.lm)))
        s_old = monic_s_poly(basis[i], basis[j], lms[i], lms[j])
        assert all(type(c) is int for c in s_new.terms.values())
        assert tuple(map(max, lms[i], lms[j])) not in s_new.terms
        assert set(s_new.terms) == set(s_old.terms)
        nf_new = _nf(s_new, int_basis)
        nf_old = _nf(s_old, basis)
        assert set(nf_new.terms) == set(nf_old.terms)
        if nf_new.terms:
            assert primitive_terms(nf_new.terms) == primitive_terms(nf_old.terms)
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# packed monomials


def _random_exps(rng, n, top):
    """An exponent vector of degree at most top, top itself one time in
    four; single entries reach top too."""
    total = top if rng.random() < 0.25 else rng.randint(0, top)
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))


@pytest.mark.parametrize("n", range(1, 7))
def test_packed_monomials_match_exponent_vectors(n):
    rng = random.Random(SEED + n)
    for degree in (1, 5, 23):
        pk = _Packing(n, degree)
        top = pk.max_deg
        assert top >= 2 * degree
        corners = [tuple(top if k == j else 0 for k in range(n)) for j in range(n)]
        vecs = [(0,) * n, *corners] + [_random_exps(rng, n, top) for _ in range(150)]
        for _ in range(300):
            e1, e2 = rng.choice(vecs), rng.choice(vecs)
            if rng.random() < 0.3:  # a divisor of e2, and its cofactor
                e1 = tuple(rng.randint(0, e) for e in e2)
            m1, m2 = pk.pack(e1), pk.pack(e2)
            assert pk.unpack(m1) == e1 and pk.degree(m1) == sum(e1)
            assert (m1 < m2) == (grevlex_key(e1) < grevlex_key(e2))
            assert (m1 == m2) == (e1 == e2)
            assert (not (m2 - m1) & pk.guard) == divides(e1, e2)
            lcm = tuple(map(max, e1, e2))
            assert pk.lcm(m1, m2) == pk.pack(lcm)
            assert pk.unpack(pk.lcm(m1, m2)) == lcm and pk.degree(pk.lcm(m1, m2)) == sum(lcm)
            # Words are the low fields of the packed ints; they multiply
            # by + too, and unpack reads them back.
            w1, w2 = pk.word(e1), pk.word(e2)
            assert pk.unpack(w1) == e1 and pk.unpack(m1 - w1) == (0,) * n
            if sum(e1) + sum(e2) <= top:
                assert m1 + m2 == pk.pack(tuple(map(add, e1, e2)))
                assert w1 + w2 == pk.word(tuple(map(add, e1, e2)))
                assert pk.unpack(w1 + w2) == tuple(map(add, e1, e2))
            if divides(e1, e2):
                assert m2 - m1 == pk.pack(tuple(map(sub, e2, e1)))


def _watch_packings(monkeypatch):
    """The degree limit of each packed run, in the order the runs start."""
    limits = []
    real_run = groebner._buchberger_packed

    def watched_run(varset, gens, packing, budget):
        limits.append(packing.max_deg)
        return real_run(varset, gens, packing, budget)

    monkeypatch.setattr(groebner, "_buchberger_packed", watched_run)
    return limits


def test_overflowing_s_pair_reruns_with_wider_fields(monkeypatch):
    # Degree-3 input: the first packing holds degree 7, and an S-pair of
    # degree 8 makes the run start again with wider fields. Basis and pair
    # count are pinned from the engine on exponent tuples.
    x, y, z = (MPoly.variable(VS3, n) for n in "xyz")
    ideal = Ideal.of(VS3, [x * y**2 - y * z**2, x * z - y**3])
    limits = _watch_packings(monkeypatch)
    res = buchberger(ideal)
    assert limits == [7, 31]
    assert res.pairs_processed == 7
    assert [poly_text(g) for g in res.basis] == [
        "y^3 - x*z", "x*y^2 - y*z^2", "y^2*z^2 - x^2*z", "x^2*y*z - x*z^3",
        "y*z^4 - x^3*z", "x*z^6 - x^5*z"]
    # A pair budget counts the pairs of the run that finishes.
    for n in range(7):
        res = buchberger(ideal, Budget(max_pairs=n))
        assert res.basis is None and res.pairs_processed == n


def test_high_degree_input_fits_the_first_packing(monkeypatch):
    x, y, z = (MPoly.variable(VS3, n) for n in "xyz")
    limits = _watch_packings(monkeypatch)
    res = buchberger(Ideal.of(VS3, [x**300 * y - z**2, y**2 * z - x**150]))
    assert limits == [1023]
    assert res.pairs_processed == 1
    assert [poly_text(g) for g in res.basis] == ["y^5*z^2 - z^2", "x^150 - y^2*z"]


def test_reduced_basis_is_fractions_and_no_float_anywhere(monkeypatch):
    seen: set[type] = set()
    results = []
    real_normal_form, real_buchberger = groebner.normal_form, groebner.buchberger

    def watched_normal_form(p, basis, *rest):
        out = real_normal_form(p, basis, *rest)
        for poly in (p, out, *basis):
            seen.update(map(type, poly.terms.values()))
        return out

    def watched_buchberger(*args, **kwargs):
        res = real_buchberger(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(groebner, "normal_form", watched_normal_form)
    monkeypatch.setattr(groebner, "buchberger", watched_buchberger)
    # Both presentations' ideals I + (1 - y*p) at every index; (4,6), i = 2
    # contains 1.
    for a, b in ((4, 6), (4, 7)):
        check_g(LocalModel(a, b))
    x, y, z = (MPoly.variable(VS3, n) for n in "xyz")
    one = MPoly.constant(VS3, 1)
    for ideal in (Ideal.of(VS, [X**2 - Y, X**3]),
                  Ideal.of(VS, [3 * (X**2 - Y)]),
                  Ideal.of(VS, [X - MPoly.constant(VS, 1), Y**5]),
                  Ideal.of(VS3, [x**2 + y + z - one, x + y**2 + z - one, x + y + z**2 - one])):
        groebner.buchberger(ideal)
    assert len(results) == 12 + 4
    for res in results:
        assert res.basis is not None
        for g in res.basis:
            assert all(type(c) is Fraction for c in g.terms.values())
    assert seen <= {int, Fraction}
    assert int in seen


# ---------------------------------------------------------------------------
# budgets


def test_budget_max_pairs_timeout():
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(max_pairs=1))
    assert res.basis is None


def test_budget_generous_completes():
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(seconds=30))
    assert res.basis is not None


def test_contains_one_needs_basis():
    gens = [X**3 - Y**2, X**2 * Y - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(max_pairs=0))
    assert res.basis is None
    with pytest.raises(ValueError):
        ideal_contains_one(res)


# ---------------------------------------------------------------------------
# radical membership


def test_radical_membership_basic():
    assert radical_member(X, Ideal.of(VS, [X**2])).verdict is Membership.TRUE
    x, y, z = (MPoly.variable(VS3, n) for n in "xyz")
    assert radical_member(x + y, Ideal.of(VS3, [x**2, y**2])).verdict is Membership.TRUE
    assert radical_member(z, Ideal.of(VS3, [x])).verdict is Membership.FALSE


def test_radical_membership_aux_name_collision():
    # a variable literally named y must not break the auxiliary construction
    assert radical_member(Y, Ideal.of(VS, [Y**3])).verdict is Membership.TRUE


def test_radical_membership_zero_ideal():
    empty = Ideal.of(VS, [])
    assert radical_member(MPoly.zero(VS), empty).verdict is Membership.TRUE
    assert radical_member(X, empty).verdict is Membership.FALSE


def test_radical_membership_timeout_propagates():
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    res = radical_member(X + Y, Ideal.of(VS, gens), budget=Budget(max_pairs=1))
    assert res.verdict is Membership.TIMEOUT


# ---------------------------------------------------------------------------
# condition (T)


def test_check_t_double_point():
    m = LocalModel(2, 3)
    assert check_t(m, (Fraction(1),))
    assert check_t(m, (Fraction(-7, 3),))
    assert not check_t(m, (Fraction(0),))


def test_check_t_46():
    m = LocalModel(4, 6)
    assert check_t(m, (Fraction(1), Fraction(1), Fraction(1)))
    assert not check_t(m, (Fraction(0), Fraction(0), Fraction(0)))
    # jacbar vanishes whenever c3 = 0
    assert not check_t(m, (Fraction(5), Fraction(0), Fraction(2)))


def test_check_t_arity():
    with pytest.raises(ValueError):
        check_t(LocalModel(4, 6), (Fraction(1),))


def test_check_t_matches_jacobian_determinant():
    # Differential test: the pivot test at the point against the symbolic
    # determinant jac_bar evaluated there. Every pattern of forced zero
    # coordinates is drawn, so non-transversal points occur at each model.
    rng = random.Random(SEED)
    verdicts = []
    for a in range(2, 6):
        for b in range(a + 1, 13):
            if b % a == 0:
                continue
            model = LocalModel(a, b)
            det = jac_bar(model)
            for zeros in itertools.product((False, True), repeat=a - 1):
                for _ in range(2):
                    point = tuple(Fraction(0) if z else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for z in zeros)
                    expected = det.evaluate(point) != 0
                    assert check_t(model, point) is expected, (a, b, point)
                    verdicts.append(expected)
    assert verdicts.count(False) >= 50 and verdicts.count(True) >= 50


# ---------------------------------------------------------------------------
# condition (G)


def test_check_g_46_per_index():
    verdict = check_g(LocalModel(4, 6), Budget(seconds=60))
    assert verdict.status is GStatus.FAILS
    statuses = {r.index: r.status for r in verdict.per_index}
    assert statuses == {1: GStatus.HOLDS, 2: GStatus.FAILS, 3: GStatus.HOLDS}


def test_check_g_34_holds():
    verdict = check_g(LocalModel(3, 4), Budget(seconds=60))
    assert verdict.status is GStatus.HOLDS
    assert all(r.status is GStatus.HOLDS for r in verdict.per_index)


def test_check_g_double_point_always_holds():
    # The ideal of the other obstructions is empty, so membership is
    # decided without a Groebner run.
    for b in (3, 5, 9, 15):
        verdict = check_g(LocalModel(2, b))
        assert verdict.status is GStatus.HOLDS
        [result] = verdict.per_index
        assert result.membership is Membership.FALSE
        assert result.pairs_processed == 0


def test_check_g_56_pair_counts():
    # Pins the pair-selection order: any change to which S-pairs are made,
    # or in what order, moves these counts.
    verdict = check_g(LocalModel(5, 6))
    assert verdict.status is GStatus.HOLDS
    assert [r.pairs_processed for r in verdict.per_index] == [252, 288, 344, 224]


def test_check_g_57_pair_counts():
    verdict = check_g(LocalModel(5, 7))
    assert verdict.status is GStatus.HOLDS
    assert [r.status for r in verdict.per_index] == [GStatus.HOLDS] * 4
    assert [r.pairs_processed for r in verdict.per_index] == [400, 530, 366, 246]


class _FakeClock:
    """Stands in for time.monotonic; each normal form costs one second."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        monkeypatch.setattr(groebner, "monotonic", lambda: self.now)
        real_normal_form = groebner.normal_form

        def slow_normal_form(*args):
            self.now += 1.0
            return real_normal_form(*args)

        monkeypatch.setattr(groebner, "normal_form", slow_normal_form)


def test_budget_clock_shared_by_both_presentations(monkeypatch):
    _FakeClock(monkeypatch)
    model = LocalModel(3, 4)
    runs = [radical_member(cand, ideal).elapsed
            for ideal, cand in (_presentation_obstruction(model, 1),
                                _presentation_simplified(model, 1))]
    assert min(runs) >= 2
    free = check_g_index(model, 1)
    assert free.status is GStatus.HOLDS
    assert free.elapsed == sum(runs)
    # Each run fits the budget alone, both together do not.
    res = check_g_index(model, 1, Budget(seconds=max(runs) + 0.5))
    assert res.status is GStatus.TIMEOUT
    assert res.elapsed <= sum(runs)
    assert check_g_index(model, 1, Budget(seconds=sum(runs))).status is GStatus.HOLDS


def test_budget_clock_shared_across_indices(monkeypatch):
    _FakeClock(monkeypatch)
    model = LocalModel(3, 4)
    spent = [r.elapsed for r in check_g(model).per_index]
    verdict = check_g(model, Budget(seconds=spent[0] + 1))
    assert [r.status for r in verdict.per_index] == [GStatus.HOLDS, GStatus.TIMEOUT]
    assert verdict.status is GStatus.TIMEOUT
    # Elapsed stays per index: the second reports only its own time.
    assert verdict.per_index[0].elapsed == spent[0]
    assert verdict.per_index[1].elapsed < spent[1]


def test_expired_budget_builds_no_presentation(monkeypatch):
    clock = _FakeClock(monkeypatch)
    builds = []
    for name in ("_presentation_obstruction", "_presentation_simplified"):
        def build(*args, real=getattr(groebner, name), name=name):
            builds.append(name)
            return real(*args)
        monkeypatch.setattr(groebner, name, build)
    model = LocalModel(3, 4)
    assert check_g(model).status is GStatus.HOLDS
    assert builds == ["_presentation_obstruction", "_presentation_simplified"] * 2
    # A clock already run out calls neither builder.
    builds.clear()
    budget = Budget(seconds=0.5).start()
    clock.now += 1
    verdict = check_g(model, budget)
    assert builds == []
    assert verdict.status is GStatus.TIMEOUT
    assert [(r.status, r.pairs_processed) for r in verdict.per_index] == [
        (GStatus.TIMEOUT, 0)] * 2
    # A clock that runs out in the first run (after two one-second pairs)
    # skips the second presentation.
    res = check_g_index(model, 1, Budget(seconds=1.5))
    assert builds == ["_presentation_obstruction"]
    assert res.status is GStatus.TIMEOUT
    assert res.pairs_processed == 2


def test_budget_bounds_final_inter_reduction(monkeypatch):
    clock = _FakeClock(monkeypatch)
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    free = buchberger(Ideal.of(VS, gens))
    assert free.basis is not None
    # One normal form per processed pair, then at least two more in the
    # inter-reduction.
    assert clock.now >= free.pairs_processed + 2
    # The pair loop fits the budget; the inter-reduction runs past it.
    res = buchberger(Ideal.of(VS, gens), budget=Budget(seconds=free.pairs_processed + 0.5))
    assert res.basis is None
    assert res.pairs_processed == free.pairs_processed
    assert res.elapsed < free.elapsed


def test_budget_max_pairs_per_run():
    # max_pairs bounds each Buchberger run, not the sum over a check.
    model = LocalModel(3, 4)
    free = check_g_index(model, 1)
    runs = [radical_member(cand, ideal).pairs_processed
            for ideal, cand in (_presentation_obstruction(model, 1),
                                _presentation_simplified(model, 1))]
    assert free.pairs_processed == sum(runs)
    assert check_g_index(model, 1, Budget(max_pairs=max(runs))).status is GStatus.HOLDS


def test_check_g_index_timeout():
    res = check_g_index(LocalModel(4, 6), 1, Budget(max_pairs=1))
    assert res.status is GStatus.TIMEOUT
    assert res.membership is Membership.TIMEOUT


def test_pair_budget_timeout_counts_only_processed_pairs():
    # The pair that the budget refuses is not counted.
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    for n in (0, 1, 2):
        res = buchberger(Ideal.of(VS, gens), budget=Budget(max_pairs=n))
        assert res.basis is None
        assert res.pairs_processed == n
    # One pair for each presentation's run.
    assert check_g_index(LocalModel(4, 6), 1, Budget(max_pairs=1)).pairs_processed == 2


def test_clock_timeout_counts_only_processed_pairs(monkeypatch):
    # Each processed pair takes one normal form, one fake second: with 2.5 s
    # the clock runs out before the fourth pair, after three.
    clock = _FakeClock(monkeypatch)
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(seconds=2.5))
    assert res.basis is None
    assert res.pairs_processed == clock.now == 3


def test_check_g_index_validates_index():
    with pytest.raises(ValueError):
        check_g_index(LocalModel(3, 4), 3)


def test_presentations_agree_on_small_grid():
    for a, b in ((3, 4), (3, 5), (4, 5), (4, 6), (4, 7)):
        model = LocalModel(a, b)
        for i in range(1, a):
            ideal1, cand1 = _presentation_obstruction(model, i)
            ideal2, cand2 = _presentation_simplified(model, i)
            r1 = radical_member(cand1, ideal1)
            r2 = radical_member(cand2, ideal2)
            assert r1.verdict is r2.verdict, (a, b, i)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_46_index_1():
    m = LocalModel(4, 6)
    point = (Fraction(2), Fraction(6), Fraction(-5))
    assert big_f(m, 2).evaluate(point) == 0
    assert big_f(m, 3).evaluate(point) == 0
    assert big_f(m, 1).evaluate(point) == -27
    assert jac_bar(m).evaluate(point) == Fraction(15309, 32)
    assert witness_verify(m, 1, point)


def test_witness_46_index_3():
    m = LocalModel(4, 6)
    point = (Fraction(0), Fraction(1), Fraction(0))
    assert big_f(m, 1).evaluate(point) == 0
    assert big_f(m, 2).evaluate(point) == 0
    assert big_f(m, 3).evaluate(point) == Fraction(-1, 16)
    assert jac_bar(m).evaluate(point) == Fraction(27, 1024)
    assert witness_verify(m, 3, point)


def test_witness_rejects_wrong_point():
    m = LocalModel(4, 6)
    assert not witness_verify(m, 1, (Fraction(1), Fraction(1), Fraction(1)))
    assert not witness_verify(m, 2, (Fraction(0), Fraction(1), Fraction(0)))
