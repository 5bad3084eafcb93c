"""Budgeted Groebner engine, radical membership, and the decision
procedures for transversality and genericity."""

import itertools
import random
from fractions import Fraction

import pytest

from equigen import groebner
from equigen.expansion import LocalModel, big_f, jac_bar
from equigen.groebner import (
    Budget,
    EngineStatus,
    GStatus,
    Ideal,
    Membership,
    MonomialOrder,
    _presentation_obstruction,
    _presentation_simplified,
    buchberger,
    check_g,
    check_g_index,
    check_t,
    ideal_contains_one,
    normal_form,
    radical_member,
    witness_verify,
)
from equigen.polycore import Exponents, MPoly, VarSet, poly_text

VS = VarSet(("x", "y"), (1, 1))
VS3 = VarSet(("x", "y", "z"), (1, 1, 1))
X = MPoly.variable(VS, "x")
Y = MPoly.variable(VS, "y")

SEED = 20260816


def _gb_texts(ideal, order=MonomialOrder.GREVLEX, budget=None):
    res = buchberger(ideal, order, budget)
    assert res.status is EngineStatus.OK
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
    assert res.status is EngineStatus.OK
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


def test_gb_lex_differs_from_grevlex():
    # lex eliminates: basis of (x^2 + y^2 - 1, x - y) in lex(x > y) has a
    # univariate-in-y element
    gens = [X**2 + Y**2 - MPoly.constant(VS, 1), X - Y]
    lex_texts = _gb_texts(Ideal.of(VS, gens), MonomialOrder.LEX)
    assert any("x" not in t for t in lex_texts)


def test_gb_lex_textbook_system():
    # x^2 + y + z = 1, x + y^2 + z = 1, x + y + z^2 = 1 in lex (x > y > z),
    # Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, Ch. 2 Sec. 8.
    x, y, z = (MPoly.variable(VS3, n) for n in "xyz")
    one = MPoly.constant(VS3, 1)
    ideal = Ideal.of(VS3, [x**2 + y + z - one, x + y**2 + z - one, x + y + z**2 - one])
    assert _gb_texts(ideal, MonomialOrder.LEX) == [
        "z^6 - 4*z^4 + 4*z^3 - z^2",
        "1/2*z^4 + y*z^2 - 1/2*z^2",
        "y^2 - z^2 - y + z",
        "z^2 + x + y - 1",
    ]


def test_normal_form_of_members_vanishes():
    res = buchberger(Ideal.of(VS, [X**2 - Y, X**3]))
    rng = random.Random(SEED)
    for _ in range(100):
        combo = MPoly.zero(VS)
        for g in (X**2 - Y, X**3):
            mult = MPoly.monomial(VS, (rng.randint(0, 2), rng.randint(0, 2)),
                                  Fraction(rng.randint(-3, 3)))
            combo = combo + mult * g
        assert normal_form(combo, res.basis, MonomialOrder.GREVLEX).is_zero()


def reference_normal_form(p, basis, order=MonomialOrder.GREVLEX):
    """The engine's earlier normal form: a full max() scan of the working
    terms per reduction step, first dividing basis element as reducer."""
    key = order.key
    lead_data = [(max(g.terms, key=key), g) for g in basis if not g.is_zero()]
    work = dict(p.terms)
    out: dict[Exponents, Fraction] = {}
    while work:
        mon = max(work, key=key)
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
        p = p + MPoly.monomial(varset, exps, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return p


@pytest.mark.parametrize("order", list(MonomialOrder))
def test_normal_form_matches_reference_scan(order):
    # Divisor lists are arbitrary, not Groebner bases, so the remainder
    # depends on which divisor reduces each term: equal results show the
    # heap keeps both the term order and the reducer choice.
    rng = random.Random(SEED)
    for _ in range(300):
        divisors = [_random_poly(rng, VS3, rng.randint(1, 4), 2)
                    for _ in range(rng.randint(1, 4))]
        divisors.insert(rng.randint(0, len(divisors)), MPoly.zero(VS3))
        p = _random_poly(rng, VS3, rng.randint(0, 12), 5)
        got = normal_form(p, divisors, order)
        want = reference_normal_form(p, divisors, order)
        assert got == want
        assert list(got.terms) == list(want.terms)


def test_normal_form_is_linear():
    res = buchberger(Ideal.of(VS, [X**2 - Y]))
    order = MonomialOrder.GREVLEX
    p = X**3 + Y
    q = X * Y - MPoly.constant(VS, 2)
    lhs = normal_form(p + q, res.basis, order)
    assert lhs == normal_form(p, res.basis, order) + normal_form(q, res.basis, order)


# ---------------------------------------------------------------------------
# budgets


def test_budget_max_pairs_timeout():
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(max_pairs=1))
    assert res.status is EngineStatus.TIMEOUT
    assert res.basis is None


def test_budget_generous_completes():
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(seconds=30))
    assert res.status is EngineStatus.OK


def test_contains_one_needs_basis():
    gens = [X**3 - Y**2, X**2 * Y - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(max_pairs=0))
    assert res.status is EngineStatus.TIMEOUT
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
                    values = dict(zip(model.varset.names, point))
                    expected = det.evaluate(values) != 0
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
    vals = dict(zip(("c2", "c3", "c4"), point))
    assert big_f(m, 2).evaluate(vals) == 0
    assert big_f(m, 3).evaluate(vals) == 0
    assert big_f(m, 1).evaluate(vals) == -27
    assert jac_bar(m).evaluate(vals) == Fraction(15309, 32)
    assert witness_verify(m, 1, point)


def test_witness_46_index_3():
    m = LocalModel(4, 6)
    point = (Fraction(0), Fraction(1), Fraction(0))
    vals = dict(zip(("c2", "c3", "c4"), point))
    assert big_f(m, 1).evaluate(vals) == 0
    assert big_f(m, 2).evaluate(vals) == 0
    assert big_f(m, 3).evaluate(vals) == Fraction(-1, 16)
    assert jac_bar(m).evaluate(vals) == Fraction(27, 1024)
    assert witness_verify(m, 3, point)


def test_witness_rejects_wrong_point():
    m = LocalModel(4, 6)
    assert not witness_verify(m, 1, (Fraction(1), Fraction(1), Fraction(1)))
    assert not witness_verify(m, 2, (Fraction(0), Fraction(1), Fraction(0)))
