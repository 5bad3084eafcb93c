"""Budgeted Groebner engine, radical membership, and the decision
procedures for transversality and genericity."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

import pytest

from equigen import cli, expansion, groebner, polycore
from equigen.expansion import LocalModel, big_f, jac_bar
from equigen.groebner import (
    Budget,
    GStatus,
    Ideal,
    InternalConsistencyError,
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
    reduced_basis,
)
from equigen.polycore import Exponents, MPoly, VarSet, _Packing, grevlex_key, poly_text

from oracles import divides, loop_basis, variable, witness_verify

VS = VarSet(("x", "y"))
VS3 = VarSet(("x", "y", "z"))
X = variable(VS, "x")
Y = variable(VS, "y")

SEED = 20260816


def _gb_texts(ideal, budget=None):
    basis = reduced_basis(ideal, budget)
    assert basis is not None
    return [poly_text(g) for g in basis]


# ---------------------------------------------------------------------------
# Buchberger basics


def test_gb_textbook_example():
    assert _gb_texts(Ideal.of(VS, [X**2 - Y, X**3])) == ["y^2", "x*y", "x^2 - y"]


def test_gb_single_generator_monic():
    assert _gb_texts(Ideal.of(VS, [3 * (X**2 - Y)])) == ["x^2 - y"]


def test_gb_already_complete():
    assert _gb_texts(Ideal.of(VS, [X, Y])) == ["y", "x"]


def test_gb_unit_short_circuit():
    ideal = Ideal.of(VS, [X, X - MPoly.constant(VS, 1), Y**5])
    res = buchberger(ideal)
    assert res.entries is not None
    assert ideal_contains_one(res)
    assert reduced_basis(ideal) == [MPoly.constant(VS, 1)]


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


def test_reduced_basis_runs_the_module_pair_loop_once(monkeypatch):
    # reduced_basis looks buchberger up on the module, so a wrapper there
    # (the benchmark's tracer) sees its one run, with the ideal and budget
    # it was given.
    calls = []
    real_buchberger = groebner.buchberger

    def watched(*args, **kwargs):
        calls.append((args, kwargs))
        return real_buchberger(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", watched)
    ideal, budget = Ideal.of(VS, [X**2 - Y, X**3]), Budget(seconds=30)
    assert [poly_text(g) for g in reduced_basis(ideal, budget)] == ["y^2", "x*y", "x^2 - y"]
    ((args, kwargs),) = calls
    assert len(args) == 2 and args[0] is ideal and args[1] is budget and not kwargs


def _unpacked(packing, varset, terms):
    """Packed engine terms as an MPoly, their coefficients kept as they are."""
    return MPoly._of(varset, {packing.unpack(m): c for m, c in terms.items()})


def _pairs(terms):
    """Coefficients as the (numerator, denominator) pairs ``_entry`` reads."""
    return {e: (Fraction(c).numerator, Fraction(c).denominator) for e, c in terms.items()}


def _packed_entry(packing, p):
    """The engine entry of a nonzero MPoly p, as ``buchberger`` makes a
    generator's."""
    pairs = _pairs({packing.pack(e): c for e, c in p.terms.items()})
    return groebner._entry(pairs, max(pairs))


def _nf(p, divisors):
    """``normal_form`` of MPolys, packed and unpacked by the engine's packing,
    as an MPoly with the remainder's primitive integer coefficients. p enters
    as its primitive multiple, each nonzero divisor as its entry."""
    pk = _Packing.of([p, *divisors])
    basis = [_packed_entry(pk, g) for g in divisors if g.terms]
    terms = _packed_entry(pk, p).terms if p.terms else {}
    return _unpacked(pk, p.varset, normal_form(terms, basis, pk.guard).terms)


def _primitive(terms):
    """The primitive integer multiple of terms, exponent-keyed, whose
    grevlex-leading coefficient is positive; the terms keep their order."""
    if not terms:
        return {}
    content = Fraction(gcd(*(Fraction(c).numerator for c in terms.values())),
                       lcm(*(Fraction(c).denominator for c in terms.values())))
    if terms[max(terms, key=grevlex_key)] < 0:
        content = -content
    return {e: int(c / content) for e, c in terms.items()}


def _primitive_poly(p):
    return MPoly._of(p.varset, _primitive(p.terms))


# ---------------------------------------------------------------------------
# the one normalization, _entry


def test_entry_makes_fraction_content_primitive():
    # 2/3 x^2 - 2/3 y: integer coefficients with gcd 1, leading one positive.
    terms = {(2, 0): Fraction(4, 6), (0, 1): Fraction(-2, 3)}
    lm, lc, out = groebner._entry(_pairs(terms), (2, 0))
    assert (lm, lc) == ((2, 0), 1)
    assert poly_text(MPoly(VS, out)) == "x^2 - y"


def test_entry_flips_negative_leading():
    lm, lc, out = groebner._entry(_pairs({(2, 0): -2, (0, 1): 2}), (2, 0))
    assert lc == 1 and poly_text(MPoly(VS, out)) == "x^2 - y"


def test_entry_sign_taken_from_the_lead():
    # x*y^3 leads in grevlex, x^2 in lex: the sign follows the lead passed.
    pairs = _pairs({(2, 0): Fraction(3, 2), (1, 3): Fraction(-9, 4)})
    entry = groebner._entry(pairs, (1, 3))
    assert entry == ((1, 3), 3, {(2, 0): -2, (1, 3): 3})
    assert all(type(c) is int for c in entry.terms.values())
    assert list(entry.terms) == list(pairs)
    assert groebner._entry(pairs, (2, 0)).terms == {(2, 0): 2, (1, 3): -3}
    # Mixed int and Fraction content: 6x - 4/3 y is 2/3 (9x - 2y).
    assert groebner._entry(_pairs({(1, 0): 6, (0, 1): Fraction(-4, 3)}), (1, 0)) == (
        (1, 0), 9, {(1, 0): 9, (0, 1): -2})
    # Integer content: 12x - 18y is 6 (2x - 3y).
    assert groebner._entry(_pairs({(1, 0): 12, (0, 1): -18}), (1, 0)).terms == {
        (1, 0): 2, (0, 1): -3}


def test_normal_form_of_members_vanishes():
    basis = reduced_basis(Ideal.of(VS, [X**2 - Y, X**3]))
    rng = random.Random(SEED)
    for _ in range(100):
        combo = MPoly.zero(VS)
        for g in (X**2 - Y, X**3):
            mult = MPoly(VS, {(rng.randint(0, 2), rng.randint(0, 2)):
                              Fraction(rng.randint(-3, 3))})
            combo = combo + mult * g
        assert _nf(combo, basis).is_zero()


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
        want = _primitive_poly(reference_normal_form(p, divisors))
        assert got == want
        assert list(got.terms) == list(want.terms)


def _big_int_poly(rng, varset, n_terms, max_deg):
    """An int polynomial with 100-300-bit coefficients, about half of them
    sharing one 64-bit factor, and a positive leading coefficient."""
    shared = rng.getrandbits(64) | 1
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_deg) for _ in varset.names)
        c = rng.choice((-1, 1)) * (rng.getrandbits(rng.randint(100, 300)) | 1)
        terms[exps] = c * shared if rng.random() < 0.5 else c
    lead = max(terms, key=grevlex_key)
    terms[lead] = abs(terms[lead])
    return MPoly._of(varset, terms)


def test_normal_form_with_big_integer_reducers_matches_reference():
    # The engine's case: int reducers whose leading coefficient is above 1,
    # so reduction steps leave the integers. p = (n / lc) * x^m * g + h, with
    # g the first divisor and h below p's leading term, loses that term to
    # g. The step cancels the Fraction part of each term p shares with h,
    # leaving h's coefficient, often an integer, and takes every other term
    # to 0, so p's remainder is h's, in value and term order.
    rng = random.Random(SEED + 1)
    shared_terms = 0
    for case in range(200):
        divisors = [_big_int_poly(rng, VS3, rng.randint(2, 5), 3)
                    for _ in range(rng.randint(1, 4))]
        lcs = [d.terms[max(d.terms, key=grevlex_key)] for d in divisors]
        g = divisors[0]
        lm = max(g.terms, key=grevlex_key)
        shift = tuple(rng.randint(0, 2) for _ in VS3.names)
        lead = tuple(map(add, lm, shift))
        r = Fraction(rng.getrandbits(80) + 1, g.terms[lm])
        multiple = {tuple(map(add, e, shift)): r * c for e, c in g.terms.items()}
        h: dict = {}
        if case % 4:
            below = [e for e in multiple if e != lead]
            for _ in range(rng.randint(1, 8)):
                if below and rng.random() < 0.5:
                    e = rng.choice(below)
                else:
                    e = tuple(rng.randint(0, 4) for _ in VS3.names)
                if grevlex_key(e) >= grevlex_key(lead):
                    continue
                h[e] = rng.choice((Fraction(rng.getrandbits(200) - (1 << 199)),
                                   Fraction(rng.randint(-9, 9) * rng.choice(lcs)),
                                   Fraction(rng.getrandbits(90) + 1, rng.getrandbits(40) + 1)))
        shared_terms += len(set(h) & set(multiple))
        p = MPoly(VS3, h) + MPoly(VS3, multiple)
        got = _nf(p, divisors)
        want = _primitive_poly(reference_normal_form(p, divisors))
        assert got == want
        assert list(got.terms) == list(want.terms)
        assert all(type(c) is int for c in got.terms.values())
        rest = _primitive_poly(reference_normal_form(MPoly(VS3, h), divisors))
        assert got == rest and list(got.terms) == list(rest.terms)
        if not h:
            assert not got.terms
    assert shared_terms >= 100


def test_normal_form_is_linear():
    # The remainder of r*p + s*q is, up to its content, r and s times the
    # exact remainders of p and q; a nonzero multiple has p's own.
    basis = reduced_basis(Ideal.of(VS, [X**2 - Y]))
    p = X**3 + Y
    q = X * Y - MPoly.constant(VS, 2)
    nf_p, nf_q = (reference_normal_form(g, basis) for g in (p, q))
    for r, s in ((1, 1), (Fraction(-3, 2), 5), (7, Fraction(2, 9)), (0, -4)):
        assert _nf(r * p + s * q, basis) == _primitive_poly(r * nf_p + s * nf_q)
    assert _nf(Fraction(-5, 3) * p, basis) == _nf(p, basis) == _primitive_poly(nf_p)


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
        basis = [MPoly(VS3, _primitive(p.terms)) for p in polys if p.terms]
        if len(basis) < 2:
            continue
        int_basis = [MPoly._of(VS3, _primitive(g.terms)) for g in basis]
        lms = [max(g.terms, key=grevlex_key) for g in basis]
        i, j = rng.sample(range(len(basis)), 2)
        pk = _Packing.of(basis)
        g1, g2 = (_packed_entry(pk, int_basis[k]) for k in (i, j))
        s_new = _unpacked(pk, VS3, groebner._s_poly(g1, g2, pk.lcm(g1.lm, g2.lm)))
        s_old = monic_s_poly(basis[i], basis[j], lms[i], lms[j])
        assert all(type(c) is int for c in s_new.terms.values())
        assert tuple(map(max, lms[i], lms[j])) not in s_new.terms
        assert set(s_new.terms) == set(s_old.terms)
        nf_new = _nf(s_new, int_basis)
        nf_old = _primitive_poly(reference_normal_form(s_old, basis))
        assert nf_new == nf_old
        if nf_new.terms:
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

    def watched_run(gens, packing, budget):
        limits.append(packing.max_deg)
        return real_run(gens, packing, budget)

    monkeypatch.setattr(groebner, "_buchberger_packed", watched_run)
    return limits


def test_overflowing_s_pair_reruns_with_wider_fields(monkeypatch):
    # Degree-3 input: the first packing holds degree 7, and an S-pair of
    # degree 8 makes the run start again with wider fields. Basis and pair
    # count are pinned from the engine on exponent tuples.
    x, y, z = (variable(VS3, n) for n in "xyz")
    ideal = Ideal.of(VS3, [x * y**2 - y * z**2, x * z - y**3])
    limits = _watch_packings(monkeypatch)
    res = buchberger(ideal)
    assert limits == [7, 31]
    assert res.pairs_processed == 7
    assert [poly_text(g) for g in reduced_basis(ideal)] == [
        "y^3 - x*z", "x*y^2 - y*z^2", "y^2*z^2 - x^2*z", "x^2*y*z - x*z^3",
        "y*z^4 - x^3*z", "x*z^6 - x^5*z"]
    # A pair budget counts the pairs of the run that finishes.
    for n in range(7):
        res = buchberger(ideal, Budget(max_pairs=n))
        assert res.entries is None and res.pairs_processed == n


def test_high_degree_input_fits_the_first_packing(monkeypatch):
    x, y, z = (variable(VS3, n) for n in "xyz")
    limits = _watch_packings(monkeypatch)
    ideal = Ideal.of(VS3, [x**300 * y - z**2, y**2 * z - x**150])
    res = buchberger(ideal)
    assert limits == [1023]
    assert res.pairs_processed == 1
    assert [poly_text(g) for g in reduced_basis(ideal)] == ["y^5*z^2 - z^2", "x^150 - y^2*z"]


def test_reduced_basis_is_fractions_and_no_float_anywhere(monkeypatch):
    seen: set[type] = set()
    ideals = []
    real_normal_form, real_buchberger = groebner.normal_form, groebner.buchberger

    def watched_normal_form(p, basis, *rest):
        out = real_normal_form(p, basis, *rest)
        for terms in (p, out.terms, *(terms for _, _, terms in basis)):
            seen.update(map(type, terms.values()))
        seen.update(type(lc) for _, lc, _ in (out, *basis))
        return out

    def watched_buchberger(ideal, *args, **kwargs):
        ideals.append(ideal)
        return real_buchberger(ideal, *args, **kwargs)

    monkeypatch.setattr(groebner, "normal_form", watched_normal_form)
    monkeypatch.setattr(groebner, "buchberger", watched_buchberger)
    # Both presentations' ideals I + (1 - y*p) at every index; (4,6), i = 2
    # contains 1. Membership runs are not reduced, so each captured ideal's
    # reduced basis is computed here.
    for a, b in ((4, 6), (4, 7)):
        check_g(LocalModel(a, b))
    x, y, z = (variable(VS3, n) for n in "xyz")
    one = MPoly.constant(VS3, 1)
    for ideal in (Ideal.of(VS, [X**2 - Y, X**3]),
                  Ideal.of(VS, [3 * (X**2 - Y)]),
                  Ideal.of(VS, [X - MPoly.constant(VS, 1), Y**5]),
                  Ideal.of(VS3, [x**2 + y + z - one, x + y**2 + z - one, x + y + z**2 - one])):
        reduced_basis(ideal)
    assert len(ideals) == 12 + 4
    for ideal in list(ideals):
        basis = reduced_basis(ideal)
        assert basis is not None
        for g in basis:
            assert all(type(c) is Fraction for c in g.terms.values())
    # Inside the engine every coefficient is an int.
    assert seen == {int}


# ---------------------------------------------------------------------------
# budgets


def test_budget_max_pairs_timeout():
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(max_pairs=1))
    assert res.entries is None
    assert reduced_basis(Ideal.of(VS, gens), budget=Budget(max_pairs=1)) is None


def test_budget_generous_completes():
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    assert reduced_basis(Ideal.of(VS, gens), budget=Budget(seconds=30)) is not None


def test_contains_one_needs_basis():
    gens = [X**3 - Y**2, X**2 * Y - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(max_pairs=0))
    assert res.entries is None
    with pytest.raises(ValueError):
        ideal_contains_one(res)


# ---------------------------------------------------------------------------
# radical membership


def test_radical_membership_basic():
    assert radical_member(X, Ideal.of(VS, [X**2])).verdict is Membership.TRUE
    x, y, z = (variable(VS3, n) for n in "xyz")
    assert radical_member(x + y, Ideal.of(VS3, [x**2, y**2])).verdict is Membership.TRUE
    assert radical_member(z, Ideal.of(VS3, [x])).verdict is Membership.FALSE


def test_radical_membership_aux_name_collision():
    # a variable literally named y must not break the auxiliary construction
    assert radical_member(Y, Ideal.of(VS, [Y**3])).verdict is Membership.TRUE


def test_radical_membership_zero_ideal(monkeypatch):
    # The zero ideal is an ordinary run: J = (1 - y*p) is the constant 1
    # for p = 0 and otherwise one generator, so neither run makes a pair.
    runs = []
    real_buchberger = groebner.buchberger

    def capture(ideal, *args, **kwargs):
        res = real_buchberger(ideal, *args, **kwargs)
        runs.append((ideal, res))
        return res

    monkeypatch.setattr(groebner, "buchberger", capture)
    empty = Ideal.of(VS, [])
    zero = radical_member(MPoly.zero(VS), empty)
    assert zero.verdict is Membership.TRUE and zero.pairs_processed == 0
    nonzero = radical_member(X, empty)
    assert nonzero.verdict is Membership.FALSE and nonzero.pairs_processed == 0
    assert [len(ideal.generators) for ideal, _ in runs] == [1, 1]
    assert [res.pairs_processed for _, res in runs] == [0, 0]
    assert [loop_basis(ideal.varset, res) == [MPoly.constant(ideal.varset, 1)]
            for ideal, res in runs] == [True, False]
    assert [len(res.entries) for _, res in runs] == [1, 1]


@pytest.mark.parametrize("ab", [(4, 6), (5, 7)], ids=["4-6", "5-7"])
def test_radical_membership_builds_the_rabinowitsch_ideal(monkeypatch, ab):
    # Each generator is written over the extended variable set in one pass;
    # compare with the same ideal built by rename and ring operations.
    model = LocalModel(*ab)
    seen = []

    def capture(ideal, budget):
        seen.append(ideal)
        return groebner.GBResult(None, 0, 0.0)

    monkeypatch.setattr(groebner, "buchberger", capture)
    for i in range(1, model.a):
        for ideal, p in (_presentation_obstruction(model, i), _presentation_simplified(model, i)):
            assert radical_member(p, ideal).verdict is Membership.TIMEOUT
            big = seen[-1].varset
            assert big == ideal.varset.extend("y")
            gens = seen[-1].generators
            assert list(gens[:-1]) == [g.rename(big) for g in ideal.generators]
            assert gens[-1] == MPoly.constant(big, 1) - variable(big, "y") * p.rename(big)


# The default scan grid (a in 3..4, b <= 9, b not a multiple of a) at every
# index, plus (5,6) at i = 4.
SCAN_GRID_INDICES = [(a, b, i) for a in (3, 4) for b in range(a + 1, 10) if b % a
                     for i in range(1, a)] + [(5, 6, 4)]


@pytest.mark.parametrize("a, b, i", SCAN_GRID_INDICES,
                         ids=[f"{a}-{b}-{i}" for a, b, i in SCAN_GRID_INDICES])
def test_unreduced_membership_run_matches_reduced_basis(monkeypatch, a, b, i):
    # Both presentations' J = I + (1 - y*p): a membership run ends with its
    # pair loop. Its verdict and pair count are those of the reduced basis's
    # run, and its entries generate J as a Groebner basis: each basis
    # reduces the other to zero.
    runs = []

    def capture(ideal, *args, **kwargs):
        res = buchberger(ideal, *args, **kwargs)
        runs.append((ideal, res))
        return res

    monkeypatch.setattr(groebner, "buchberger", capture)
    model = LocalModel(a, b)
    for ideal, cand in (_presentation_obstruction(model, i), _presentation_simplified(model, i)):
        member = radical_member(cand, ideal)
        (big_ideal, run), = runs
        reduced = reduced_basis(big_ideal)
        (_, reduced_run), = runs[1:]
        runs.clear()
        assert member.pairs_processed == run.pairs_processed == reduced_run.pairs_processed
        contains_one = reduced == [MPoly.constant(big_ideal.varset, 1)]
        assert ideal_contains_one(run) is contains_one
        assert member.verdict is (Membership.TRUE if contains_one else Membership.FALSE)
        unreduced = loop_basis(big_ideal.varset, run)
        if contains_one:
            assert unreduced == reduced
            continue
        for g in unreduced:
            assert all(type(c) is int for c in g.terms.values())
            assert _nf(g, reduced).is_zero()
        for g in reduced:
            assert _nf(g, unreduced).is_zero()


def test_membership_never_inter_reduces(monkeypatch):
    # The check takes its verdict from the pair loop; only reduced_basis
    # reaches _reduce_basis.
    model = LocalModel(4, 7)
    expected = [check_g_index(model, i).status for i in range(1, model.a)]
    assert expected == [GStatus.HOLDS] * 3
    ideals = []

    def capture(ideal, *args, **kwargs):
        ideals.append(ideal)
        return buchberger(ideal, *args, **kwargs)

    def no_reduction(*args):
        raise AssertionError("inter-reduction reached")

    monkeypatch.setattr(groebner, "_reduce_basis", no_reduction)
    monkeypatch.setattr(groebner, "buchberger", capture)
    assert [check_g_index(model, i).status for i in range(1, model.a)] == expected
    assert len(ideals) == 6
    for ideal in list(ideals):
        with pytest.raises(AssertionError, match="inter-reduction reached"):
            reduced_basis(ideal)


def test_membership_run_that_holds_unpacks_nothing(monkeypatch):
    # A membership run takes its verdict from the packed pair loop: a run
    # that ends without [1] calls no _Packing.unpack and makes no MPoly.
    model = LocalModel(4, 7)
    made = {"unpack": 0, "mpoly": 0}
    real_unpack, real_init, real_of = _Packing.unpack, MPoly.__init__, MPoly._of.__func__

    def unpack(self, mon):
        made["unpack"] += 1
        return real_unpack(self, mon)

    def init(self, *args, **kwargs):
        made["mpoly"] += 1
        real_init(self, *args, **kwargs)

    def of(cls, varset, terms):
        made["mpoly"] += 1
        return real_of(cls, varset, terms)

    runs = []

    def counted(ideal, *args, **kwargs):
        made.update(unpack=0, mpoly=0)
        res = buchberger(ideal, *args, **kwargs)
        runs.append((res, dict(made)))
        return res

    monkeypatch.setattr(_Packing, "unpack", unpack)
    monkeypatch.setattr(MPoly, "__init__", init)
    monkeypatch.setattr(MPoly, "_of", classmethod(of))
    monkeypatch.setattr(groebner, "buchberger", counted)
    statuses = [check_g_index(model, i).status for i in range(1, model.a)]
    assert statuses == [GStatus.HOLDS] * 3
    assert len(runs) == 6
    assert [counts for _, counts in runs] == [{"unpack": 0, "mpoly": 0}] * 6
    assert not any(ideal_contains_one(res) for res, _ in runs)


def _watch_membership_runs(monkeypatch):
    """Per membership run of ``check_g``: its ideal and the (basis, copy
    of basis) that each of its normal forms got."""
    runs = []
    real_normal_form, real_buchberger = groebner.normal_form, groebner.buchberger

    def watched_buchberger(ideal, *args, **kwargs):
        runs.append((ideal, []))
        return real_buchberger(ideal, *args, **kwargs)

    def watched_normal_form(p, basis, guard):
        runs[-1][1].append((basis, list(basis)))
        return real_normal_form(p, basis, guard)

    monkeypatch.setattr(groebner, "buchberger", watched_buchberger)
    monkeypatch.setattr(groebner, "normal_form", watched_normal_form)
    return runs


def test_pair_loop_reads_one_growing_basis_of_reducer_triples(monkeypatch):
    # Every normal form of a run gets the run's own basis list: the same
    # object each time, only growing, its entries primitive reducer
    # triples (lm, lc, terms) that stay the same objects once built.
    runs = _watch_membership_runs(monkeypatch)
    check_g(LocalModel(4, 7))
    assert len(runs) == 6
    assert sum(len(calls) for _, calls in runs) > 100
    for _, calls in runs:
        prev = []
        for basis, snapshot in calls:
            assert basis is calls[0][0]
            assert len(snapshot) >= len(prev)
            assert all(a is b for a, b in zip(prev, snapshot))
            prev = snapshot
        for lm, lc, terms in prev:
            assert lm == max(terms) and lc == terms[lm] > 0
            assert all(type(c) is int for c in terms.values())
            assert gcd(*terms.values()) == 1


def test_each_basis_entry_is_made_primitive_once(monkeypatch):
    # The one normalization, _entry, runs once per generator and once per
    # nonzero remainder of the pair loop, each time with the packed
    # leading monomial as its lead. (4,6), i = 2 contains 1.
    runs = _watch_membership_runs(monkeypatch)
    leads = []
    real_entry = groebner._entry

    def watched_entry(pairs, lead):
        assert lead == max(pairs)
        leads.append(lead)
        return real_entry(pairs, lead)

    monkeypatch.setattr(groebner, "_entry", watched_entry)
    real_normal_form = groebner.normal_form
    remainders = []

    def counted_normal_form(*args):
        out = real_normal_form(*args)
        remainders.append(bool(out.terms))
        return out

    monkeypatch.setattr(groebner, "normal_form", counted_normal_form)
    for a, b in ((4, 6), (4, 7)):
        check_g(LocalModel(a, b))
    assert len(runs) == 12
    assert 0 < sum(remainders) < len(remainders)
    assert len(leads) == sum(len(ideal.generators) for ideal, _ in runs) + sum(remainders)
    assert 0 in leads


def test_normal_form_result_is_a_primitive_entry(monkeypatch):
    # The contract the benchmark's tracer reads: every result carries the
    # remainder's terms as coprime ints (ints have .numerator and
    # .denominator), the leading one positive, and zero is (None, 0, {}).
    # Membership runs and reduced runs both checked.
    results = []
    real_normal_form = groebner.normal_form

    def watched_normal_form(*args):
        out = real_normal_form(*args)
        results.append(out)
        return out

    monkeypatch.setattr(groebner, "normal_form", watched_normal_form)
    for a, b in ((4, 6), (4, 7)):
        check_g(LocalModel(a, b))
    reduced_basis(Ideal.of(VS, [X**2 - Y, X**3, X * Y - Y]))
    assert any(r.terms for r in results) and not all(r.terms for r in results)
    for r in results:
        lm, lc, terms = r
        assert r.terms is terms and r.lm == lm and r.lc == lc
        if lm is None:
            assert (lc, terms) == (0, {})
            continue
        assert lm == next(iter(terms)) == max(terms) and lc == terms[lm] > 0
        assert all(type(c) is int for c in terms.values())
        assert gcd(*terms.values()) == 1


def test_membership_builds_no_fraction(monkeypatch):
    # The pair loop holds ints and (numerator, denominator) pairs only: with
    # groebner's Fraction made to raise, the membership checks of (4,6)
    # and (4,7) give the same verdicts and pair counts. reduced_basis still
    # reaches it, when it makes its basis monic.
    def results():
        return [(r.index, r.status, r.pairs_processed)
                for a, b in ((4, 6), (4, 7)) for r in check_g(LocalModel(a, b)).per_index]

    expected = results()
    assert [status for _, status, _ in expected].count(GStatus.FAILS) == 1

    def no_fraction(*args):
        raise AssertionError("groebner built a Fraction")

    monkeypatch.setattr(groebner, "Fraction", no_fraction)
    assert results() == expected
    with pytest.raises(AssertionError, match="built a Fraction"):
        reduced_basis(Ideal.of(VS, [X**2 - Y, X**3]))


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
    # The ideal of the other obstructions is empty, so each membership run
    # has the one generator 1 - y*p and makes no pair.
    for b in (3, 5, 9, 15):
        verdict = check_g(LocalModel(2, b))
        assert verdict.status is GStatus.HOLDS
        [result] = verdict.per_index
        assert result.pairs_processed == 0


def test_check_g_56_pair_counts():
    # Pins the pair-selection order: any change to which S-pairs are made,
    # or in what order, moves these counts.
    verdict = check_g(LocalModel(5, 6))
    assert verdict.status is GStatus.HOLDS
    assert [r.pairs_processed for r in verdict.per_index] == [252, 288, 344, 224]


A5_PAIR_COUNTS = {6: [252, 288, 344, 224], 7: [400, 530, 366, 246],
                  8: [424, 714, 346, 454], 9: [1128, 516, 630, 436]}


@pytest.mark.parametrize("b", sorted(A5_PAIR_COUNTS))
def test_check_g_a5_pair_counts(b):
    # a = 5, b <= 9 is the exact engine's differential range: every index
    # holds, with these pairs per index.
    verdict = check_g(LocalModel(5, b))
    assert verdict.status is GStatus.HOLDS
    assert [r.status for r in verdict.per_index] == [GStatus.HOLDS] * 4
    assert [r.pairs_processed for r in verdict.per_index] == A5_PAIR_COUNTS[b]


@pytest.mark.parametrize("i, pairs", [(4, 860), (5, 776)])
def test_check_g_67_pair_counts(i, pairs):
    # The first a = 6 indices under test; (6,7) at i = 4 and 5 are the
    # cheapest of its five.
    result = check_g_index(LocalModel(6, 7), i)
    assert result.status is GStatus.HOLDS
    assert result.pairs_processed == pairs


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


def test_budget_clock_runs_from_when_it_is_made(monkeypatch):
    clock = _FakeClock(monkeypatch)
    budget = Budget(seconds=0.5)
    assert not budget.expired()
    clock.now += 1
    assert budget.expired()
    assert not Budget().expired()


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
    budget = Budget(seconds=0.5)
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


def test_clock_running_out_inside_jbar_determinant(monkeypatch, tmp_path):
    # Jbar's minors expansion tests the budget before each product. A clock
    # that runs out there gives a timeout with no pairs, before any pair
    # loop, and stores no Jbar: a later call with time to spare gives the
    # verdict and pairs of a check without a budget, and a scan stores no
    # entry.
    model = LocalModel(4, 6)
    free = check_g_index(model, 1)
    assert free.status is GStatus.HOLDS
    clock = _FakeClock(monkeypatch)
    in_det = []
    real_det = polycore.det_bareiss

    def det(*args):
        in_det.append(True)
        try:
            return real_det(*args)
        finally:
            in_det.pop()

    def monotonic():
        # Inside the determinant each read of the clock costs one second.
        if in_det:
            clock.now += 1.0
        return clock.now

    runs = []
    real_buchberger = groebner.buchberger

    def counted(*args):
        runs.append(args)
        return real_buchberger(*args)

    monkeypatch.setattr(polycore, "det_bareiss", det)
    monkeypatch.setattr(groebner, "monotonic", monotonic)
    monkeypatch.setattr(groebner, "buchberger", counted)
    expansion.jac_bar.cache_clear()
    res = check_g_index(model, 1, Budget(seconds=3.5))
    assert (res.status, res.pairs_processed) == (GStatus.TIMEOUT, 0)
    # The fourth product's test found the clock run out.
    assert runs == [] and clock.now == 4.0
    later = check_g_index(model, 1, Budget(seconds=10.0 ** 6))
    assert (later.status, later.pairs_processed) == (free.status, free.pairs_processed)
    assert clock.now > 4.0 + free.pairs_processed
    # Every index of a scan cell has its own clock, and each runs out in Jbar.
    expansion.jac_bar.cache_clear()
    row = cli._scan_cell((4, 6, Budget(seconds=3.5), str(tmp_path)))
    assert row["verdict"] == "timeout"
    assert [(e["verdict"], e["pairs"], e["poly_hashes"]) for e in row["indices"]] == [
        ("timeout", 0, None)] * 3
    assert list(tmp_path.iterdir()) == []


def test_budget_bounds_final_inter_reduction(monkeypatch):
    clock = _FakeClock(monkeypatch)
    ideal = Ideal.of(VS, [X**3 - Y**2, X**2 * Y - X, Y**3 - X])
    free = buchberger(ideal)
    # One normal form per processed pair.
    assert free.entries is not None and clock.now == free.pairs_processed
    # At least two more in the inter-reduction.
    clock.now = 0.0
    assert reduced_basis(ideal) is not None
    assert clock.now >= free.pairs_processed + 2
    # With one budget that the pair loop fits, the pair loop finishes and
    # the inter-reduction runs past it.
    runs = []
    real_buchberger = groebner.buchberger

    def capture(*args):
        runs.append(real_buchberger(*args))
        return runs[-1]

    monkeypatch.setattr(groebner, "buchberger", capture)
    assert reduced_basis(ideal, Budget(seconds=free.pairs_processed + 0.5)) is None
    (run,) = runs
    assert run.entries is not None
    assert run.pairs_processed == free.pairs_processed
    # The pair loop alone, given the same budget, ends inside it.
    res = buchberger(ideal, Budget(seconds=free.pairs_processed + 0.5))
    assert res.entries is not None
    assert res.pairs_processed == free.pairs_processed


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


def test_pair_budget_timeout_counts_only_processed_pairs():
    # The pair that the budget refuses is not counted.
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    for n in (0, 1, 2):
        res = buchberger(Ideal.of(VS, gens), budget=Budget(max_pairs=n))
        assert res.entries is None
        assert res.pairs_processed == n
    # One pair for each presentation's run.
    assert check_g_index(LocalModel(4, 6), 1, Budget(max_pairs=1)).pairs_processed == 2


def test_clock_timeout_counts_only_processed_pairs(monkeypatch):
    # Each processed pair takes one normal form, one fake second: with 2.5 s
    # the clock runs out before the fourth pair, after three.
    clock = _FakeClock(monkeypatch)
    gens = [X**3 - Y**2, X**2 * Y - X, Y**3 - X]
    res = buchberger(Ideal.of(VS, gens), budget=Budget(seconds=2.5))
    assert res.entries is None
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


def test_check_g_index_raises_when_presentations_disagree(monkeypatch):
    # (3,4) index 1 holds, so the obstruction form is not a member; a
    # simplified form that is the unit ideal says it is.
    def unit_ideal(model, i):
        one = MPoly.constant(model.varset, 1)
        return Ideal.of(model.varset, [one]), one

    monkeypatch.setattr(groebner, "_presentation_simplified", unit_ideal)
    with pytest.raises(InternalConsistencyError,
                       match=r"presentations disagree at \(a=3, b=4, i=1\): "
                             "obstruction form false, simplified form true"):
        check_g_index(LocalModel(3, 4), 1)


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
