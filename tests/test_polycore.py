"""Sparse polynomial core: ordering, arithmetic, text forms, determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equigen.expansion import (
    LocalModel,
    SigmaModel,
    f_bar,
    f_bar_jacobian_matrix,
    jac_bar,
    sigma_coeff,
)
from equigen.polycore import (
    MPoly,
    VarSet,
    _echelonize,
    _Packing,
    det_bareiss,
    evaluate_many,
    grevlex_key,
    monomial_text,
    poly_json,
    poly_text,
    product_sum,
)
from equigen.series import TSeries

from oracles import (
    constant,
    divides,
    evaluate_by_sums,
    poly,
    power,
    sub,
    tuple_product,
    variable,
    weighted_degree,
)

VS2 = VarSet(("x", "y"))
VS3 = VarSet(("x", "y", "z"))


def _poly(varset, terms):
    out = MPoly.zero(varset)
    for exps, coeff in terms:
        out = out + MPoly(varset, {tuple(exps): Fraction(coeff)})
    return out


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=8)


def polys(varset, max_exp=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(varset))
    return st.builds(
        lambda ts: _poly(varset, ts),
        st.lists(st.tuples(exps, coeffs), max_size=max_terms),
    )


# ---------------------------------------------------------------------------
# ordering


def test_grevlex_textbook_sequence():
    # degree-2 monomials in x > y > z, largest first
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(monos, key=grevlex_key, reverse=True) == monos


def test_grevlex_degree_dominates():
    assert grevlex_key((3, 0)) > grevlex_key((1, 1))
    assert grevlex_key((0, 2)) > grevlex_key((1, 0))


def test_grevlex_differs_from_lex_in_degree_2():
    # x*z vs y^2: lex prefers x*z, grevlex prefers y^2
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))


# ---------------------------------------------------------------------------
# variable sets


def test_varset_coefficients_weights():
    vs = VarSet.coefficients(4)
    assert vs.names == ("c2", "c3", "c4")


def test_varset_doubled():
    vs = VarSet.coefficients(3).doubled(3)
    assert vs.names == ("c2", "c3", "ct2", "ct3")


def test_varset_blocks():
    vs = VarSet.blocks([2, 4])
    assert vs.names == ("c2_1", "c2_2", "c3_2", "c4_2")


def test_varset_extend_appends():
    vs = VS2.extend("w")
    assert vs.names == ("x", "y", "w")
    assert vs.index("w") == 2


# ---------------------------------------------------------------------------
# ring arithmetic


@given(polys(VS2), polys(VS2), polys(VS2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(VS2))
def test_additive_inverse(p):
    assert sub(p, p).is_zero()
    assert p + p * -1 == MPoly.zero(VS2)


@given(polys(VS2), st.integers(0, 4))
def test_power_is_repeated_product(p, n):
    expect = constant(VS2, 1)
    for _ in range(n):
        expect = expect * p
    assert power(p, n) == expect


def _random_factor(rng, varset):
    """A factor for the product tests: zero, a constant, one term, a sum of
    terms with negative and fractional coefficients, or a binomial in the
    d-th powers of the variables, d = 2^k - 1, whose square has an exponent
    2d = max_deg - 1 in the packing ``__mul__`` makes for it."""
    n = len(varset)
    kind = rng.randrange(5)
    if kind == 0:
        return MPoly.zero(varset)
    if kind == 1:
        return constant(varset, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    if kind == 4:
        d = (1 << rng.randint(1, 6)) - 1
        ends = [tuple(d if k == j else 0 for k in range(n)) for j in range(n)]
        return _poly(varset, [(rng.choice(ends), Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                              for _ in range(2)])
    return _poly(varset, [(tuple(rng.randint(0, 4) for _ in range(n)),
                           Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 9))))
                          for _ in range(1 if kind == 2 else rng.randint(2, 7))])


def test_mul_matches_tuple_product_oracle():
    rng = random.Random(20261019)
    for _ in range(600):
        varset = rng.choice((VarSet(("x",)), VS2, VS3))
        p, q = _random_factor(rng, varset), _random_factor(rng, varset)
        for got, want in ((p * q, tuple_product(p, q)), (q * p, tuple_product(q, p))):
            assert got == want
            assert list(got.terms) == list(want.terms)
            assert all(type(c) is Fraction for c in got.terms.values())


def test_mul_cancellation_zero_factors_and_widest_exponent():
    x, y, z = (variable(VS3, n) for n in "xyz")
    # the cross terms cancel
    half = Fraction(1, 2)
    assert (x * half + y) * sub(x * half, y) == sub(x * x * Fraction(1, 4), y * y)
    third = sub(x, y) * Fraction(-1, 3)
    assert third * ((x * x + x * y + y * y) * -3) == poly(VS3, "x^3 - y^3")
    p = poly(VS3, "-3/4*x + 5/6*y^3 - z")
    for zero in (MPoly.zero(VS3), sub(p, p)):
        assert (p * zero).terms == {} and (zero * p).terms == {}
    # the largest exponent a product of degree-31 factors reaches
    x31 = MPoly(VS3, {(31, 0, 0): Fraction(-7, 3)})
    assert _Packing.of((x31, x31)).max_deg == 63
    assert x31 * (x31 + z) == MPoly(VS3, {(62, 0, 0): Fraction(49, 9),
                                          (31, 0, 1): Fraction(-7, 3)})


def test_product_sum_matches_summed_tuple_products():
    # zero factors, constants and the widest exponents, 0 to 5 pairs
    rng = random.Random(20261020)
    for _ in range(400):
        varset = rng.choice((VarSet(("x",)), VS2, VS3))
        pairs = [(_random_factor(rng, varset), _random_factor(rng, varset))
                 for _ in range(rng.randint(0, 5))]
        want = MPoly.zero(varset)
        for p, q in pairs:
            want = want + tuple_product(p, q)
        got = product_sum(varset, pairs)
        assert got == want
        assert all(type(c) is Fraction for c in got.terms.values())
        if len(pairs) == 1:
            assert list(got.terms) == list((pairs[0][0] * pairs[0][1]).terms)


def test_product_sum_empty_cancelling_and_ring_checks():
    x, y = (variable(VS2, n) for n in "xy")
    assert product_sum(VS2, []) == MPoly.zero(VS2)
    assert product_sum(VS2, [(x, MPoly.zero(VS2))]) == MPoly.zero(VS2)
    # (x/2 + y)(x/3 - y) + (x/3)(-x/2) + y*(y + x/6) = 0, over mixed scales
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    pairs = [(x * half + y, sub(x * third, y)), (x * third, x * -half), (y, y + x * sixth)]
    assert product_sum(VS2, pairs).terms == {}
    assert product_sum(VS2, pairs[:2]) == poly(VS2, "-y^2 - 1/6*x*y")
    with pytest.raises(ValueError):
        product_sum(VS3, [(x, y)])
    with pytest.raises(ValueError):
        product_sum(VS2, [(x, variable(VS3, "z"))])


@given(polys(VS2), polys(VS2))
def test_diff_product_rule(p, q):
    lhs = (p * q).diff("x")
    assert lhs == p.diff("x") * q + p * q.diff("x")


@given(polys(VS2), polys(VS2), coeffs, coeffs)
def test_evaluate_is_homomorphism(p, q, a, b):
    vals = [a, b]
    assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)
    assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)


def test_evaluate_requires_full_assignment():
    p = _poly(VS2, [((1, 1), 1)])
    with pytest.raises(ValueError, match="need 2 values"):
        p.evaluate([Fraction(1)])


def _evaluate_term_by_term(poly, point):
    """Reference evaluation: every term multiplies its coefficient by each
    variable once per unit of its exponent, afresh, in grevlex order."""
    total = None
    for e, c in sorted(poly.terms.items(), key=lambda kv: grevlex_key(kv[0])):
        term = c
        for v, p in zip(point, e):
            for _ in range(p):
                term = term * v
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


EVALUATED_POLYS = {
    "f_bar-3-4": [f_bar(LocalModel(3, 4), j) for j in (1, 2)],
    "f_bar-4-6": [f_bar(LocalModel(4, 6), j) for j in (1, 2, 3)],
    "sigma-3-5": [sigma_coeff(SigmaModel(LocalModel(3, 5), (Fraction(1, 2), Fraction(-2))),
                              l, tmax=12) for l in range(-6, 8)],
}


@pytest.mark.parametrize("polys", EVALUATED_POLYS.values(), ids=EVALUATED_POLYS.keys())
def test_evaluate_at_series_matches_term_by_term_powers(polys):
    rng = random.Random(20261018)
    for modulus in (9, 24):
        for _ in range(3):
            values = []
            for _ in polys[0].varset.names:
                low = rng.randint(0, 3)
                values.append(TSeries(modulus, [0] * low + [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(modulus - low)]))
            for poly in polys:
                assert poly.evaluate(values) == _evaluate_term_by_term(poly, values)
            assert evaluate_many(polys, values) == [_evaluate_term_by_term(poly, values)
                                                    for poly in polys]


def test_evaluate_many_at_series_gives_series_for_every_polynomial():
    # Each polynomial is summed in the one series accumulator: zero and
    # constant polynomials give series too, and every value equals the
    # term-by-term sum. A scalar after a series value is its constant
    # series; a series of another modulus is refused.
    polys = [MPoly.zero(VS2), constant(VS2, Fraction(-3, 2)),
             _poly(VS2, [((0, 0), 2), ((1, 0), Fraction(1, 3)), ((2, 1), -4)]),
             _poly(VS2, [((3, 0), 1), ((1, 2), Fraction(5, 7))])]
    x = TSeries(7, [0, Fraction(1, 2), 3])
    y = TSeries(7, [2, 0, Fraction(-1, 5)])
    values = evaluate_many(polys, [x, y])
    assert all(type(v) is TSeries and v.modulus == 7 for v in values)
    assert values == evaluate_by_sums(polys, [x, y])
    assert values[:2] == [TSeries.zero(7), TSeries.constant(Fraction(-3, 2), 7)]
    assert evaluate_many(polys, [x, Fraction(2, 3)]) == evaluate_by_sums(
        polys, [x, TSeries.constant(Fraction(2, 3), 7)])
    with pytest.raises(ValueError, match="mixed moduli"):
        evaluate_many(polys, [x, TSeries(8, [1])])


@given(polys(VS2), polys(VS2), coeffs, coeffs)
def test_evaluate_many_matches_evaluate(p, q, a, b):
    vals = [a, b]
    batch = [p, q, p * q, MPoly.zero(VS2), constant(VS2, 3)]
    assert evaluate_many(batch, vals) == [r.evaluate(vals) for r in batch]


def test_evaluate_many_checks_its_input():
    assert evaluate_many([], []) == []
    p = _poly(VS2, [((1, 1), 1)])
    with pytest.raises(ValueError, match="need 2 values"):
        evaluate_many([p], [Fraction(1)])
    with pytest.raises(ValueError, match="need 2 values"):
        evaluate_many([p], [1, 1, 1])
    with pytest.raises(ValueError, match="one variable set"):
        evaluate_many([p, _poly(VS3, [((0, 0, 1), 1)])], [1, 1, 1])


# ---------------------------------------------------------------------------
# weighted degree


def test_weighted_degree_homogeneous():
    vs = VarSet.coefficients(4)
    p = _poly(vs, [((2, 0, 0), 1), ((0, 0, 1), -3)])  # c2^2 and c4, both weight 4
    assert weighted_degree(p) == 4


def test_weighted_degree_mixed():
    vs = VarSet.coefficients(4)
    p = _poly(vs, [((1, 0, 0), 1), ((0, 1, 0), 1)])  # weights 2 and 3
    assert weighted_degree(p) == "inhomogeneous"


def test_weighted_degree_zero_poly():
    assert weighted_degree(MPoly.zero(VS2)) == "any"


# ---------------------------------------------------------------------------
# text and json forms


def test_poly_text_golden():
    vs = VarSet.coefficients(4)
    p = _poly(vs, [((2, 1, 0), Fraction(-3, 16)), ((0, 1, 1), Fraction(3, 4))])
    assert poly_text(p) == "-3/16*c2^2*c3 + 3/4*c3*c4"


def test_poly_text_zero_and_constant():
    assert poly_text(MPoly.zero(VS2)) == "0"
    assert poly_text(constant(VS2, Fraction(-5, 3))) == "-5/3"


def test_poly_text_unit_coefficient_omitted():
    p = _poly(VS2, [((1, 0), 1), ((0, 1), -1)])
    assert poly_text(p) == "x - y"


def test_poly_oracle_reads_poly_text():
    # The tests' literals go through oracles.poly, so it must read back
    # every canonical string and add terms given in any order.
    vs = VarSet.coefficients(4)
    for text in ("0", "1", "-5/3", "-3/16*c2^2*c3 + 3/4*c3*c4",
                 "3/128*c2^4 - 3/16*c2*c3^2 - 3/16*c2^2*c4 + 3/8*c4^2"):
        assert poly_text(poly(vs, text)) == text
    assert poly(VS2, "x - y") == _poly(VS2, [((1, 0), 1), ((0, 1), -1)])
    assert poly(VS2, "1/2 - y + x*y^2 + x + y") == _poly(VS2, [((0, 0), Fraction(1, 2)),
                                                             ((1, 2), 1), ((1, 0), 1)])
    for bad in ("", "x + + y", "x^"):
        with pytest.raises(ValueError):
            poly(VS2, bad)
    with pytest.raises(KeyError):
        poly(VS2, "z")


def test_monomial_text():
    assert monomial_text(VS3, (1, 0, 2)) == "x*z^2"
    assert monomial_text(VS3, (0, 0, 0)) == "1"


def test_poly_json_round_trip_data():
    p = _poly(VS2, [((2, 0), Fraction(1, 2)), ((0, 1), -2)])
    doc = poly_json(p)
    assert doc["variables"] == ["x", "y"]
    rebuilt = _poly(VS2, [(tuple(t["exponents"]), Fraction(t["coefficient"]))
                          for t in doc["terms"]])
    assert rebuilt == p


@given(polys(VS2))
def test_text_descending_grevlex(p):
    text = poly_text(p)
    if text == "0":
        return
    seen = [t["exponents"] for t in poly_json(p)["terms"]]
    keys = [grevlex_key(tuple(e)) for e in seen]
    assert keys == sorted(keys, reverse=True)


# ---------------------------------------------------------------------------
# change of ring


def test_rename_embeds_by_name_and_by_list():
    big = VarSet(("y", "x", "t"))
    p = _poly(VS2, [((2, 1), Fraction(3, 2)), ((0, 3), -1)])
    q = p.rename(big)
    assert q.terms == {(1, 2, 0): Fraction(3, 2), (3, 0, 0): -1}
    assert all(type(c) is Fraction for c in q.terms.values())
    assert p.rename(big, ["t", "y"]).terms == {(1, 0, 2): Fraction(3, 2), (3, 0, 0): -1}
    assert q.rename(VS2, ["y", "x", "x"]) == p
    assert MPoly.zero(VS2).rename(big) == MPoly.zero(big)


def test_rename_identification_adds_exponents_and_drops_cancelled_terms():
    # x*y^2 - x^2*y + x*y + x^2 + 5*z with x, y -> x and z -> y: the first
    # two cancel, the next two add.
    p = _poly(VS3, [((1, 2, 0), 1), ((2, 1, 0), -1), ((1, 1, 0), 1), ((2, 0, 0), 1),
                    ((0, 0, 1), 5)])
    q = p.rename(VS2, ["x", "x", "y"])
    assert q.terms == {(2, 0): Fraction(2), (0, 1): Fraction(5)}
    p = _poly(VS2, [((1, 0), 1), ((0, 1), -1)])
    assert p.rename(VarSet(("u",)), ["u", "u"]).is_zero()


def test_rename_rejects_wrong_length_names():
    p = _poly(VS2, [((1, 1), 1)])
    with pytest.raises(ValueError, match="need 2 names, got 3"):
        p.rename(VS3, ["x", "y", "z"])
    with pytest.raises(ValueError):
        p.rename(VS3, ["x"])


def test_rename_rejects_unknown_name():
    p = _poly(VS2, [((1, 1), 1)])
    with pytest.raises(KeyError, match="'w'"):
        p.rename(VS3, ["x", "w"])
    with pytest.raises(KeyError, match="'y'"):
        p.rename(VarSet(("x", "z")))


def test_divides():
    assert divides((1, 0), (2, 1))
    assert not divides((2, 0), (1, 3))


# ---------------------------------------------------------------------------
# determinants


def _random_matrix(rng, n, varset=None):
    if varset is None:
        return [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
    return [[_poly(varset, [((rng.randint(0, 1), rng.randint(0, 1)),
                             rng.randint(-3, 3))]) for _ in range(n)]
            for _ in range(n)]


def test_det_identity_and_singular():
    vs = VS2
    one = constant(vs, 1)
    zero = MPoly.zero(vs)
    eye = [[one, zero], [zero, one]]
    assert det_bareiss(eye) == one
    row = [_poly(vs, [((1, 0), 1)]), _poly(vs, [((0, 1), 2)])]
    assert det_bareiss([row, list(row)]).is_zero()


def det_cofactor(matrix):
    """Cofactor-expansion determinant; sizes above 4 are refused. It is the
    expansion det_bareiss memoizes, so it checks the memo, not the method."""
    n = len(matrix)
    if n > 4:
        raise ValueError("cofactor oracle is limited to size <= 4")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    varset = matrix[0][0].varset
    if n == 1:
        return matrix[0][0]
    total = MPoly.zero(varset)
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        term = matrix[0][j] * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else term * -1)
    return total


def test_det_bareiss_matches_cofactor():
    rng = random.Random(20260816)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = [[constant(VS2, c) for c in row] for row in _random_matrix(rng, n)]
        assert det_bareiss(m) == det_cofactor(m)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = _random_matrix(rng, n, VS2)
        assert det_bareiss(m) == det_cofactor(m)


def test_det_row_swap_flips_sign():
    rng = random.Random(7)
    for _ in range(50):
        m = _random_matrix(rng, 3, VS2)
        swapped = [m[1], m[0], m[2]]
        assert det_bareiss(swapped) == det_bareiss(m) * -1


def _matrix_with_row_term_counts(rng, counts):
    # Row r has counts[r] terms in all, spread over its entries at random
    # (some entries zero), with distinct monomials in each entry.
    n = len(counts)
    monomials = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    matrix = []
    for count in counts:
        cuts = sorted(rng.randint(0, count) for _ in range(n - 1))
        sizes = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, count])]
        matrix.append([MPoly(VS3, {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                                rng.randint(1, 3))
                                   for e in rng.sample(monomials, size)})
                       for size in sizes])
    return matrix


def test_det_row_order_matches_cofactor():
    # det_bareiss expands the rows in ascending order of their term count
    # (stable on ties) and signs the result by that permutation's parity.
    # Rows with distinct counts, shuffled, and rows with tied counts; both
    # parities of the sorting permutation occur.
    rng = random.Random(20261022)
    parities = set()
    for trial in range(80):
        n = 3 + trial % 2
        counts = rng.sample(range(1, 10), n)
        if trial % 4 >= 2:
            i, j = rng.sample(range(n), 2)
            counts[i] = counts[j]
        m = _matrix_with_row_term_counts(rng, counts)
        assert [sum(len(e.terms) for e in row) for row in m] == counts
        order = sorted(range(n), key=counts.__getitem__)
        parities.add(sum(order[i] > order[k] for k in range(n) for i in range(k)) % 2)
        assert det_bareiss(m) == det_cofactor(m), counts
    assert parities == {0, 1}


def test_det_cofactor_refuses_large():
    m = [[constant(VS2, 1)] * 5 for _ in range(5)]
    with pytest.raises(ValueError):
        det_cofactor(m)


def test_det_multiplicative_on_numbers():
    rng = random.Random(3)
    for _ in range(60):
        a = _random_matrix(rng, 3)
        b = _random_matrix(rng, 3)
        prod = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        to_poly = lambda m: [[constant(VS2, x) for x in row] for row in m]
        assert det_bareiss(to_poly(prod)) == det_bareiss(to_poly(a)) * det_bareiss(to_poly(b))


def test_det_input_checks():
    with pytest.raises(ValueError, match="empty"):
        det_bareiss([])
    with pytest.raises(ValueError, match="square"):
        det_bareiss([[constant(VS2, 1), constant(VS2, 2)]])
    with pytest.raises(ValueError, match="variable sets"):
        det_bareiss([[constant(VS2, 1), constant(VS2, 2)],
                     [constant(VS3, 3), constant(VS2, 4)]])


def echelon_det(rows):
    """Rational determinant from _echelonize, an oracle independent of the
    expansion: Gauss-Jordan only adds multiples of rows, so the determinant
    is the product of the pivots times the sign of the permutation
    r -> pivots[r], and 0 when some row has no pivot."""
    n = len(rows)
    work, pivots, _ = _echelonize(range(n), [{j: v for j, v in enumerate(row) if v}
                                             for row in rows])
    if None in pivots:
        return Fraction(0)
    inversions = sum(pivots[r] > pivots[s] for r in range(n) for s in range(r + 1, n))
    det = Fraction(-1 if inversions % 2 else 1)
    for r in range(n):
        det *= work[r][pivots[r]]
    return det


def _rational_point(rng, n):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]


@pytest.mark.parametrize("a, b", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 12), (6, 7), (6, 11), (7, 8)])
def test_det_matches_echelon_pivots(a, b):
    # jac_bar is det_bareiss of the Jacobian matrix; compare it with the
    # eliminated matrix at seeded points, some with zero coordinates.
    model = LocalModel(a, b)
    matrix = f_bar_jacobian_matrix(model)
    det = jac_bar(model)
    rng = random.Random(f"det:{a},{b}")
    values = set()
    for _ in range(5):
        pt = _rational_point(rng, len(model.varset))
        for i in range(len(pt)):
            if rng.random() < 0.25:
                pt[i] = Fraction(0)
        value = echelon_det([[entry.evaluate(pt) for entry in row] for row in matrix])
        assert det.evaluate(pt) == value
        values.add(value != 0)
    assert True in values


def _sparse_poly(rng, varset):
    if rng.random() < 0.4:
        return MPoly.zero(varset)
    return _poly(varset, [(tuple(rng.randint(0, 2) for _ in varset.names),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                          for _ in range(rng.randint(1, 3))])


def test_det_matches_echelon_pivots_on_random_sparse_matrices():
    rng = random.Random(20261018)
    degenerate = 0
    for case in range(120):
        n = rng.randint(1, 6)
        m = [[_sparse_poly(rng, VS3) for _ in range(n)] for _ in range(n)]
        shape = case % 4
        if shape == 1:
            m[rng.randrange(n)] = [MPoly.zero(VS3)] * n
        elif shape == 2:
            col = rng.randrange(n)
            for row in m:
                row[col] = MPoly.zero(VS3)
        elif shape == 3 and n > 1:
            r1, r2 = rng.sample(range(n), 2)
            m[r2] = list(m[r1])
        det = det_bareiss(m)
        if shape in (1, 2) or (shape == 3 and n > 1):
            assert det.is_zero()
            degenerate += 1
        for _ in range(3):
            pt = _rational_point(rng, len(VS3))
            assert det.evaluate(pt) == echelon_det([[e.evaluate(pt) for e in row] for row in m])
    assert degenerate >= 80


# det_bareiss packs exponent vectors into ``_Packing`` words made for the
# sum D of the rows' largest total degrees and clears denominators row by
# row; these matrices fail when the words are too narrow to hold a
# determinant's exponents or when the row scale is not divided back out.


def test_det_exponent_beyond_every_entry():
    x5 = MPoly(VS2, {(5, 0): 1})
    zero = MPoly.zero(VS2)
    m = [[x5 * Fraction(1, 2), zero, zero],
         [zero, x5 * Fraction(1, 3), zero],
         [zero, zero, x5 * Fraction(1, 9)]]
    assert det_bareiss(m) == MPoly(VS2, {(15, 0): Fraction(1, 54)})
    # the exponent of y reaches 12 in the permutation term, 4 in any entry
    y4 = MPoly(VS2, {(0, 4): Fraction(-5, 7)})
    x = variable(VS2, "x")
    m = [[x, y4, zero], [zero, x, y4], [y4, zero, x * Fraction(3, 4)]]
    assert det_bareiss(m) == _poly(VS2, [((3, 0), Fraction(3, 4)), ((0, 12), Fraction(-125, 343))])
    # five rows of degree 7: the exponent 35 overflows a field made for the
    # largest row's degree, which holds at most 31
    x7 = MPoly(VS2, {(7, 0): 1})
    diag = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 9), Fraction(-1, 5), Fraction(7)]
    m = [[x7 * diag[r] if r == c else zero for c in range(5)] for r in range(5)]
    assert det_bareiss(m) == MPoly(VS2, {(35, 0): Fraction(-7, 270)})


def _high_degree_poly(rng, varset, den):
    if rng.random() < 0.3:
        return MPoly.zero(varset)
    return _poly(varset, [(tuple(rng.randint(0, 7) for _ in varset.names),
                           Fraction(rng.randint(-9, 9), den * rng.choice((1, 1, 2, 5))))
                          for _ in range(rng.randint(1, 3))])


def test_det_high_degree_sparse_with_row_denominators():
    rng = random.Random(20261019)
    for case in range(60):
        n = rng.randint(1, 5)
        dens = [rng.choice((1, 2, 3, 4, 7, 9, 16, 25)) for _ in range(n)]
        m = [[_high_degree_poly(rng, VS3, den) for _ in range(n)] for den in dens]
        det = det_bareiss(m)
        if n <= 4:
            assert det == det_cofactor(m)
        for _ in range(2):
            pt = _rational_point(rng, len(VS3))
            assert det.evaluate(pt) == echelon_det([[e.evaluate(pt) for e in row] for row in m])


def test_det_cancelling_to_zero_is_the_zero_polynomial():
    x, y = variable(VS2, "x"), variable(VS2, "y")
    first = [x * Fraction(1, 2), y * Fraction(1, 3)]
    factor = (x + y) * Fraction(1, 5)
    assert det_bareiss([first, [e * factor for e in first]]) == MPoly.zero(VS2)
    # third row = p * first + q * second, with fractional polynomial p and q
    first = [poly(VS2, "2/3*x^3"), y * Fraction(-1, 4), poly(VS2, "x*y + 1")]
    second = [poly(VS2, "1/7*y^2"), x * x, x * Fraction(5, 6)]
    p, q = poly(VS2, "3/2*x*y - 1"), poly(VS2, "1/9*y^3")
    third = [p * e1 + q * e2 for e1, e2 in zip(first, second)]
    det = det_bareiss([first, second, third])
    assert det == MPoly.zero(VS2) and det.terms == {}
