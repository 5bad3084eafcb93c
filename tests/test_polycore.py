"""Sparse polynomial core: ordering, arithmetic, text forms, determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equigen.expansion import LocalModel, f_bar_jacobian_matrix, jac_bar
from equigen.polycore import (
    MPoly,
    VarSet,
    _echelonize,
    det_bareiss,
    divides,
    grevlex_key,
    monomial_text,
    poly_json,
    poly_text,
)

VS2 = VarSet(("x", "y"), (1, 1))
VS3 = VarSet(("x", "y", "z"), (1, 1, 1))


def _poly(varset, terms):
    out = MPoly.zero(varset)
    for exps, coeff in terms:
        out = out + MPoly.monomial(varset, tuple(exps), Fraction(coeff))
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
    assert vs.weights == (2, 3, 4)


def test_varset_doubled():
    vs = VarSet.coefficients(3).doubled(3)
    assert vs.names == ("c2", "c3", "ct2", "ct3")
    assert vs.weights == (2, 3, 2, 3)


def test_varset_blocks():
    vs = VarSet.blocks([2, 4])
    assert vs.names == ("c2_1", "c2_2", "c3_2", "c4_2")
    assert vs.weights == (2, 2, 3, 4)


def test_varset_extend_appends():
    vs = VS2.extend("w", weight=5)
    assert vs.names == ("x", "y", "w")
    assert vs.weights == (1, 1, 5)
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
    assert (p - p).is_zero()
    assert p + (-p) == MPoly.zero(VS2)


@given(polys(VS2), st.integers(0, 4))
def test_power_is_repeated_product(p, n):
    expect = MPoly.constant(VS2, 1)
    for _ in range(n):
        expect = expect * p
    assert p ** n == expect


@given(polys(VS2), polys(VS2))
def test_diff_product_rule(p, q):
    lhs = (p * q).diff("x")
    assert lhs == p.diff("x") * q + p * q.diff("x")


@given(polys(VS2), polys(VS2), coeffs, coeffs)
def test_evaluate_is_homomorphism(p, q, a, b):
    vals = {"x": a, "y": b}
    assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)
    assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)


def test_evaluate_requires_full_assignment():
    p = _poly(VS2, [((1, 1), 1)])
    with pytest.raises(KeyError):
        p.evaluate({"x": Fraction(1)})


# ---------------------------------------------------------------------------
# weighted degree


def test_weighted_degree_homogeneous():
    vs = VarSet.coefficients(4)
    p = _poly(vs, [((2, 0, 0), 1), ((0, 0, 1), -3)])  # c2^2 and c4, both weight 4
    assert p.weighted_degree() == 4


def test_weighted_degree_mixed():
    vs = VarSet.coefficients(4)
    p = _poly(vs, [((1, 0, 0), 1), ((0, 1, 0), 1)])  # weights 2 and 3
    assert p.weighted_degree() == "inhomogeneous"


def test_weighted_degree_zero_poly():
    assert MPoly.zero(VS2).weighted_degree() == "any"


# ---------------------------------------------------------------------------
# text and json forms


def test_poly_text_golden():
    vs = VarSet.coefficients(4)
    p = _poly(vs, [((2, 1, 0), Fraction(-3, 16)), ((0, 1, 1), Fraction(3, 4))])
    assert poly_text(p) == "-3/16*c2^2*c3 + 3/4*c3*c4"


def test_poly_text_zero_and_constant():
    assert poly_text(MPoly.zero(VS2)) == "0"
    assert poly_text(MPoly.constant(VS2, Fraction(-5, 3))) == "-5/3"


def test_poly_text_unit_coefficient_omitted():
    p = _poly(VS2, [((1, 0), 1), ((0, 1), -1)])
    assert poly_text(p) == "x - y"


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
# content and division


def test_content_free_primitive():
    p = _poly(VS2, [((2, 0), Fraction(4, 6)), ((0, 1), Fraction(-2, 3))])
    q = p.content_free()
    # integer coefficients with gcd 1 and positive leading coefficient
    assert poly_text(q) == "x^2 - y"


def test_content_free_flips_negative_leading():
    p = _poly(VS2, [((2, 0), -2), ((0, 1), 2)])
    assert poly_text(p.content_free()) == "x^2 - y"


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
    one = MPoly.constant(vs, 1)
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
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_det_bareiss_matches_cofactor():
    rng = random.Random(20260816)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = [[MPoly.constant(VS2, c) for c in row] for row in _random_matrix(rng, n)]
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
        assert det_bareiss(swapped) == -det_bareiss(m)


def test_det_cofactor_refuses_large():
    m = [[MPoly.constant(VS2, 1)] * 5 for _ in range(5)]
    with pytest.raises(ValueError):
        det_cofactor(m)


def test_det_multiplicative_on_numbers():
    rng = random.Random(3)
    for _ in range(60):
        a = _random_matrix(rng, 3)
        b = _random_matrix(rng, 3)
        prod = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        to_poly = lambda m: [[MPoly.constant(VS2, x) for x in row] for row in m]
        assert det_bareiss(to_poly(prod)) == det_bareiss(to_poly(a)) * det_bareiss(to_poly(b))


def test_det_input_checks():
    with pytest.raises(ValueError, match="empty"):
        det_bareiss([])
    with pytest.raises(ValueError, match="square"):
        det_bareiss([[MPoly.constant(VS2, 1), MPoly.constant(VS2, 2)]])
    with pytest.raises(ValueError, match="variable sets"):
        det_bareiss([[MPoly.constant(VS2, 1), MPoly.constant(VS2, 2)],
                     [MPoly.constant(VS3, 3), MPoly.constant(VS2, 4)]])


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


def _rational_point(rng, names):
    return {name: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for name in names}


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
        pt = _rational_point(rng, model.varset.names)
        for name in pt:
            if rng.random() < 0.25:
                pt[name] = Fraction(0)
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
            pt = _rational_point(rng, VS3.names)
            assert det.evaluate(pt) == echelon_det([[e.evaluate(pt) for e in row] for row in m])
    assert degenerate >= 80
