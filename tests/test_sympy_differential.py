"""Differential tests against sympy: truncated-series arithmetic and
polynomial evaluation at series values, each compared with sympy ``Poly``
arithmetic over QQ reduced mod t^K, ``big_f`` compared with sympy series
of the branch rewritten in S, ``f_bar`` and its Jacobian matrix compared
with the perturbed family built and differentiated in sympy from sympy
series, ``jac_bar`` compared with sympy's Berkowitz determinant of the same
Jacobian matrix, and the engine's reduced grevlex
bases compared with sympy's ``groebner``. Skipped when sympy is not
installed."""

import random
from fractions import Fraction

import pytest

from equigen import groebner
from equigen.expansion import LocalModel, big_f, f_bar, f_bar_jacobian_matrix, jac_bar
from equigen.polycore import MPoly, VarSet
from equigen.series import TSeries

sympy = pytest.importorskip("sympy")

SEED = 20261018
T = sympy.Symbol("t")


def _rand_coeffs(rng, length):
    """Zeros, small and large mixed denominators, leading zeros included."""
    out = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.3:
            out.append(Fraction(0))
        elif kind < 0.8:
            out.append(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9))))
        else:
            out.append(Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9)))
    return out


def _to_sympy(coeffs):
    """The polynomial sum coeffs[i] t^i as a sympy Poly over QQ."""
    terms = [sympy.Rational(c.numerator, c.denominator) * T ** i for i, c in enumerate(coeffs)]
    return sympy.Poly(sum(terms, sympy.Integer(0)), T, domain=sympy.QQ)


def _mod_tk(poly, modulus):
    """Coefficients of poly mod t^modulus, ascending, trailing zeros trimmed."""
    rest = poly.rem(sympy.Poly(T ** modulus, T, domain=sympy.QQ))
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(rest.all_coeffs())]
    while out and not out[-1]:
        out.pop()
    return out


def _assert_same(series, poly, modulus):
    assert series.modulus == modulus
    assert list(series.coeffs) == _mod_tk(poly, modulus)


def test_tseries_arithmetic_matches_sympy():
    rng = random.Random(SEED)
    for _ in range(120):
        modulus = rng.choice((1, 4, 9, 17, 30))
        x = _rand_coeffs(rng, rng.randint(0, 20))
        y = _rand_coeffs(rng, rng.randint(0, 20))
        sx, sy = TSeries(modulus, x), TSeries(modulus, y)
        px, py = _to_sympy(x), _to_sympy(y)
        _assert_same(sx + sy, px + py, modulus)
        _assert_same(sx - sy, px - py, modulus)
        _assert_same(sx * sy, px * py, modulus)
        k = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        _assert_same(sx * k, px * sympy.Rational(k.numerator, k.denominator), modulus)
        if k:
            _assert_same(sx / k, px * sympy.Rational(k.denominator, k.numerator), modulus)


def _random_mpoly(rng, varset, nterms, max_deg):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in varset.names)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return MPoly(varset, terms)


def _sympy_evaluate(poly, point):
    """Sum of c * prod v_i ** e_i in sympy, each power computed afresh."""
    total = sympy.Poly(0, T, domain=sympy.QQ)
    for exps, c in poly.terms.items():
        term = sympy.Poly(sympy.Rational(c.numerator, c.denominator), T, domain=sympy.QQ)
        for v, e in zip(point, exps):
            term = term * v ** e
        total = total + term
    return total


def _check_evaluate(poly, rng, modulus, length):
    coeffs = [_rand_coeffs(rng, length) for _ in poly.varset.names]
    value = poly.evaluate([TSeries(modulus, cs) for cs in coeffs])
    if not isinstance(value, TSeries):  # the zero polynomial
        value = TSeries.constant(value, modulus)
    expected = _sympy_evaluate(poly, [_to_sympy(cs) for cs in coeffs])
    _assert_same(value, expected, modulus)


def test_mpoly_evaluate_at_series_matches_sympy():
    rng = random.Random(SEED + 1)
    varset = VarSet(("x", "y", "z"))
    for _ in range(25):
        modulus = rng.choice((3, 8, 14))
        poly = _random_mpoly(rng, varset, rng.randint(0, 6), 4)
        _check_evaluate(poly, rng, modulus, rng.randint(0, 10))


@pytest.mark.parametrize("model,eq", [(LocalModel(3, 4), 1), (LocalModel(3, 4), 2),
                                      (LocalModel(2, 5), 1), (LocalModel(4, 6), 1)])
def test_f_bar_at_series_matches_sympy(model, eq):
    # the residual the lift evaluates, at random series in every variable
    rng = random.Random(f"{SEED}:{model.a}:{model.b}:{eq}")
    for modulus in (6, 15):
        _check_evaluate(f_bar(model, eq), rng, modulus, 8)


def _sympy_poly(poly, gens):
    """An MPoly as a sympy Poly over QQ in the given generators."""
    terms = {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


def _truncate(expr, var, top):
    """expr as a polynomial in var with every power above var^top dropped."""
    poly = sympy.Poly(sympy.expand(expr), var)
    return sum((c * var ** m for (m,), c in poly.terms() if m <= top), sympy.Integer(0))


@pytest.mark.parametrize("a, b", [(3, 4), (3, 5), (4, 5), (4, 7), (5, 6)])
def test_big_f_matches_sympy_series_in_S(a, b):
    # An oracle independent of the Lagrange closed form. With x = 1/s and
    # X = 1/S, where S = s*(1 + sum c_k x^k)^(1/a): sympy expands the tail
    # sum_{m>=1} f_{b+m} x^m of (1 + sum c_k x^k)^(b/a), x(X) comes from the
    # fixed point x = X*(1 + sum c_k x^k)^(1/a), and the X^n coefficient of
    # the tail at x(X) is F_{-n}.
    model = LocalModel(a, b)
    gens = sympy.symbols(model.varset.names)
    x, X = sympy.symbols("x X")
    unit = 1 + sum(c * x ** k for c, k in zip(gens, range(2, a + 1)))
    power = sympy.Poly(sympy.series(unit ** sympy.Rational(b, a), x, 0, b + a).removeO(), x)
    tail = sum(power.coeff_monomial(x ** (b + m)) * x ** m for m in range(1, a))
    root = sympy.series(unit ** sympy.Rational(1, a), x, 0, a - 1).removeO()
    x_of_X = X
    for _ in range(a - 1):  # each round fixes one more power of X
        x_of_X = _truncate(X * root.subs(x, x_of_X), X, a - 1)
    in_S = sympy.Poly(_truncate(tail.subs(x, x_of_X), X, a - 1), X)
    for n in range(1, a):
        expected = sympy.Poly(in_S.coeff_monomial(X ** n), *gens, domain=sympy.QQ)
        assert _sympy_poly(big_f(model, n), gens) == expected


@pytest.mark.parametrize("a, b", [(3, 4), (4, 7), (5, 6), (5, 8)])
def test_f_bar_and_its_jacobian_match_sympy(a, b):
    # f_{b+m} is the x^(b+m) coefficient of sympy's series of
    # (1 + sum c_k x^k)^(b/a); fbar is the formula of the f_bar docstring over
    # (c, ct), differentiated in c_k by sympy with ct := c substituted after.
    model = LocalModel(a, b)
    ks = range(2, a + 1)
    c = dict(zip(ks, sympy.symbols([f"c{k}" for k in ks])))
    ct = dict(zip(ks, sympy.symbols([f"ct{k}" for k in ks])))
    x = sympy.Symbol("x")
    unit = 1 + sum(c[k] * x ** k for k in ks)
    power = sympy.Poly(sympy.series(unit ** sympy.Rational(b, a), x, 0, b + a).removeO(), x)
    f = {m: sympy.expand(power.coeff_monomial(x ** (b + m))) for m in range(1, a)}
    tilde = {m: f[m].xreplace({c[k]: ct[k] for k in ks}) for m in f}
    single = sympy.symbols(model.varset.names)
    doubled = sympy.symbols(model.doubled_varset.names)
    identify = {ct[k]: c[k] for k in ks}
    matrix = f_bar_jacobian_matrix(model)
    for j in range(1, a):
        bar = f[j]
        for k in range(2, j):
            weight = sympy.Rational(j - k, a)
            bar += weight * (c[k] - ct[k]) * tilde[j - k]
            for l in range(2, k - 1):
                bar -= (weight * sympy.Rational(a - l, a)
                        * (c[k - l] - ct[k - l]) * ct[l] * tilde[j - k])
        assert _sympy_poly(f_bar(model, j), doubled) == sympy.Poly(bar, *doubled, domain=sympy.QQ)
        for k in ks:
            entry = sympy.diff(bar, c[k]).xreplace(identify)
            assert (_sympy_poly(matrix[j - 1][k - 2], single)
                    == sympy.Poly(entry, *single, domain=sympy.QQ))


@pytest.mark.parametrize("a, b", [(3, 4), (4, 5), (4, 7), (5, 6), (5, 8)])
def test_jac_bar_matches_sympy_berkowitz(a, b):
    # an oracle independent of the packed minors expansion: sympy's
    # division-free Berkowitz determinant of the same Jacobian matrix
    model = LocalModel(a, b)
    gens = sympy.symbols(model.varset.names)
    matrix = sympy.Matrix([[_sympy_poly(entry, gens).as_expr() for entry in row]
                           for row in f_bar_jacobian_matrix(model)])
    expected = sympy.Poly(matrix.det(method="berkowitz"), *gens, domain=sympy.QQ)
    assert _sympy_poly(jac_bar(model), gens) == expected


GB_CASES = ([(3, 4, i) for i in (1, 2)] + [(4, 6, i) for i in (1, 2, 3)]
            + [(4, 7, i) for i in (1, 2, 3)] + [(5, 6, 4)])


@pytest.mark.parametrize("a, b, i", GB_CASES)
def test_reduced_grevlex_bases_match_sympy(a, b, i, monkeypatch):
    # Both presentations' ideals J = I + (1 - y*p), as radical membership
    # hands them to the engine: their reduced basis (membership runs are
    # not reduced) against sympy's reduced grevlex basis.
    ideals = []
    real_buchberger = groebner.buchberger

    def capture(ideal, *args, **kwargs):
        ideals.append(ideal)
        return real_buchberger(ideal, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", capture)
    groebner.check_g_index(LocalModel(a, b), i)
    monkeypatch.undo()
    assert len(ideals) == 2
    for ideal in ideals:
        gens = sympy.symbols(ideal.varset.names)
        expected = sympy.groebner([_sympy_poly(g, gens).as_expr() for g in ideal.generators],
                                  *gens, order="grevlex", domain=sympy.QQ)
        got = [_sympy_poly(g, gens) for g in groebner.reduced_basis(ideal)]
        assert len(got) == len(expected.polys)
        assert set(got) == set(expected.polys)
