"""Obstruction polynomial generation, cross-checked against independent
expansions that avoid the multinomial formula entirely."""

import hashlib
import random
from fractions import Fraction

import pytest

from equigen.expansion import (
    LocalModel,
    SigmaModel,
    big_f,
    f_bar,
    f_bar_jacobian_at,
    f_bar_jacobian_matrix,
    f_coeff,
    jac_bar,
    sigma_coeff,
    theta_cap,
)
from equigen.polycore import MPoly, poly_text

from oracles import (
    big_f_by_sums,
    constant,
    f_bar_by_products,
    f_coeff_by_fractions,
    jacobian_by_identification,
    sigma_by_sums,
    sub,
    variable,
    weighted_degree,
)

M23 = LocalModel(2, 3)
M34 = LocalModel(3, 4)
M35 = LocalModel(3, 5)
M46 = LocalModel(4, 6)
M47 = LocalModel(4, 7)
M56 = LocalModel(5, 6)
M57 = LocalModel(5, 7)
M67 = LocalModel(6, 7)

SEED = 20260816


# ---------------------------------------------------------------------------
# oracle: binomial expansion of (1 + sum c_k y^k)^(beta/a), no multinomials


def binomial_f_oracle(model, beta_num, mmax):
    vs = model.varset
    alpha = Fraction(beta_num, model.a)
    u = {k: variable(vs, f"c{k}") for k in range(2, model.a + 1)}
    out = {m: MPoly.zero(vs) for m in range(mmax + 1)}
    out[0] = constant(vs, 1)
    upow = {0: constant(vs, 1)}
    binom = Fraction(1)
    for j in range(1, mmax // 2 + 1):
        binom = binom * (alpha - (j - 1)) / j
        nxt = {}
        for d, p in upow.items():
            for k, ck in u.items():
                if d + k <= mmax:
                    nxt[d + k] = nxt.get(d + k, MPoly.zero(vs)) + p * ck
        upow = nxt
        for d, p in upow.items():
            out[d] = out[d] + binom * p
    return out


@pytest.mark.parametrize("model", [M23, M34, M35, M46, M47, M56, M67])
@pytest.mark.parametrize("beta_num", [1, -1, 3, 6, 10, 12])
def test_f_coeff_against_binomial_oracle(model, beta_num):
    # Where a divides beta_num (6, 10 and 12 cover every a here), alpha is an
    # integer and terms with more than alpha factors vanish.
    oracle = binomial_f_oracle(model, beta_num, 12)
    for m in range(13):
        assert f_coeff(model, beta_num, m) == oracle[m], (model, beta_num, m)


@pytest.mark.parametrize("a", range(2, 8))
def test_f_coeff_matches_fraction_falling_factorials(a):
    # The integer falling factorial over a^B against the Fraction product,
    # for every beta from -2a to 2b + a (zero, negative and multiples of a
    # among them, where the falling factorial vanishes) and m = 0..2b.
    model = LocalModel(a, a + 1)
    b = model.b
    for beta in range(-2 * a, 2 * b + a + 1):
        for m in range(2 * b + 1):
            want = f_coeff_by_fractions(model, beta, m)
            assert f_coeff(model, beta, m) == want, (a, beta, m)
            assert list(f_coeff(model, beta, m).terms) == list(want.terms), (a, beta, m)


def test_f_coeff_high_order_a2():
    # One term, c2^1200: 1200 parts, beyond Python's stack if each part
    # took a recursion level.
    alpha = Fraction(3, 2)
    binom = Fraction(1)
    for j in range(1200):
        binom = binom * (alpha - j) / (j + 1)
    assert f_coeff(M23, 3, 2400) == MPoly(M23.varset, {(1200,): binom})


def test_f_coeff_frozen_values():
    assert poly_text(f_coeff(M23, 3, 4)) == "3/8*c2^2"
    assert poly_text(f_coeff(M34, 4, 5)) == "4/9*c2*c3"
    assert poly_text(f_coeff(M46, 6, 4)) == "3/8*c2^2 + 3/2*c4"
    assert poly_text(f_coeff(M46, -3, 3)) == "-3/4*c3"
    assert poly_text(f_coeff(M46, 6, 0)) == "1"
    assert poly_text(f_coeff(M46, 6, 1)) == "0"


def test_f_coeff_rejects_negative_order():
    with pytest.raises(ValueError):
        f_coeff(M23, 3, -1)


# ---------------------------------------------------------------------------
# gamma / theta


def test_theta_frozen_values():
    assert poly_text(theta_cap(M34, 1, 2)) == "-1/3*c2"
    assert poly_text(theta_cap(M34, 1, 3)) == "-1/3*c3"
    assert poly_text(theta_cap(M34, 1, 4)) == "0"
    assert poly_text(theta_cap(M34, 1, 5)) == "-1/9*c2*c3"
    assert poly_text(theta_cap(M23, 1, 2)) == "-1/2*c2"


def _scalar_series_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j < n:
                out[i + j] += ai * bj
    return out


def _scalar_series_inv(a, n):
    # geometric series; a[0] must be a unit
    assert a[0] != 0
    out = [Fraction(0)] * n
    out[0] = 1 / a[0]
    for i in range(1, n):
        s = Fraction(0)
        for j in range(1, i + 1):
            if j < len(a):
                s += a[j] * out[i - j]
        out[i] = -s / a[0]
    return out


def _scalar_compose(outer, inner, n):
    # outer(inner(x)) with inner[0] == 0
    assert inner[0] == 0
    result = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k, coeff in enumerate(outer):
        if k:
            power = _scalar_series_mul(power, inner, n)
        if coeff:
            for i, pi in enumerate(power):
                result[i] += coeff * pi
    return result


def _random_point(rng, model):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2, model.a + 1)]


def test_theta_gamma_round_trip():
    # y = x / Q(x) and x = y / P(y) are mutually inverse changes of variable
    rng = random.Random(SEED)
    n = 10
    for _ in range(60):
        model = rng.choice((M23, M34, M46))
        point = _random_point(rng, model)
        q = [Fraction(1), Fraction(0)] + [
            f_coeff(model, 1, m).evaluate(point) for m in range(2, n)]
        p = [Fraction(1), Fraction(0)] + [
            theta_cap(model, 1, m).evaluate(point) for m in range(2, n)]
        f_series = _scalar_series_mul([Fraction(0), Fraction(1)], _scalar_series_inv(q, n), n)
        p_of_f = _scalar_compose(p, f_series, n)
        g_series = _scalar_series_mul(f_series, _scalar_series_inv(p_of_f, n), n)
        identity = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2)
        assert g_series == identity


def test_theta_cap_frozen_values():
    assert poly_text(theta_cap(M34, -2, 3)) == "2/3*c3"
    assert poly_text(theta_cap(M46, -1, 4)) == "1/32*c2^2 + 1/4*c4"
    assert poly_text(theta_cap(M34, -3, 0)) == "1"
    assert poly_text(theta_cap(M34, -3, 1)) == "0"


def test_theta_cap_against_numeric_power():
    # [y^i] P(y)^l computed by scalar series arithmetic at random points
    rng = random.Random(SEED + 1)
    imax = 8
    for _ in range(80):
        model = rng.choice((M23, M34, M46, M47, M56, M57, M67))
        l = rng.randint(-6, -1)
        point = _random_point(rng, model)
        p = [Fraction(1), Fraction(0)] + [theta_cap(model, 1, m).evaluate(point)
                                          for m in range(2, imax + 1)]
        inv = _scalar_series_inv(p, imax + 1)
        power = [Fraction(1)] + [Fraction(0)] * imax
        for _ in range(-l):
            power = _scalar_series_mul(power, inv, imax + 1)
        for i in range(imax + 1):
            assert theta_cap(model, l, i).evaluate(point) == power[i], (model, l, i)


@pytest.mark.parametrize("model", [M34, M47, M57],
                         ids=lambda m: f"{m.a}-{m.b}")
def test_theta_cap_positive_powers_match_products(model):
    # [S^-i] (1 + sum_m theta_m S^-m)^l by repeated MPoly products, l = 1..4,
    # l < i <= 9, with theta_m = Theta_m^(1); l = 1 restates theta_m, which
    # the round-trip tests check on their own.
    imax = 9
    zero = MPoly.zero(model.varset)
    unit = [constant(model.varset, 1), zero] + [
        theta_cap(model, 1, m) for m in range(2, imax + 1)]
    power = [constant(model.varset, 1)] + [zero] * imax
    for l in range(1, 5):
        power = [sum((power[j] * unit[i - j] for j in range(i + 1)), zero)
                 for i in range(imax + 1)]
        for i in range(l + 1, imax + 1):
            assert theta_cap(model, l, i) == power[i], (l, i)


def test_theta_cap_domain():
    for l, i in ((1, 1), (2, 1), (3, 0), (0, 0), (-1, -1), (-2, -3)):
        with pytest.raises(ValueError):
            theta_cap(M34, l, i)


# ---------------------------------------------------------------------------
# obstruction leading terms F


def test_big_f_golden_46():
    assert poly_text(big_f(M46, 1)) == "-3/16*c2^2*c3 + 3/4*c3*c4"
    assert poly_text(big_f(M46, 2)) == "3/128*c2^4 - 3/16*c2*c3^2 - 3/16*c2^2*c4 + 3/8*c4^2"
    assert poly_text(big_f(M46, 3)) == "3/64*c2^3*c3 - 1/16*c3^3 - 3/16*c2*c3*c4"


def test_big_f_first_is_f():
    for model in (M23, M34, M46, M47):
        assert big_f(model, 1) == f_coeff(model, model.b, model.b + 1)


def test_big_f_index_range():
    with pytest.raises(ValueError):
        big_f(M34, 0)
    with pytest.raises(ValueError):
        big_f(M34, 3)


def test_big_f_against_unit_identity():
    # sum_i f_i y^i P(y)^(b-i) telescopes to 1; its order-(b+n) tail gives F_-n
    rng = random.Random(SEED + 2)
    for model in (M23, M34, M35, M46, M47, M56, M57, M67):
        b = model.b
        nmax = model.a - 1
        cut = b + nmax + 1
        for _ in range(40):
            point = _random_point(rng, model)
            p = [Fraction(1), Fraction(0)] + [theta_cap(model, 1, m).evaluate(point)
                                              for m in range(2, cut)]
            inv = _scalar_series_inv(p, cut)
            total = [Fraction(0)] * cut
            for i in range(b + 1):
                fi = f_coeff(model, b, i).evaluate(point)
                if not fi:
                    continue
                power = [Fraction(1)] + [Fraction(0)] * (cut - 1)
                base = p if b - i >= 0 else inv
                for _ in range(abs(b - i)):
                    power = _scalar_series_mul(power, base, cut)
                for j, pj in enumerate(power):
                    if i + j < cut:
                        total[i + j] += fi * pj
            assert total[0] == 1
            for n in range(1, nmax + 1):
                assert total[b + n] == -big_f(model, n).evaluate(point), (model, n)
            for m in range(1, b + 1):
                assert total[m] == 0


def test_weighted_homogeneity_of_generated_polys():
    for model in (M34, M46):
        b = model.b
        for n in range(1, model.a):
            assert weighted_degree(big_f(model, n)) == b + n
        for m in range(2, 8):
            p = f_coeff(model, b, m)
            assert weighted_degree(p) in (m, "any")


# ---------------------------------------------------------------------------
# perturbed family and its Jacobian


def test_f_bar_diagonal_restores_f():
    # identifying the doubled variables with the plain ones recovers f
    for model in (M23, M34, M46):
        for j in range(1, model.a):
            bar = f_bar(model, j)
            plain = [f"c{k}" for k in range(2, model.a + 1)]
            assert bar.rename(model.varset, plain + plain) == f_coeff(model, model.b, model.b + j)


def test_f_bar_frozen_structure():
    assert poly_text(f_bar(M46, 1)) == "-3/16*c2^2*c3 + 3/4*c3*c4"
    assert poly_text(f_bar(M46, 3)) == (
        "3/32*c2^3*c3 - 3/64*c2*ct2^2*ct3 + 3/64*ct2^3*ct3 - 1/16*c3^3 "
        "- 3/8*c2*c3*c4 + 3/16*c2*ct3*ct4 - 3/16*ct2*ct3*ct4")


def test_f_bar_cross_term_shape():
    # the first nontrivial correction (j = 3) is (1/a) * (c2 - ct2) * f_{b+1}(ct)
    for model in (M46, M47):
        b = model.b
        bar = f_bar(model, 3)
        vs = bar.varset
        c2 = variable(vs, "c2")
        ct2 = variable(vs, "ct2")
        tilde = [f"ct{k}" for k in range(2, model.a + 1)]
        f_j = f_coeff(model, b, b + 3).rename(vs)
        f_prev_tilde = f_coeff(model, b, b + 1).rename(vs, tilde)
        assert bar == f_j + sub(c2, ct2) * f_prev_tilde * Fraction(1, model.a)


def test_f_bar_low_index_has_no_correction():
    # j = 1, 2 have empty correction ranges
    for model in (M23, M34, M46):
        for j in (1, 2):
            if j >= model.a:
                continue
            bar = f_bar(model, j)
            assert bar == f_coeff(model, model.b, model.b + j).rename(bar.varset)


def test_jacobian_matrix_diagonal_shape():
    mat = f_bar_jacobian_matrix(M46)
    assert len(mat) == 3 and all(len(row) == 3 for row in mat)
    for row in mat:
        for entry in row:
            assert entry.varset == M46.varset


def test_jacobian_matrix_is_immutable():
    mat = f_bar_jacobian_matrix(M46)
    assert isinstance(mat, tuple) and all(isinstance(row, tuple) for row in mat)
    with pytest.raises(TypeError):
        mat[0][0] = MPoly.zero(M46.varset)
    with pytest.raises(TypeError):
        mat[0] = ()
    assert f_bar_jacobian_matrix(M46) is mat
    # the rows at a point are fresh dicts, so changing them touches no cache
    point = (Fraction(1), Fraction(2), Fraction(-1))
    rows = f_bar_jacobian_at(M46, point)
    rows[0].clear()
    assert f_bar_jacobian_at(M46, point)[0]


def _identified(model):
    """The Jacobian matrix with ct identified with c by MPoly.rename."""
    single = model.varset
    identify = [f"c{k}" for k in range(2, model.a + 1)] * 2
    return tuple(tuple(f_bar(model, j).diff(f"c{k}").rename(single, identify)
                       for k in range(2, model.a + 1))
                 for j in range(1, model.a))


@pytest.mark.parametrize("a", range(2, 7))
def test_jacobian_matrix_matches_evaluated_identification(a):
    for b in range(a + 1, 13):
        if b % a:
            model = LocalModel(a, b)
            assert f_bar_jacobian_matrix(model) == _identified(model)


@pytest.mark.parametrize("a", range(2, 8))
def test_generators_match_their_earlier_routes(a):
    # f_bar written term by term, the Toeplitz Jacobian and the packed sum of
    # products against MPoly products, doubled-ring identification and an
    # MPoly sum, for b = a+1 .. a+12
    for b in range(a + 1, a + 13):
        if b % a == 0:
            continue
        model = LocalModel(a, b)
        for j in range(1, a):
            assert f_bar(model, j) == f_bar_by_products(model, j)
            assert big_f(model, j) == big_f_by_sums(model, j)
        assert f_bar_jacobian_matrix(model) == jacobian_by_identification(model)


@pytest.mark.parametrize("model", [M23, M34, M47, M57, M67, LocalModel(7, 9)])
def test_jacobian_matrix_is_toeplitz(model):
    # entry (j, k) depends only on j - k, in the matrix and in the reference
    # that differentiates f_bar in the doubled ring
    for mat in (f_bar_jacobian_matrix(model), jacobian_by_identification(model)):
        n = model.a - 1
        for j in range(n - 1):
            for k in range(n - 1):
                assert mat[j][k] == mat[j + 1][k + 1]


@pytest.mark.parametrize("model", [M23, M35, M47, M57, M67])
def test_f_coeff_derivative_identity(model):
    # d f_coeff(beta, m) / d c_k = (beta/a) f_coeff(beta - a, m - k)
    for beta in (model.b, 1, -3):
        for m in range(0, model.b + model.a):
            for k in range(2, model.a + 1):
                want = (f_coeff(model, beta - model.a, m - k) * Fraction(beta, model.a)
                        if m >= k else MPoly.zero(model.varset))
                assert f_coeff(model, beta, m).diff(f"c{k}") == want


# sha256 of poly_text(jac_bar(model)), recorded from the Bareiss elimination
# the minors expansion replaced; (7, 9) from the minors expansion run from
# the bottom row up, before the rows were ordered by term count.
JAC_BAR_SHA256 = {
    (5, 7): "cb2582bc73cfe8651c996df0cd673afc5bc9c376b22c45a4b414d162cb59f7a1",
    (6, 7): "a589a499e913d4d34760f0da033eda3a3ad71cbdad8c8ed0ad1665432c9b2cf0",
    (7, 8): "33cdd5899ad14a824acfcba3ae3bda4ec429af5f112814fa6e9a687760ac214b",
    (7, 9): "bfb99b874f907432b86e6560f2e1e05e559dcf4880a7067457fda8e4f6d735b1",
}


@pytest.mark.parametrize("a, b", JAC_BAR_SHA256)
def test_jac_bar_golden_hashes(a, b):
    text = poly_text(jac_bar(LocalModel(a, b)))
    assert hashlib.sha256(text.encode()).hexdigest() == JAC_BAR_SHA256[a, b]


# sha256 of the lines poly_text(big_f(model, i) * jac_bar(model)), i = 1..a-1,
# recorded from the product on exponent tuples that the packed words replaced.
CANDIDATE_SHA256 = {
    (6, 7): "9ec77d297211f924266ae65dd53c5af731521a272ef3598394f0dd02ad3b54fa",
    (7, 8): "22dbfc3379a4d683e19283476909fceb39bca17988b46b3d101320bf9248154d",
}


@pytest.mark.parametrize("a, b", CANDIDATE_SHA256)
def test_genericity_candidate_golden_hashes(a, b):
    model = LocalModel(a, b)
    text = "\n".join(poly_text(big_f(model, i) * jac_bar(model)) for i in range(1, a))
    assert hashlib.sha256(text.encode()).hexdigest() == CANDIDATE_SHA256[a, b]


def test_jac_bar_frozen():
    assert poly_text(jac_bar(M23)) == "3/4*c2"
    assert poly_text(jac_bar(M46)) == (
        "27/16384*c2^6*c3 + 27/2048*c2^3*c3^3 - 81/4096*c2^4*c3*c4 + 27/1024*c3^5 "
        "- 27/512*c2*c3^3*c4 + 81/1024*c2^2*c3*c4^2 - 27/256*c3*c4^3")


def test_jac_bar_weighted_homogeneous():
    for model in (M23, M34, M46, M47):
        assert isinstance(weighted_degree(jac_bar(model)), int)


# ---------------------------------------------------------------------------
# twisted expansion coefficients


def test_sigma_frozen_values():
    sm = SigmaModel(M23, (Fraction(1),))
    assert poly_text(sigma_coeff(sm, 1, 6)) == "3/2*c2"
    assert poly_text(sigma_coeff(sm, 2, 6)) == "2*c2"


def test_sigma_untwisted_is_plain_f():
    sm = SigmaModel(M34)
    for l in range(1, 3):
        assert sigma_coeff(sm, l, 10) == f_coeff(M34, M34.b, M34.b - l)


def test_sigma_disjoint_union_matches_sum_oracle():
    # Every model of the reparam benchmark pool plus (5, 7), g0 of length 0
    # to 3 (with zero entries), every l of the matching identity's window.
    models = [LocalModel(a, b) for a, b in
              ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (3, 8),
               (4, 5), (4, 6), (4, 7), (5, 7))]
    g0s = [(), (Fraction(3, 2),), (Fraction(-2), Fraction(0)),
           (Fraction(1, 3), Fraction(0), Fraction(-5, 4))]
    for model in models:
        for g0 in g0s:
            sm = SigmaModel(model, g0)
            for modulus in range(8, 13):
                l_sing = max(modulus - model.b - 1, 0)
                for l in range(-l_sing, model.b + len(g0) + 1):
                    got = sigma_coeff(sm, l, tmax=modulus)
                    want = sigma_by_sums(sm, l, tmax=modulus)
                    assert got == want
                    assert all(type(c) is Fraction for c in got.terms.values())
