"""Truncated t-series, powers of the reparameterization unit, the solver
with its order audits, and the regular/singular matching identity."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from equigen import series
from equigen.expansion import LocalModel, SigmaModel, sigma_coeff
from equigen.series import (
    TriState,
    TSeries,
    _binomials,
    _unit_powers,
    order_bound_audit,
    pm_identity_check,
    pm_window_bound,
    reparam_solve,
    substitution_check,
)
from oracles import evaluate_by_sums, pm_difference_by_column_0, reparam_table, unit_powers, w_coeff

SEED = 20260816

K = 10


def ts(*coeffs, modulus=K):
    return TSeries(modulus, [Fraction(c) for c in coeffs])


series_strat = st.builds(
    lambda cs: TSeries(8, cs),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=8),
)


# ---------------------------------------------------------------------------
# TSeries


def test_tseries_trims_and_caps():
    s = TSeries(4, [1, 0, 2, 0, 7, 9])
    assert s.coeffs == (1, 0, 2)
    assert not TSeries(3, [0, 0, 0, 5])


def test_tseries_ord_sentinel():
    assert ts(0, 0, 3).ord() == 2
    assert TSeries.zero(K).ord() == K


def test_tseries_coeff_bounds():
    s = ts(1, 2)
    assert s.coeff(5) == 0
    with pytest.raises(ValueError):
        s.coeff(K)
    with pytest.raises(ValueError):
        s.coeff(-1)


def test_tseries_mixed_moduli_rejected():
    with pytest.raises(ValueError, match="mixed moduli"):
        ts(1) + ts(1, modulus=K + 1)
    with pytest.raises(ValueError, match="mixed moduli"):
        ts(1) - ts(1, modulus=K + 1)
    with pytest.raises(ValueError):
        ts(1) * ts(1, modulus=K + 1)


def test_constant_series_equals_its_scalar():
    for modulus in (1, 5):
        assert TSeries.zero(modulus) == 0 and TSeries.zero(modulus) == Fraction(0)
        assert TSeries.constant(Fraction(3, 2), modulus) == Fraction(3, 2)
        four = TSeries.constant(-4, modulus)
        assert four == -4 and four == Fraction(-4)
    # t is no scalar
    assert ts(0, 1) != 0 and ts(0, 1) != 1


@given(series_strat, series_strat, series_strat)
def test_tseries_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(series_strat, series_strat)
def test_tseries_ord_bounds(a, b):
    assert (a + b).ord() >= min(a.ord(), b.ord())
    assert (a * b).ord() >= min(a.ord() + b.ord(), a.modulus)


def test_tseries_shift_and_truncate():
    s = ts(1, 2, 3)
    assert s * TSeries.t_power(2, K) == ts(0, 0, 1, 2, 3)
    assert TSeries(2, s.coeffs) == TSeries(2, [1, 2])
    with pytest.raises(ValueError):
        TSeries.t_power(-1, K)


def test_tseries_pow_and_scalar_div():
    assert (ts(2, 4) / 2) == ts(1, 2)


# ---------------------------------------------------------------------------
# the arithmetic kernel against a Fraction schoolbook oracle


def _oracle(modulus, coeffs):
    """Dense, truncated, trimmed Fraction list: what a result must store."""
    out = [Fraction(c) for c in coeffs][:modulus]
    while out and not out[-1]:
        out.pop()
    return out


def _oracle_add(x, y, sign=1):
    n = max(len(x), len(y))
    x, y = x + [0] * (n - len(x)), y + [0] * (n - len(y))
    return [a + sign * b for a, b in zip(x, y)]


def _oracle_mul(x, y, modulus):
    out = [Fraction(0)] * modulus
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if i + j < modulus:
                out[i + j] += a * b
    return out


def _random_coeffs(rng, length):
    """Zeros, negatives, small and huge mixed denominators, in one list."""
    out = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.25:
            out.append(Fraction(0))
        elif kind < 0.75:
            out.append(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 12))))
        else:
            out.append(Fraction(rng.randint(-10 ** 30, 10 ** 30),
                                rng.randint(1, 10 ** 25)))
    if out and rng.random() < 0.5:
        out[-1] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
    return out


# operand lengths around 16, the zero series, single terms, and raw inputs
# longer than the modulus
CUT = 16
KERNEL_LENGTHS = [0, 1, 2, 7, CUT - 1, CUT, CUT + 1, 2 * CUT + 3, 45]


def _kernel_cases(count):
    rng = random.Random(SEED + 7)
    for _ in range(count):
        modulus = rng.choice((1, 3, CUT - 1, CUT, CUT + 1, 30, 50))
        lx, ly = rng.choice(KERNEL_LENGTHS), rng.choice(KERNEL_LENGTHS)
        yield modulus, _random_coeffs(rng, lx), _random_coeffs(rng, ly)


def _assert_kernel_result(s, modulus, expected):
    assert s.modulus == modulus
    assert list(s.coeffs) == _oracle(modulus, expected)
    assert all(type(c) is Fraction for c in s.coeffs)
    assert not s.coeffs or s.coeffs[-1] != 0  # trimmed
    assert len(s.coeffs) <= modulus


def test_tseries_kernel_matches_fraction_oracle():
    for modulus, x, y in _kernel_cases(400):
        sx, sy = TSeries(modulus, x), TSeries(modulus, y)
        ox, oy = _oracle(modulus, x), _oracle(modulus, y)
        _assert_kernel_result(sx + sy, modulus, _oracle_add(ox, oy))
        _assert_kernel_result(sx - sy, modulus, _oracle_add(ox, oy, -1))
        _assert_kernel_result(-sx, modulus, [-c for c in ox])
        _assert_kernel_result(sx * sy, modulus, _oracle_mul(ox, oy, modulus))
        _assert_kernel_result(sy * sx, modulus, _oracle_mul(oy, ox, modulus))
        k = y[0] if y else Fraction(0)
        _assert_kernel_result(sx * k, modulus, [c * k for c in ox])
        _assert_kernel_result(sx * TSeries.t_power(CUT, modulus), modulus, [0] * CUT + ox)
        _assert_kernel_result(TSeries(max(1, modulus // 2), sx.coeffs), max(1, modulus // 2), ox)


def _rep(s):
    return s.modulus, s._val, s._num, s._den


def test_tseries_representation_is_canonical():
    # equal values built along different paths store the same fields
    half = TSeries(6, [0, Fraction(1, 2), Fraction(3, 4)])
    assert (half._val, half._num, half._den) == (1, (2, 3), 4)
    assert _rep(TSeries(6, [0, Fraction(2, 4), Fraction(6, 8), 0])) == _rep(half)
    # a sum that cancels the terms that set the denominator
    tail = TSeries(6, [0, 0, Fraction(3, 4)])
    assert _rep(half - tail) == _rep(TSeries(6, [0, Fraction(1, 2)]))
    assert _rep(half - tail) == _rep(TSeries.t_power(1, 6, Fraction(1, 2)))
    # products and scalar multiples
    assert _rep(TSeries(6, [0, 1]) * TSeries(6, [Fraction(1, 2), Fraction(3, 4)])) == _rep(half)
    assert _rep(TSeries(6, [0, 2, 3]) * Fraction(1, 4)) == _rep(half)
    assert _rep(TSeries(6, [0, 2, 3]) / 4) == _rep(half)
    assert _rep(half * 4) == _rep(TSeries(6, [0, 2, 3]))
    assert _rep(TSeries(6, [Fraction(1, 6), Fraction(1, 4)]) * 6) == _rep(
        TSeries(6, [1, Fraction(3, 2)]))
    assert _rep(half * -2) == _rep(TSeries(6, [0, -1, Fraction(-3, 2)]))
    assert _rep(TSeries(6, [0, Fraction(1, 3)]) * TSeries(6, [3, Fraction(9, 2)])) == _rep(
        TSeries(6, [0, 1, Fraction(3, 2)]))
    # cutting to a smaller modulus drops the term that set the denominator
    assert _rep(TSeries(2, half.coeffs)) == _rep(TSeries(2, [0, Fraction(1, 2)]))
    assert _rep(TSeries(2, TSeries(6, [1, 2, Fraction(1, 7)]).coeffs)) == _rep(TSeries(2, [1, 2]))
    assert TSeries(2, TSeries(6, [1, 2, Fraction(1, 7)]).coeffs)._den == 1
    # the zero series, however it arises
    zero = _rep(TSeries(6))
    assert zero[1:4] == (0, (), 1)
    for z in (TSeries.zero(6), half - half, half * 0, half * TSeries.t_power(5, 6),
              TSeries(6, [0, 0, 0, 0, 0, 0, Fraction(1, 3)]), TSeries.t_power(2, 6, 0),
              TSeries(6, [0, Fraction(1, 3)]) * TSeries(6, [0, 0, 0, 0, 0, 5]),
              TSeries(6, TSeries(6, [0, 0, Fraction(1, 3)]).coeffs)
              - TSeries(6, [0, 0, Fraction(2, 6)])):
        assert _rep(z) == zero
    # mixed denominators in a sum land on the reduced lcm
    s = TSeries(6, [Fraction(1, 6)]) + TSeries(6, [Fraction(1, 3), Fraction(1, 10)])
    assert (s._val, s._num, s._den) == (0, (5, 1), 10)
    assert s.coeffs == (Fraction(1, 2), Fraction(1, 10))


def _at(val, coeffs, modulus=K):
    """sum_i coeffs[i] t^(val + i), truncated at the modulus."""
    return TSeries(modulus, [0] * val + [Fraction(c) for c in coeffs])


# the one series accumulator against term-by-term series arithmetic

DOT_K = 8

dot_series = st.builds(
    lambda val, cs: TSeries(DOT_K, [0] * val + cs),
    st.integers(0, DOT_K),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6),
)
dot_scalar = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5,
                                                        max_denominator=6)).filter(bool)


@st.composite
def dot_terms(draw):
    """Terms (k, x, y), y = None among them, and half the time some of them
    again with k negated, so that the sum may cancel to zero."""
    terms = draw(st.lists(st.tuples(dot_scalar, dot_series, st.none() | dot_series),
                          max_size=6))
    if terms and draw(st.booleans()):
        again = draw(st.permutations(terms))[:draw(st.integers(1, len(terms)))]
        terms += [(-k, x, y) for k, x, y in again]
    return terms


def _assert_canonical(s, modulus):
    assert s.modulus == modulus and type(s._num) is tuple and s._den > 0
    if not s._num:
        assert (s._val, s._den) == (0, 1)
        return
    assert s._num[0] and s._num[-1] and s._val + len(s._num) <= modulus
    assert math.gcd(s._den, *s._num) == 1


def _dot_by_sums(terms):
    total = TSeries.zero(DOT_K)
    for k, x, y in terms:
        total = total + (k * x if y is None else k * x * y)
    return total


# the one-term case, y = None, zero series, a product whose valuation
# reaches K, mixed valuations, and terms that cancel to zero
@example([(Fraction(3, 4), _at(1, [2, 0, Fraction(1, 3)], DOT_K), None)])
@example([(2, _at(2, [1, 1], DOT_K), _at(3, [Fraction(1, 2)], DOT_K))])
@example([(1, TSeries.zero(DOT_K), None), (5, _at(0, [1], DOT_K), TSeries.zero(DOT_K))])
@example([(1, _at(4, [1], DOT_K), _at(4, [1, 2], DOT_K)), (-1, _at(7, [3], DOT_K), None)])
@example([(Fraction(1, 3), _at(0, [1, 2], DOT_K), _at(5, [1], DOT_K)),
          (2, _at(3, [Fraction(1, 2)], DOT_K), None),
          (Fraction(-1, 3), _at(5, [1, 2], DOT_K), None)])
@given(dot_terms())
def test_dot_matches_term_by_term_sum(terms):
    got = TSeries._dot(DOT_K, terms)
    assert got == _dot_by_sums(terms)
    _assert_canonical(got, DOT_K)


def _assert_valuation_form(s, dense):
    """s stores the dense Fraction list ``dense`` (from t^0) in canonical form."""
    modulus = s.modulus
    expected = _oracle(modulus, dense)
    _assert_kernel_result(s, modulus, expected)
    if not expected:
        assert (s._val, s._num, s._den) == (0, (), 1)
        assert s.ord() == modulus
    else:
        val = next(i for i, c in enumerate(expected) if c)
        assert s._val == s.ord() == val
        assert s._num[0] and s._num[-1]
        assert s._val + len(s._num) == len(expected) <= modulus
        assert math.gcd(s._den, *s._num) == 1 and s._den > 0
    for i in range(modulus):
        c = s.coeff(i)
        assert type(c) is Fraction and c == (expected[i] if i < len(expected) else 0)


def test_tseries_valuation_edge_cases_match_dense_oracle():
    h = Fraction(1, 2)
    x = _at(3, [h, 2, 5])
    # equal valuations whose leading terms cancel, partly and to zero
    y = _at(3, [h, 2, Fraction(1, 3)])
    _assert_valuation_form(x - y, [0] * 5 + [Fraction(14, 3)])
    _assert_valuation_form(x + (-y), [0] * 5 + [Fraction(14, 3)])
    _assert_valuation_form(x - _at(3, [h, 1, 5]), [0, 0, 0, 0, 1])
    _assert_valuation_form(x - x, [])
    _assert_valuation_form(x + -x, [])
    _assert_valuation_form(_at(2, [Fraction(1, 6), Fraction(1, 4)]) - _at(2, [Fraction(1, 6)]),
                           [0, 0, 0, Fraction(1, 4)])
    # a valuation gap, both operand orders, with and without overlap
    lo = [0, Fraction(1, 3), 0, 1]
    near = [0, 0, Fraction(3, 7), 4]
    hi = [0] * 6 + [Fraction(2, 5), 1]
    for u, v in ((lo, hi), (hi, lo), (lo, near), (near, lo), (hi, near), (near, hi)):
        _assert_valuation_form(TSeries(K, u) + TSeries(K, v), _oracle_add(u, v))
        _assert_valuation_form(TSeries(K, u) - TSeries(K, v), _oracle_add(u, v, -1))
    _assert_valuation_form(TSeries(K, hi) + 1, [1] + hi[1:])
    # products whose valuation sum is K - 1, K and past K
    _assert_valuation_form(_at(4, [2, 3]) * _at(5, [h, 7]), [0] * 9 + [1])
    for vx, vy in ((4, 6), (5, 6), (9, 9)):
        _assert_valuation_form(_at(vx, [2, 3]) * _at(vy, [h]), [])
    x3 = _at(3, [1, 1])
    _assert_valuation_form(x3 * x3 * x3, [0] * 9 + [1])
    x4 = _at(4, [1, 1])
    _assert_valuation_form(x4 * x4 * x4, [])
    # times a power of t, to and past the modulus, and into a cut of the tail
    _assert_valuation_form(x * TSeries.t_power(7, K), [])
    _assert_valuation_form(x * TSeries.t_power(40, K), [])
    _assert_valuation_form(x * TSeries.t_power(6, K), [0] * 9 + [h])
    _assert_valuation_form(_at(0, [1, Fraction(1, 9)]) * TSeries.t_power(9, K), [0] * 9 + [1])
    _assert_valuation_form(TSeries.zero(K) * TSeries.t_power(3, K), [])
    # coefficients below the valuation read as zero; the zero series has order K
    assert x.coeff(0) == x.coeff(2) == 0 and x.coeff(3) == h
    assert TSeries.zero(K).ord() == (x - x).ord() == (x * _at(7, [h, 2, 5])).ord() == K


def test_tseries_valuation_kernel_matches_dense_oracle():
    rng = random.Random(SEED + 9)
    for _ in range(300):
        modulus = rng.choice((1, 4, K, CUT, 30))
        vx, vy = rng.randint(0, modulus), rng.randint(0, modulus)
        x = [0] * vx + _random_coeffs(rng, rng.choice((0, 1, 2, 5, CUT)))
        y = [0] * vy + _random_coeffs(rng, rng.choice((0, 1, 2, 5, CUT)))
        if rng.random() < 0.3:
            # same valuation and leading terms: the sum cancels at the front
            y = x[:rng.randint(0, len(x))] + y[len(x):]
        sx, sy = TSeries(modulus, x), TSeries(modulus, y)
        ox, oy = _oracle(modulus, x), _oracle(modulus, y)
        _assert_valuation_form(sx, ox)
        _assert_valuation_form(sx + sy, _oracle_add(ox, oy))
        _assert_valuation_form(sy - sx, _oracle_add(oy, ox, -1))
        _assert_valuation_form(sx * sy, _oracle_mul(ox, oy, modulus))
        _assert_valuation_form(sx * Fraction(-3, 4), [c * Fraction(-3, 4) for c in ox])
        # an int scalar, often sharing a factor with the denominator
        k = rng.choice((-12, -6, -1, 0, 1, 2, 4, 9, 30))
        _assert_valuation_form(sx * k, [c * k for c in ox])
        _assert_valuation_form(k * sx, [c * k for c in ox])
        n = rng.randint(0, modulus + 1)
        _assert_valuation_form(sx * TSeries.t_power(n, modulus), [0] * n + ox)


def test_tseries_equal_values_have_equal_fields_across_paths():
    # t^4 (1/2 + 3/4 t) built by the constructor and by arithmetic
    value = _rep(TSeries(K, [0, 0, 0, 0, Fraction(1, 2), Fraction(3, 4)]))
    low = _at(1, [Fraction(5, 3), 7])
    paths = (
        TSeries(K, [Fraction(1, 2), Fraction(3, 4)]) * TSeries.t_power(4, K),
        _at(1, [Fraction(2, 4), Fraction(3, 4), 0]) * TSeries.t_power(3, K),
        TSeries.t_power(4, K, Fraction(1, 2)) + TSeries.t_power(5, K, Fraction(3, 4)),
        TSeries.t_power(5, K, Fraction(3, 4)) + TSeries.t_power(4, K, Fraction(1, 2)),
        TSeries.t_power(2, K, 2) * _at(2, [Fraction(1, 4), Fraction(3, 8)]),
        _at(4, [1, Fraction(3, 2)]) / 2,
        (low + _at(4, [Fraction(1, 2), Fraction(3, 4)])) - low,
        _at(4, [Fraction(1, 2), Fraction(3, 4), 5]) - _at(6, [5]),
        -(-_at(4, [Fraction(1, 2), Fraction(3, 4)])),
    )
    for s in paths:
        assert _rep(s) == value
        assert s == TSeries(K, s.coeffs)
    # the same stored numerators at another valuation are another value
    assert paths[0] != paths[0] * TSeries.t_power(1, K) != _at(3, [Fraction(1, 2), Fraction(3, 4)])
    assert paths[0] != _at(3, [Fraction(1, 2), Fraction(3, 4)])


def test_tseries_public_constructor_coerces_and_checks():
    s = TSeries(3, [1, Fraction(1, 2), "2/3", 0])
    assert s.coeffs == (1, Fraction(1, 2), Fraction(2, 3))
    assert all(type(c) is Fraction for c in s.coeffs)
    with pytest.raises(ValueError):
        TSeries(0, [1])
    assert not TSeries.t_power(K, K, 5)
    assert not TSeries.t_power(2, K, 0)
    assert ts(1, 2) * TSeries.t_power(K, K) == TSeries.zero(K)


# ---------------------------------------------------------------------------
# reparameterization


def _worked_example():
    c_now = [ts(0, 0, 1)]
    c_next = [ts(0, 0, 1, 1)]
    return LocalModel(2, 3), c_now, c_next


def test_reparam_worked_example_frozen():
    model, c_now, c_next = _worked_example()
    res = reparam_solve(model, c_now, c_next, 8, K)
    assert res.delta_prime[2] == ts(0, 0, 0, 1)
    assert res.epsilon[3] == TSeries.zero(K)
    assert res.epsilon[4] == ts(0, 0, 0, 0, 0, 0, Fraction(-1, 8))
    assert res.epsilon[5] == TSeries.zero(K)
    assert res.epsilon[6] == ts(0, 0, 0, 0, 0, 0, 0, 0, 0, Fraction(-1, 16))


def test_reparam_low_orders_copy_delta():
    # delta'_2 and delta'_3 copy the raw increments: cross terms only enter
    # at order 4 and above
    rng = random.Random(SEED)
    for a in (2, 3, 4):
        model = LocalModel(a, a + 1 if (a + 1) % a else a + 2)
        for _ in range(25):
            c_now, c_next = _random_pair(rng, model, K)
            res = reparam_solve(model, c_now, c_next, 9, K)
            for i in range(2, min(3, a) + 1):
                assert res.delta_prime[i] == c_next[i - 2] - c_now[i - 2]


def _random_pair(rng, model, modulus):
    # ord(c_i(now)) is pinned at exactly i so the increment floor is i + 1
    c_now = []
    c_next = []
    for i in range(2, model.a + 1):
        lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))
        base = [0] * i + [lead] + [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                   for _ in range(modulus - i - 1)]
        delta = [0] * min(i + 1 + rng.randint(0, 2), modulus)
        delta += [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                  for _ in range(modulus - len(delta))]
        c_now.append(TSeries(modulus, base))
        c_next.append(TSeries(modulus, base) + TSeries(modulus, delta))
    return c_now, c_next


def test_reparam_substitution_oracle_randomized():
    rng = random.Random(SEED + 1)
    for a, b in ((2, 3), (3, 4), (4, 6)):
        model = LocalModel(a, b)
        for _ in range(20):
            modulus = rng.randint(8, 12)
            smax = rng.randint(a, 10)
            c_now, c_next = _random_pair(rng, model, modulus)
            res = reparam_solve(model, c_now, c_next, smax, modulus)
            assert substitution_check(res, c_now, c_next)
            assert order_bound_audit(res, c_now, c_next).ok


def test_reparam_result_cut_equals_shallow_solve():
    # order m of the solve reads only lower orders, so a deep solve cut at
    # smax is the solve at smax
    rng = random.Random(SEED + 10)
    for a, b in ((2, 3), (3, 4), (4, 6)):
        model = LocalModel(a, b)
        for _ in range(8):
            modulus = rng.randint(8, 12)
            smax = rng.randint(a, 10)
            c_now, c_next = _random_pair(rng, model, modulus)
            deep = reparam_solve(model, c_now, c_next, smax + rng.randint(0, 8), modulus)
            assert deep.cut(smax) == reparam_solve(model, c_now, c_next, smax, modulus)


def test_reparam_identical_inputs_give_zero():
    model, c_now, _ = _worked_example()
    res = reparam_solve(model, c_now, [s for s in c_now], 8, K)
    assert not any(res.delta_prime.values())
    assert not any(res.epsilon.values())


def _unit_by_convolution(model, c_now, c_next, smax, modulus):
    """The solver's unit as the convolution recurrence computed it before the
    binomial powers: w[e][m] = [W^e]_m, and the u_m-free part known[e] of
    w[e][m] is convolved up from w[e - 1] one exponent e at a time."""
    a = model.a
    zero = TSeries.zero(modulus)
    u = {}
    w = [[zero] * (smax + 1) for _ in range(a + 1)]
    for e in range(a + 1):
        w[e][0] = TSeries.constant(1, modulus)
    for m in range(2, smax + 1):
        known = [zero] * (a + 1)
        for e in range(1, a + 1):
            acc = known[e - 1]
            for jj in range(2, m - 1):
                acc = acc + w[e - 1][m - jj] * u[jj]
            known[e] = acc
        lhs = known[a]
        for k in range(2, a + 1):
            if m - k >= 0:
                lhs = lhs + c_next[k - 2] * w[a - k][m - k]
        rhs = c_now[m - 2] if 2 <= m <= a else zero
        u[m] = (rhs - lhs) / a
        for e in range(1, a + 1):
            w[e][m] = known[e] + u[m] * e
    return u


def test_reparam_unit_matches_convolution_recurrence():
    rng = random.Random(SEED + 6)
    for a, b in ((2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)):
        model = LocalModel(a, b)
        for _ in range(3):
            modulus = rng.randint(8, 12)
            smax = rng.randint(20, 24)
            c_now, c_next = _random_pair(rng, model, modulus)
            res = reparam_solve(model, c_now, c_next, smax, modulus)
            u = _unit_by_convolution(model, c_now, c_next, smax, modulus)
            assert res.unit[2:] == [u[m] for m in range(2, smax + 1)]


def test_reparam_validation():
    model, c_now, c_next = _worked_example()
    with pytest.raises(ValueError):
        reparam_solve(model, c_now, c_next, 1, K)  # smax below a
    with pytest.raises(ValueError):
        reparam_solve(model, [ts(1)], c_next, 8, K)  # ord(c2) < 2
    with pytest.raises(ValueError):
        reparam_solve(model, c_now, [ts(0, 0, 1, modulus=12)], 8, K)  # moduli differ


def test_audit_entries_worked_example():
    model, c_now, c_next = _worked_example()
    res = reparam_solve(model, c_now, c_next, 8, K)
    audit = order_bound_audit(res, c_now, c_next)
    by_key = {(e.kind, e.index): e for e in audit.entries}
    d2 = by_key[("delta_prime", 2)]
    assert (d2.required, d2.actual) == (3, 3)
    e4 = by_key[("epsilon", 4)]
    assert (e4.required, e4.actual) == (5, 6)
    assert audit.ok


def _corrupt(res):
    # u_2 off by t^(K-1), the smallest change still visible mod t^K, both in
    # the unit and in the row V_1 = W - 1 of the solve's table
    bump = TSeries.t_power(res.modulus - 1, res.modulus)
    res.unit[2] = res.unit[2] + bump
    res.powers[1][2] = res.powers[1][2] + bump
    return res


def test_substitution_check_rejects_corrupted_unit():
    rng = random.Random(SEED + 3)
    for a, b in ((2, 3), (3, 4), (4, 6)):
        model = LocalModel(a, b)
        for _ in range(20):
            modulus = rng.randint(8, 12)
            smax = rng.randint(a, 10)
            c_now, c_next = _random_pair(rng, model, modulus)
            res = reparam_solve(model, c_now, c_next, smax, modulus)
            assert substitution_check(res, c_now, c_next)
            assert substitution_check(_corrupt(res), c_now, c_next) is False


# ---------------------------------------------------------------------------
# powers of the unit W = s(next)/s


def _convolve(x, y, depth):
    return [sum((x[k] * y[m - k] for k in range(m + 1)), TSeries.zero(x[0].modulus))
            for m in range(depth + 1)]


def _inverse(unit, depth):
    # back-substitution for W * W^-1 = 1, independent of the recurrence
    inv = [unit[0]]
    for m in range(1, depth + 1):
        inv.append(-sum((unit[k] * inv[m - k] for k in range(1, m + 1)),
                        TSeries.zero(unit[0].modulus)))
    return inv


def test_unit_powers_geometric_inverse():
    # (1 - t s^-1)^-1 = sum t^k s^-k; u_1 != 0, so the recurrence starts at k = 1
    unit = [ts(1), ts(0, -1), ts(), ts(), ts()]
    assert _unit_powers(unit, -1, 4) == [TSeries.t_power(k, K) for k in range(5)]


def _units(depth):
    rng = random.Random(SEED + 5)
    model, c_now, c_next = _worked_example()
    return {
        "one-minus-t": [ts(1), ts(0, -1)] + [ts()] * (depth - 1),
        "one-plus-t": [ts(1), ts(0, 1)] + [ts()] * (depth - 1),
        "solved": reparam_solve(model, c_now, c_next, depth, K).unit,
        "dense": [ts(1)] + [TSeries(K, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                        for _ in range(K)]) for _ in range(depth)],
    }


UNITS = _units(6)


@pytest.mark.parametrize("unit", UNITS.values(), ids=UNITS.keys())
def test_unit_powers_match_repeated_convolution(unit):
    depth = len(unit) - 1
    one = [ts(1)] + [ts()] * depth
    ref = {0: one}
    for l in range(1, 6):
        ref[l] = _convolve(ref[l - 1], unit, depth)
    inv = _inverse(unit, depth)
    for l in range(-1, -4, -1):
        ref[l] = _convolve(ref[l + 1], inv, depth)
    for l in range(-3, 6):
        assert _unit_powers(unit, l, depth) == ref[l]
        # W^l * W^-l == 1 to depth
        assert _convolve(_unit_powers(unit, l, depth), _unit_powers(unit, -l, depth),
                         depth) == one


def test_unit_powers_refuse_depth_past_smax():
    model, c_now, c_next = _worked_example()
    res = reparam_solve(model, c_now, c_next, 8, K)
    unit = res.unit
    # u_1 = 0 by the shape of s(next); u_2 = -delta_2 / 2
    assert unit[:3] == [ts(1), ts(), ts(0, 0, 0, Fraction(-1, 2))]
    assert len(_unit_powers(unit, -2, res.smax)) == res.smax + 1
    with pytest.raises(ValueError):
        _unit_powers(unit, 2, res.smax + 1)


def test_binomials_for_any_integer():
    for l in range(0, 8):
        assert _binomials(l, 9) == [math.comb(l, j) for j in range(10)]
    for l in range(-6, 0):
        # C(l, j) = (-1)^j C(j - l - 1, j) for negative l
        assert _binomials(l, 9) == [(-1) ** j * math.comb(j - l - 1, j) for j in range(10)]


def _table_of(unit, depth):
    # The solver's table for a given unit: row V_1 = W - 1 is known up front,
    # the rest is filled column by column with the solver's own column step
    # and row rule, here also for units with u_1 != 0.
    zero = TSeries.zero(unit[0].modulus)
    powers = [[unit[0]] + [zero] * depth, [zero] + list(unit[1:depth + 1])]
    for m in range(1, depth + 1):
        if powers[-1][m - 1]:
            powers.append([zero] * (depth + 1))
        series._binomial_column(powers, m)
    return powers


@pytest.mark.parametrize("unit", UNITS.values(), ids=UNITS.keys())
def test_binomial_powers_match_miller_recurrence(unit):
    depth = len(unit) - 1
    powers = _table_of(unit, depth)
    assert len(powers) <= depth + 1
    assert powers[0] == [ts(1)] + [ts()] * depth
    assert powers[1] == [ts()] + unit[1:]
    assert all(any(row) for row in powers[:-1])
    for l in range(-3, 6):
        binom = _binomials(l, len(powers) - 1)
        for d in (depth, depth - 2):
            assert [w_coeff(powers, binom, m) for m in range(d + 1)] == _unit_powers(unit, l, d)


def _random_solves(seed):
    rng = random.Random(seed)
    for a, b in ((2, 3), (3, 4), (4, 6)):
        model = LocalModel(a, b)
        for _ in range(4):
            modulus = rng.randint(8, 12)
            smax = rng.randint(a, 14)
            c_now, c_next = _random_pair(rng, model, modulus)
            yield reparam_solve(model, c_now, c_next, smax, modulus)


def test_solver_table_matches_miller_recurrence():
    for res in _random_solves(SEED + 9):
        zero = TSeries.zero(res.modulus)
        assert res.powers[0] == [TSeries.constant(1, res.modulus)] + [zero] * res.smax
        assert res.powers[1] == [zero] + res.unit[1:]
        for l in range(-3, 6):
            # the whole table, and for l >= 0 only the rows up to C(l, l)
            binoms = [_binomials(l, len(res.powers) - 1)] + ([_binomials(l, l)] if l >= 0 else [])
            for binom in binoms:
                assert ([w_coeff(res.powers, binom, m) for m in range(res.smax + 1)]
                        == _unit_powers(res.unit, l, res.smax))


def test_solver_unit_and_table_match_term_by_term_solve():
    # Reparam cases (a in 2..4, modulus 8..12, smax up to 14): the solver
    # sums each column and each order's left side in one accumulator, the
    # oracle solves with TSeries + and * alone.
    rng = random.Random(SEED + 12)
    for n in range(30):
        a = 2 + n % 3
        model = LocalModel(*rng.choice(_REPARAM_MODELS[a]))
        modulus = rng.randint(8, 12)
        smax = rng.randint(a, 14)
        c_now, c_next = _random_pair(rng, model, modulus)
        res = reparam_solve(model, c_now, c_next, smax, modulus)
        assert (res.unit, res.powers) == reparam_table(model, c_now, c_next, smax, modulus)


def test_binomial_powers_stop_at_first_vanishing_power():
    # Identical inputs: W = 1, so V_1 = 0 and no row after it is added
    model = LocalModel(3, 4)
    c_now, _ = _random_pair(random.Random(SEED + 10), model, K)
    res = reparam_solve(model, c_now, c_now, 14, K)
    assert res.powers == [[ts(1)] + [ts()] * 14, [ts()] * 15]
    # and every power of W is 1
    assert [w_coeff(res.powers, _binomials(-4, 1), m) for m in range(15)] == [ts(1)] + [ts()] * 14
    # A row is added only once the row above has a nonzero entry; u_1 = 0,
    # so V_j starts at s^-2j at the earliest
    for res in _random_solves(SEED + 11):
        assert all(any(row) for row in res.powers[:-1])
        assert len(res.powers) <= (res.smax + 1) // 2 + 1


# ---------------------------------------------------------------------------
# matching identity


def test_pm_untwisted_true():
    model, c_now, c_next = _worked_example()
    K8 = 8
    c_now = [TSeries(K8, s.coeffs) for s in c_now]
    c_next = [TSeries(K8, s.coeffs) for s in c_next]
    assert pm_identity_check(SigmaModel(model), c_now, c_next, 8, K8) is TriState.TRUE


def test_pm_small_window_inconclusive():
    model, c_now, c_next = _worked_example()
    assert pm_identity_check(SigmaModel(model), c_now, c_next, 3, K) is TriState.INCONCLUSIVE


def test_pm_twisted_true():
    model, c_now, c_next = _worked_example()
    K8 = 8
    c_now = [TSeries(K8, s.coeffs) for s in c_now]
    c_next = [TSeries(K8, s.coeffs) for s in c_next]
    sm = SigmaModel(model, (Fraction(1), Fraction(-2, 3)))
    assert pm_identity_check(sm, c_now, c_next, 8, K8) is TriState.TRUE


def test_pm_a4_twisted_true():
    rng = random.Random(7)
    model = LocalModel(4, 6)
    modulus = 11
    c_now, c_next = _random_pair(rng, model, modulus)
    sm = SigmaModel(model, (Fraction(2),))
    assert pm_identity_check(sm, c_now, c_next, 7, modulus) is TriState.TRUE


def test_pm_randomized_in_bounds():
    rng = random.Random(SEED + 2)
    for a, b in ((2, 3), (3, 4)):
        model = LocalModel(a, b)
        for _ in range(10):
            modulus = rng.randint(7, 10)
            smax = max(model.a, modulus - model.b + rng.randint(0, 2))
            c_now, c_next = _random_pair(rng, model, modulus)
            g0 = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(rng.randint(0, 2)))
            sm = SigmaModel(model, g0)
            assert pm_identity_check(sm, c_now, c_next, smax, modulus) is TriState.TRUE


def test_pm_rejects_corrupted_unit(monkeypatch):
    solve = series.reparam_solve
    rng = random.Random(SEED + 4)
    for a, b in ((2, 3), (3, 4)):
        model = LocalModel(a, b)
        for _ in range(10):
            modulus = rng.randint(7, 10)
            smax = max(model.a, modulus - model.b + rng.randint(0, 2))
            c_now, c_next = _random_pair(rng, model, modulus)
            g0 = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(rng.randint(0, 2)))
            sm = SigmaModel(model, g0)
            assert pm_identity_check(sm, c_now, c_next, smax, modulus) is TriState.TRUE
            with monkeypatch.context() as patch:
                patch.setattr(series, "reparam_solve", lambda *args: _corrupt(solve(*args)))
                assert pm_identity_check(sm, c_now, c_next, smax, modulus) is TriState.FALSE


def test_pm_validates_before_the_window_test():
    # Malformed coefficient vectors raise whatever the window: at smax = 1
    # (below the bound K - b = 6) as at smax = 8 (above it).
    model = LocalModel(3, 4)
    c_now, c_next = _random_pair(random.Random(SEED + 7), model, K)
    sm = SigmaModel(model)
    malformed = {
        "one-entry": ([c_now[0]], [c_next[0]]),
        "modulus-8": ([TSeries(8, s.coeffs) for s in c_now],
                      [TSeries(8, s.coeffs) for s in c_next]),
    }
    for now, nxt in malformed.values():
        for smax in (1, 8):
            with pytest.raises(ValueError):
                pm_identity_check(sm, now, nxt, smax, K)


def test_pm_window_bound_is_the_threshold():
    model, c_now, c_next = _worked_example()
    bound = pm_window_bound(model, K)
    assert bound == K - model.b == 7
    sm = SigmaModel(model)
    assert pm_identity_check(sm, c_now, c_next, bound - 1, K) is TriState.INCONCLUSIVE
    assert pm_identity_check(sm, c_now, c_next, bound, K) is TriState.TRUE


def test_pm_expands_binomial_powers_and_substitution_keeps_miller(monkeypatch):
    # substitution_check stays the solver's independent oracle on Miller's
    # recurrence; the matching identity no longer calls it.
    model, c_now, c_next = _worked_example()
    res = reparam_solve(model, c_now, c_next, 8, K)

    def refuse(*args):
        raise AssertionError("_unit_powers called")

    monkeypatch.setattr(series, "_unit_powers", refuse)
    assert pm_identity_check(SigmaModel(model), c_now, c_next, 8, K) is TriState.TRUE
    with pytest.raises(AssertionError):
        substitution_check(res, c_now, c_next)


def test_binomial_column_step_is_shared_and_substitution_keeps_miller(monkeypatch):
    # The solver fills the one table of binomial powers with this column step
    # and pm reads that table; substitution_check, the solver's independent
    # oracle, never calls it.
    model, c_now, c_next = _worked_example()
    res = reparam_solve(model, c_now, c_next, 8, K)

    def refuse(*args):
        raise AssertionError("_binomial_column called")

    monkeypatch.setattr(series, "_binomial_column", refuse)
    assert substitution_check(res, c_now, c_next)
    with pytest.raises(AssertionError):
        pm_identity_check(SigmaModel(model), c_now, c_next, 8, K)


def _pm_difference_by_miller(sigma_model, c_now, c_next, smax, modulus):
    """The regrouped matching-identity difference as computed before the
    binomial powers: one Miller recurrence for W^l and one evaluation per
    s-exponent l and point, both summed term by term (``oracles``)."""
    model = sigma_model.model
    l_max = model.b + len(sigma_model.g0)
    l_sing = max(modulus - model.b - 1, 0)
    result = series.reparam_solve(model, c_now, c_next, max(smax + l_max, model.a), modulus)
    unit = result.unit

    diff = [TSeries.zero(modulus)] * (l_max + smax + 1)
    for l in range(-l_sing, l_max + 1):
        poly = sigma_coeff(sigma_model, l, tmax=modulus)
        s_nxt, s_now = (evaluate_by_sums([poly], values)[0] for values in (c_next, c_now))
        diff[l_max - l] = diff[l_max - l] - s_now
        if s_nxt:
            for m, p in enumerate(unit_powers(unit, l, l + smax)):
                diff[l_max - l + m] = diff[l_max - l + m] + s_nxt * p
    return diff


def _assert_pm_difference_matches_miller(monkeypatch, args):
    # Miller's reference solves to smax + l_max; pm stops at its read depth.
    solve = series.reparam_solve
    diff = series._pm_difference(*args)[1]
    assert diff == _pm_difference_by_miller(*args)
    assert not any(diff)
    with monkeypatch.context() as patch:
        patch.setattr(series, "reparam_solve", lambda *args: _corrupt(solve(*args)))
        diff = series._pm_difference(*args)[1]
        assert diff == _pm_difference_by_miller(*args)
        assert any(diff)


def test_pm_difference_matches_miller_reference(monkeypatch):
    rng = random.Random(SEED + 8)
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6)):
        model = LocalModel(a, b)
        for _ in range(3):
            modulus = rng.randint(8, 11)
            smax = max(a, pm_window_bound(model, modulus) + rng.randint(0, 2))
            c_now, c_next = _random_pair(rng, model, modulus)
            g0 = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(rng.randint(1, 2)))
            _assert_pm_difference_matches_miller(
                monkeypatch, (SigmaModel(model, g0), c_now, c_next, smax, modulus))
    # an untwisted section (g0 = ()), modulus 12, and the model (4, 7)
    for (a, b), modulus, g0 in (((2, 5), 10, ()), ((3, 4), 8, ()), ((3, 5), 12, (Fraction(1, 2),)),
                                ((2, 3), 12, ()), ((4, 7), 11, (Fraction(-1), Fraction(3, 2))),
                                ((4, 7), 12, ())):
        model = LocalModel(a, b)
        c_now, c_next = _random_pair(rng, model, modulus)
        bound = max(a, pm_window_bound(model, modulus))
        for smax in (bound, bound + 3):
            _assert_pm_difference_matches_miller(
                monkeypatch, (SigmaModel(model, g0), c_now, c_next, smax, modulus))


# Models by a, as the reparam benchmark draws them.
_REPARAM_MODELS = {2: [(2, 3), (2, 5), (2, 7)], 3: [(3, 4), (3, 5), (3, 7), (3, 8)],
                   4: [(4, 5), (4, 6), (4, 7)]}


def test_pm_difference_matches_column_0_loop(monkeypatch):
    # Reparam cases (a in 2..4, modulus 8..12, g0 of length 0..2, smax at
    # the window bound or up to 2 above it), each as solved and with a
    # corrupted unit, so that the difference is nonzero too: _pm_difference
    # adds sigma_l(next) - sigma_l(now) at s^l, the oracle reads [W^l]_0 = 1
    # off the table.
    rng = random.Random(SEED + 9)
    solve = series.reparam_solve
    nonzero = 0
    for n in range(36):
        a = 2 + n % 3
        model = LocalModel(*rng.choice(_REPARAM_MODELS[a]))
        modulus = rng.randint(8, 12)
        smax = max(a, pm_window_bound(model, modulus)) + rng.randint(0, 2)
        c_now, c_next = _random_pair(rng, model, modulus)
        g0 = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(rng.randint(0, 2)))
        args = (SigmaModel(model, g0), c_now, c_next, smax, modulus)
        diff = series._pm_difference(*args)[1]
        assert diff == pm_difference_by_column_0(*args)
        assert not any(diff)
        with monkeypatch.context() as patch:
            patch.setattr(series, "reparam_solve", lambda *args: _corrupt(solve(*args)))
            diff = series._pm_difference(*args)[1]
            assert diff == pm_difference_by_column_0(*args)
            nonzero += any(diff)
    assert nonzero > 30


def test_pm_unit_below_the_valuation_bound_raises(monkeypatch):
    # u_3 += t^3 puts column s^-3 of the solve below ord >= 4, the bound
    # the depth of pm's solve rests on: pm raises and gives no verdict.
    solve = series.reparam_solve

    def corrupt(*args):
        res = solve(*args)
        bump = TSeries.t_power(3, res.modulus)
        res.unit[3] = res.unit[3] + bump
        res.powers[1][3] = res.powers[1][3] + bump
        return res

    model, c_now, c_next = _worked_example()
    monkeypatch.setattr(series, "reparam_solve", corrupt)
    for g0 in ((), (Fraction(1), Fraction(-2, 3))):
        with pytest.raises(AssertionError, match="valuation bound"):
            pm_identity_check(SigmaModel(model, g0), c_now, c_next, 8, K)
