"""Lift scales, section bookkeeping, star systems, and the t-adic lifting
engine with its non-interference audit."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from equigen import expansion, groebner, lifting, polycore
from equigen.expansion import LocalModel
from equigen.groebner import GStatus, check_t
from equigen.lifting import (
    LiftState,
    PerturbContractError,
    PerturbTerm1,
    PerturbTerm2,
    SectionProfile,
    SingularConfig,
    _eval_perturb,
    build_section_basis,
    build_star_system,
    check_d,
    choose_l,
    deform_verdict,
    dual_kernel_basis,
    lift_point_step,
    lift_run,
    make_lift_state,
    polar_cover_table,
    random_provider,
    residual,
    star_satisfied,
    validate_perturb_term,
    zero_provider,
)
from equigen.polycore import poly_text
from equigen.series import TSeries

from oracles import pair_compare, section_ord, witness_verify

M23 = LocalModel(2, 3)
M25 = LocalModel(2, 5)
M46 = LocalModel(4, 6)

CFG_DOUBLES = SingularConfig((M23, M25))
CFG_46 = SingularConfig((M46,))

F1 = Fraction(1)


# ---------------------------------------------------------------------------
# lift scales and the pair order


def _common_order(config):
    """The set of d_j * (b_j + 1) over the points: {M} when the scales agree."""
    return {d * (p.b + 1) for d, p in zip(config.d, config.points)}


def test_weights_examples():
    assert CFG_DOUBLES.d == SingularConfig((M23, M25)).d
    assert (_common_order(CFG_DOUBLES), CFG_DOUBLES.d) == ({12}, (3, 2))
    assert (_common_order(CFG_46), CFG_46.d) == ({7}, (1,))
    cfg = SingularConfig((LocalModel(3, 4), M46))
    assert (_common_order(cfg), cfg.d) == ({35}, (7, 5))
    # Computed once per configuration.
    assert cfg.d is cfg.d


def test_pair_order_tie_breaks_to_larger_point_index():
    # both coordinates carry value 12; the later point wins
    assert pair_compare(CFG_DOUBLES, (2, 1), (1, 1)) == 1
    assert pair_compare(CFG_DOUBLES, (1, 1), (2, 1)) == -1
    assert pair_compare(CFG_DOUBLES, (1, 1), (1, 1)) == 0


def test_pair_order_smaller_value_is_larger_pair():
    cfg = SingularConfig((M46,))
    # values: m=1 -> 9, m=2 -> 8, m=3 -> 7
    assert pair_compare(cfg, (1, 3), (1, 2)) == 1
    assert pair_compare(cfg, (1, 2), (1, 1)) == 1


def test_pair_validation():
    with pytest.raises(ValueError):
        pair_compare(CFG_DOUBLES, (1, 2), (1, 1))  # m out of range for a=2
    with pytest.raises(ValueError):
        pair_compare(CFG_DOUBLES, (3, 1), (1, 1))  # no point 3


def test_section_ord_examples():
    s = SectionProfile.of("eta", {(1, 1): F1})
    assert section_ord(CFG_46, s) == ((1, 1), 9)
    assert section_ord(CFG_46, SectionProfile.of("nil", {})) == (None, math.inf)
    both = SectionProfile.of("both", {(1, 1): F1, (2, 1): F1})
    assert section_ord(CFG_DOUBLES, both) == ((2, 1), 12)


# ---------------------------------------------------------------------------
# section basis


def test_basis_echelon_distinct_leading():
    s1 = SectionProfile.of("e1", {(1, 1): 1, (2, 1): 2})
    s2 = SectionProfile.of("e2", {(2, 1): 1})
    basis = build_section_basis(CFG_DOUBLES, [s1, s2])
    leads = [en.leading for en in basis]
    assert sorted(leads) == [(1, 1), (2, 1)]
    assert len(set(leads)) == 2


def test_basis_dependency_is_usage_error():
    s1 = SectionProfile.of("e1", {(1, 1): 1, (2, 1): 2})
    s2 = SectionProfile.of("e2", {(2, 1): 1})
    s3 = SectionProfile.of("e3", {(1, 1): 2, (2, 1): 4})
    with pytest.raises(ValueError, match="linearly dependent"):
        build_section_basis(CFG_DOUBLES, [s1, s2, s3])


def test_basis_duplicate_ids_rejected():
    s1 = SectionProfile.of("e", {(1, 1): 1})
    s2 = SectionProfile.of("e", {(2, 1): 1})
    with pytest.raises(ValueError, match="duplicate"):
        build_section_basis(CFG_DOUBLES, [s1, s2])


def test_basis_sorted_by_ord_then_point():
    cfg = SingularConfig((LocalModel(3, 4), M46))
    # values: point1 m=1,2 -> 7*(4+3-m) = 42, 35; point2 m=1..3 -> 5*(6+4-m) = 45, 40, 35
    rows = [SectionProfile.of("a", {(1, 1): 1}),
            SectionProfile.of("b", {(2, 2): 1}),
            SectionProfile.of("c", {(1, 2): 1})]
    basis = build_section_basis(cfg, rows)
    assert [(en.ord, en.leading[0]) for en in basis] == [(42, 1), (40, 2), (35, 1)]


# ---------------------------------------------------------------------------
# star system


def test_star_equation_two_double_points():
    eta = SectionProfile.of("eta", {(1, 1): Fraction(3, 2), (2, 1): Fraction(-1, 2)})
    basis = build_section_basis(CFG_DOUBLES, [eta])
    system = build_star_system(CFG_DOUBLES, basis)
    assert len(system.equations) == 1
    eq = system.equations[0]
    assert eq.ord == 12
    assert set(eq.contributors) == {((1, 1), Fraction(3, 2)), ((2, 1), Fraction(-1, 2))}
    # 2*(3/2)*(3/8 c2_1^2) + 2*(-1/2)*(5/16 c2_2^3)
    assert poly_text(eq.poly) == "-5/16*c2_2^3 + 9/8*c2_1^2"


def test_star_only_extremal_pairs_contribute():
    cfg = SingularConfig((LocalModel(3, 4), M46))
    # ord((1,1)) = 42 beats ord((2,3)) = 35: support on both, only the
    # maximal pair (value 35) sits at the section order
    s = SectionProfile.of("s", {(1, 1): 1, (2, 3): 1})
    basis = build_section_basis(cfg, [s])
    system = build_star_system(cfg, basis)
    assert system.equations[0].contributors == [((2, 3), F1)]


def test_star_satisfied():
    eta = SectionProfile.of("eta", {(1, 1): Fraction(3, 2), (2, 1): Fraction(-1, 2)})
    basis = build_section_basis(CFG_DOUBLES, [eta])
    system = build_star_system(CFG_DOUBLES, basis)
    assert star_satisfied(system, [(Fraction(50, 3),), (Fraction(10),)])
    assert not star_satisfied(system, [(F1,), (F1,)])
    with pytest.raises(ValueError):
        star_satisfied(system, [(F1,)])


# ---------------------------------------------------------------------------
# dual kernel


def test_dual_kernel_double_point():
    assert dual_kernel_basis(M23, (F1,)) == [(Fraction(4, 3),)]
    assert dual_kernel_basis(M23, (Fraction(2),)) == [(Fraction(2, 3),)]


DUAL_KERNEL_POINTS = [
    (LocalModel(3, 4), (1, 1)),
    (LocalModel(3, 4), (-2, "1/3")),
    (M46, (1, 1, 1)),
    (M46, ("1/2", -3, 2)),
    (LocalModel(4, 7), (1, 2, 1)),
    (LocalModel(4, 7), (-1, "2/3", 3)),
    (LocalModel(5, 6), (1, 1, 1, 1)),
    (LocalModel(5, 6), (2, -1, "1/2", 3)),
]


@pytest.mark.parametrize(
    "model, point", DUAL_KERNEL_POINTS,
    ids=[f"M{m.a}{m.b}-{k}" for k, (m, _) in enumerate(DUAL_KERNEL_POINTS)])
def test_dual_kernel_inverts_jacobian(model, point):
    # V must be a two-sided exact inverse of the perturbed Jacobian at the point
    from equigen.expansion import f_bar_jacobian_matrix

    point = tuple(Fraction(x) for x in point)
    n = model.a - 1
    vecs = dual_kernel_basis(model, point)
    jac = [[e.evaluate(point) for e in row] for row in f_bar_jacobian_matrix(model)]
    eye = [[F1 if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    assert [[sum(jac[i][k] * vecs[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)] == eye
    assert [[sum(vecs[k][i] * jac[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == eye


def test_dual_kernel_needs_transversality():
    with pytest.raises(ValueError, match="transversality"):
        dual_kernel_basis(M23, (Fraction(0),))
    with pytest.raises(ValueError, match="transversality"):
        dual_kernel_basis(M46, (F1, Fraction(0), F1))


def test_dual_kernel_verifies_its_inverse(monkeypatch):
    # One scaled entry of the elimination's combinations makes V a wrong
    # inverse; the J * V = I check must catch it.
    real = lifting._echelonize

    def scale_one_combo(coords, rows):
        work, pivots, combos = real(coords, rows)
        k = next(i for i, v in combos[0].items() if v)
        combos[0][k] *= 2
        return work, pivots, combos

    monkeypatch.setattr(lifting, "_echelonize", scale_one_combo)
    with pytest.raises(AssertionError, match="inverse verification failed"):
        dual_kernel_basis(M46, (F1, F1, F1))


def test_transversality_is_decided_without_the_determinant(monkeypatch):
    # (T), witnesses and the dual kernel all eliminate the Jacobian at the
    # point; the symbolic determinant (723 terms at (6, 11)) is never built.
    def refuse(*args):
        raise AssertionError("symbolic Jacobian determinant requested")

    monkeypatch.setattr(groebner, "jac_bar", refuse)
    monkeypatch.setattr(expansion, "jac_bar", refuse)
    monkeypatch.setattr(polycore, "det_bareiss", refuse)
    model = LocalModel(6, 11)
    point = (F1, Fraction(2), Fraction(-1), Fraction(3), F1)
    assert check_t(model, point)
    assert not check_t(model, (Fraction(0), F1, Fraction(0), Fraction(0), F1))
    assert len(dual_kernel_basis(model, point)) == 5
    assert witness_verify(M46, 1, (Fraction(2), Fraction(6), Fraction(-5)))


# ---------------------------------------------------------------------------
# perturbation contracts


def test_perturb_validation_bounds():
    # (2,3) with d=1, eq=1: plain terms need tpow + weight >= 5
    validate_perturb_term(PerturbTerm1(F1, 5, (0,)), M23, 1, 1, 10)
    validate_perturb_term(PerturbTerm1(F1, 3, (1,)), M23, 1, 1, 10)
    with pytest.raises(PerturbContractError, match="order bound"):
        validate_perturb_term(PerturbTerm1(F1, 4, (0,)), M23, 1, 1, 10)
    # difference factors relax the bound by d*(k1+k2)
    validate_perturb_term(PerturbTerm2(F1, 0, (0,), 2, 2), M23, 1, 1, 10)
    with pytest.raises(PerturbContractError):
        validate_perturb_term(PerturbTerm2(F1, 0, (0,), 1, 2), M23, 1, 1, 10)


def test_perturb_series_coefficient_order_counts():
    # alpha with positive t-order contributes to the bound
    alpha = TSeries.t_power(3, 10)
    validate_perturb_term(PerturbTerm1(alpha, 2, (0,)), M23, 1, 1, 10)
    with pytest.raises(PerturbContractError):
        validate_perturb_term(PerturbTerm1(alpha, 1, (0,)), M23, 1, 1, 10)


def test_perturb_malformed_terms():
    with pytest.raises(PerturbContractError, match="malformed"):
        validate_perturb_term(PerturbTerm1(F1, 5, (0, 0)), M23, 1, 1, 10)
    with pytest.raises(PerturbContractError, match="malformed"):
        validate_perturb_term(PerturbTerm1(F1, -1, (0,)), M23, 1, 1, 10)


def test_zero_fraction_alpha_is_always_admissible():
    validate_perturb_term(PerturbTerm1(Fraction(0), 0, (0,)), M23, 1, 1, 10)


def _list_mul(x, y, modulus):
    out = [Fraction(0)] * modulus
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if i + j < modulus:
                out[i + j] += a * b
    return out


def _term_oracle(term, c, c_seed, modulus):
    """One perturbation term on its own, over dense Fraction lists."""
    if isinstance(term.alpha, TSeries):
        val = [Fraction(0)] * term.tpow + list(term.alpha.coeffs)
    else:
        val = [Fraction(0)] * term.tpow + [term.alpha]
    val = (val + [Fraction(0)] * modulus)[:modulus]
    factors = []
    for ci, e in zip(c, term.exps):
        factors += [list(ci.coeffs)] * e
    if isinstance(term, PerturbTerm2):
        for k in (term.k1, term.k2):
            now, seed = c[k - 2].coeffs, c_seed[k - 2].coeffs
            n = max(len(now), len(seed))
            factors.append([(now[i] if i < len(now) else 0) - (seed[i] if i < len(seed) else 0)
                            for i in range(n)])
    for f in factors:
        val = _list_mul(val, f, modulus)
    return val


def test_eval_perturb_matches_term_by_term():
    # tables share exponents between terms and repeat difference factors
    # (k1 == k2), so any per-call reuse of powers or differences shows here;
    # zero coefficients, as a Fraction and as the zero series, are drawn too,
    # and so are series coefficients that t^tpow puts partly and wholly past K
    rng = random.Random(20261018)
    model, d, K = M46, 1, 24
    for _ in range(12):
        c_seed = [TSeries.t_power(d * i, K, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                  for i in range(2, model.a + 1)]
        c = [s + TSeries(K, [0] * (d * i + 1) + [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                                 for _ in range(rng.randint(0, 6))])
             for i, s in zip(range(2, model.a + 1), c_seed)]
        eq = rng.randint(1, model.a - 1)
        shared = [tuple(rng.randint(0, 2) for _ in range(model.a - 1)) for _ in range(2)]
        terms = []
        for _ in range(rng.randint(2, 6)):
            exps = rng.choice(shared)
            weight = sum(k * e for k, e in zip(range(2, model.a + 1), exps))
            alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if rng.random() < 0.3:
                alpha = TSeries(K, [alpha, Fraction(rng.randint(-3, 3), 2)])
            if rng.random() < 0.25:
                alpha = rng.choice([Fraction(0), TSeries.zero(K)])
            if rng.random() < 0.5:
                k1 = rng.randint(2, model.a)
                k2 = k1 if rng.random() < 0.5 else rng.randint(2, model.a)
                tpow = max(0, d * (model.b + eq) - d * (k1 + k2) - d * weight) + rng.randint(0, 2)
                terms.append(PerturbTerm2(alpha, tpow, exps, k1, k2))
            else:
                tpow = max(0, d * (model.b + eq) + 1 - d * weight) + rng.randint(0, 2)
                terms.append(PerturbTerm1(alpha, tpow, exps))
        tail = TSeries(K, [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(3)])
        no_c = (0,) * (model.a - 1)
        terms.append(PerturbTerm1(tail, K - rng.randint(1, 2), no_c))
        terms.append(PerturbTerm1(tail, K + rng.randint(0, 2), no_c))
        expected = [Fraction(0)] * K
        for term in terms:
            expected = [a + b for a, b in zip(expected, _term_oracle(term, c, c_seed, K))]
        while expected and not expected[-1]:
            expected.pop()
        got = _eval_perturb(terms, model, d, eq, c, c_seed, K)
        assert list(got.coeffs) == expected
        assert any(expected)


@pytest.mark.parametrize("term, message", [
    (PerturbTerm1(Fraction(0), 5, (0, 0)), "malformed"),
    (PerturbTerm1(TSeries.zero(10), 5, (0, 0)), "malformed"),
    (PerturbTerm2(Fraction(0), 0, (0,), 1, 2), "difference factor index"),
    (PerturbTerm2(TSeries.zero(10), 0, (0,), 2, 3), "difference factor index"),
    (PerturbTerm1(TSeries.zero(12), 5, (0,)), "modulus 12 != 10"),
])
def test_eval_perturb_validates_zero_alpha_terms(term, message):
    # a zero coefficient skips the products, not the contract
    seed = [TSeries.t_power(2, 10)]
    with pytest.raises(PerturbContractError, match=message):
        _eval_perturb([term], M23, 1, 1, seed, seed, 10)


# ---------------------------------------------------------------------------
# lifting


def test_seed_state_shape():
    state = make_lift_state(CFG_DOUBLES, [(F1,), (Fraction(2),)], 15)
    assert state.c[0][0] == TSeries.t_power(6, 15)  # d=3, i=2
    assert state.c[1][0] == TSeries.t_power(4, 15, 2)  # d=2, i=2
    assert state.k == 1


def test_seed_state_preconditions():
    with pytest.raises(ValueError, match="witness"):
        make_lift_state(CFG_DOUBLES, [(F1,)], 15)
    with pytest.raises(ValueError, match="first obstruction"):
        make_lift_state(CFG_DOUBLES, [(F1,), (F1,)], 5)
    with pytest.raises(ValueError, match="transversality"):
        make_lift_state(SingularConfig((M23,)), [(Fraction(0),)], 10)


def test_zero_provider_keeps_homogeneous_seed():
    # weighted homogeneity makes the seed an exact solution
    rep = lift_run(M23, (F1,), 10)
    assert rep.state.c[0][0] == TSeries.t_power(2, 10)
    assert rep.residual_orders[(1, 1)] == 10
    rep46 = lift_run(M46, (F1, F1, F1), 13)
    assert [s for s in rep46.state.c[0]] == [
        TSeries.t_power(2, 13), TSeries.t_power(3, 13), TSeries.t_power(4, 13)]
    assert all(o == 13 for o in rep46.residual_orders.values())


def test_lift_hand_example_frozen():
    # o = (3/4) t^5 against (2,3) seeded at 1: solving
    # 3/8 c2^2 = 3/8 t^4 + (3/4) t^5 gives c2 = t^2 (1 + t - t^2/2 + t^3/2 - ...)
    def prov(state, j, eq):
        return [PerturbTerm1(Fraction(3, 4), 5, (0,))]

    rep = lift_run(M23, (F1,), 10, prov)
    c2 = rep.state.c[0][0]
    assert c2.coeff(2) == 1
    assert c2.coeff(3) == 1
    assert c2.coeff(4) == Fraction(-1, 2)
    assert c2.coeff(5) == Fraction(1, 2)
    assert rep.residual_orders[(1, 1)] == 10


def test_lift_difference_factor_coupling_frozen():
    # adding t*(c2 - seed)^2 shifts the t^5 coefficient to 11/6:
    # at closure order 7 the defect picks up ((c2 - t^2)^2 * t)[t^7] = 1
    def prov(state, j, eq):
        return [PerturbTerm1(Fraction(3, 4), 5, (0,)),
                PerturbTerm2(F1, 1, (0,), 2, 2)]

    rep = lift_run(M23, (F1,), 10, prov)
    c2 = rep.state.c[0][0]
    assert c2.coeff(3) == 1
    assert c2.coeff(4) == Fraction(-1, 2)
    assert c2.coeff(5) == Fraction(11, 6)


def test_lift_one_order_per_step():
    rep = lift_run(M23, (F1,), 10, random_provider(SingularConfig((M23,)), 5))
    # steps: k = 1..5 close orders 5..9; afterwards everything to t^10
    assert rep.steps == 5
    assert len(rep.history) == rep.steps + 1
    for (k_prev, snap_prev), (k, snap) in zip(rep.history, rep.history[1:]):
        diff = snap[0][0] - snap_prev[0][0]
        # correction at round k lives at order d*i + k and above
        assert not diff or diff.ord() >= 2 + k


def test_lift_closure_orders_via_fresh_residuals():
    cfg = SingularConfig((M23,))
    prov = random_provider(cfg, 11)
    rep = lift_run(M23, (F1,), 10, prov)
    # rebuild intermediate states and confirm each step closed one order
    for k, snap in rep.history[1:]:
        state = make_lift_state(cfg, [(F1,)], 10)
        state.c = [list(v) for v in snap]
        state.k = k
        res = residual(state, prov, 1, 1)
        assert res.ord() >= min(4 + k + 1, 10)


def test_lift_two_point_cross_coupled_frozen():
    # point 2 feels point 1 through a series coefficient; hand-solved orders
    def prov(state, j, eq):
        if j == 2:
            return [PerturbTerm1(state.c[0][0], 7, (0,))]
        return [PerturbTerm1(Fraction(1, 2), 13, (0,))]

    rep = lift_run(CFG_DOUBLES, [(F1,), (Fraction(2),)], 15, prov)
    assert rep.steps == 2
    assert rep.audit_ok
    c2_1 = rep.state.c[0][0]
    assert c2_1.coeff(7) == Fraction(2, 3)
    assert c2_1.coeff(8) == Fraction(-2, 9)
    c2_2 = rep.state.c[1][0]
    assert c2_2.coeff(5) == Fraction(4, 15)
    assert c2_2.coeff(6) == Fraction(32, 225)
    assert all(o >= 15 for o in rep.residual_orders.values())


def test_lift_two_point_random_audit():
    prov = random_provider(CFG_DOUBLES, 17)
    rep = lift_run(CFG_DOUBLES, [(F1,), (Fraction(2),)], 16, prov)
    assert rep.audit_ok
    assert rep.audit  # interleaving actually observed the other point


def test_lift_audit_sees_a_provider_reading_another_point():
    # Point 2's second equation reads coefficient 13 of point 1's c2, which
    # point 1's step sets in round 3; the term is gated on that round, so
    # point 2's own checks never see it (its equation is closed mod t^K and
    # skipped from round 2 on, and the final check runs after round 3).
    # Only the audit's fresh read after point 1's step can. Point 2 is
    # otherwise unperturbed and never moves, and from round 4 on the term is
    # zero again, so its fresh reads find the equation closed: round 3's
    # entry is the only one that breaks the invariant.
    cfg = SingularConfig((M23, M34))
    base = random_provider(cfg, 7)

    def prov(state, j, eq):
        if j == 1:
            return base(state, j, eq)
        if eq == 2:
            alpha = state.c[0][0].coeff(13) if state.k == 3 else Fraction(0)
            return [PerturbTerm1(alpha, 25, (0, 0))]
        return ()

    rep = lift_run(cfg, [(F1,), (F1, F1)], 26, prov)
    assert rep.state.c[0][0].coeff(13) != 0
    assert rep.state.c[1] == make_lift_state(cfg, [(F1,), (F1, F1)], 26).c[1]
    assert not rep.audit_ok
    assert [(en.k, en.stepped_point, en.observed_point, en.eq)
            for en in rep.audit if not en.closed] == [(3, 1, 2, 2)]


def _count_residual_calls(monkeypatch):
    calls = []
    fresh = lifting.residual

    def counted(state, providers, j, eq):
        calls.append((j, eq))
        return fresh(state, providers, j, eq)

    monkeypatch.setattr(lifting, "residual", counted)
    return calls


def test_stored_residuals_live_in_one_lift(monkeypatch):
    # a record shared between lifts would serve the second run's reads
    calls = _count_residual_calls(monkeypatch)
    cfg = SingularConfig((M34, M25))
    runs = []
    for _ in range(2):
        del calls[:]
        rep = lift_run(cfg, [(F1, F1), (Fraction(2),)], 40, random_provider(cfg, 3))
        runs.append((len(calls), rep.state.c))
    assert runs[0] == runs[1]
    assert runs[0][0] > 0


@pytest.mark.parametrize("config, witnesses, modulus, seed, expected", [
    (SingularConfig((LocalModel(5, 7),)), [(1, 2, 3, 5)], 90, None, 8),
    (SingularConfig((LocalModel(3, 4), M25)), [(F1, F1), (Fraction(2),)], 44, 0, 50),
], ids=["57-zero-K90", "34-25-random-K44"])
def test_steps_reuse_the_residuals_they_hold(monkeypatch, config, witnesses, modulus,
                                             seed, expected):
    # A step reads a residual afresh only after the series it was read from
    # moved: the seed of (5,7) is exact, so after its first reads no step of
    # the single-point lift reads again, and only the final check does.
    calls = _count_residual_calls(monkeypatch)
    prov = zero_provider if seed is None else random_provider(config, seed)
    rep = lift_run(config, witnesses, modulus, prov)
    assert len(calls) == expected
    assert all(o >= modulus for o in rep.residual_orders.values())


def test_provider_reading_the_round_leaves_the_lift_open():
    # Terms that appear with round 2 are never read by the steps, which hold
    # the round-1 residual while c2 stays put; the final check recomputes it.
    def prov(state, j, eq):
        return [PerturbTerm1(F1, 8, (0,))] if state.k >= 2 else ()

    with pytest.raises(AssertionError, match=r"not closed: order 8 < 12"):
        lift_run(M23, (F1,), 12, prov)


def test_audit_after_reads_and_final_check_recompute(monkeypatch):
    # every audit entry has its own fresh "after" read, and the final
    # closure check one per equation; outside the steps there is no other read
    calls = _count_residual_calls(monkeypatch)
    step = lifting.lift_point_step
    inside = []

    def marked(state, providers, j, read):
        n = len(calls)
        step(state, providers, j, read)
        inside.append(len(calls) - n)
        calls.append("step")

    monkeypatch.setattr(lifting, "lift_point_step", marked)
    rep = lift_run(CFG_DOUBLES, [(F1,), (Fraction(2),)], 16, random_provider(CFG_DOUBLES, 17))
    assert rep.audit
    fresh = [c for c in calls if c != "step"]
    assert len(fresh) >= len(rep.audit) + len(rep.residual_orders)
    assert len(fresh) - sum(inside) == len(rep.audit) + len(rep.residual_orders)
    # after the last sub-step only its "after" reads and the final check remain
    tail = calls[len(calls) - calls[::-1].index("step"):]
    last = rep.audit[-1]
    after = [en for en in rep.audit if (en.k, en.stepped_point) == (last.k, last.stepped_point)]
    assert len(tail) == len(after) + len(rep.residual_orders)


def test_lift_random_k60_golden_digest():
    # sha256 of the final coefficients, recorded from a series kernel that
    # multiplied Fraction coefficients term by term; any change to the exact
    # coefficients shows here
    cfg = SingularConfig((LocalModel(3, 4), M25))
    rep = lift_run(cfg, [(F1, F1), (Fraction(2),)], 60, random_provider(cfg, 7))
    blob = json.dumps([[[str(c) for c in s.coeffs] for s in point] for point in rep.state.c])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "b7f71a08c86661b1bf701f28355defa1481d72d74e027b95cd390a9669f34056")
    assert rep.audit_ok


def test_lift_random_provider_deterministic():
    cfg = SingularConfig((M46,))
    r1 = lift_run(M46, (F1, F1, F1), 13, random_provider(cfg, 99))
    r2 = lift_run(M46, (F1, F1, F1), 13, random_provider(cfg, 99))
    assert r1.state.c == r2.state.c
    r3 = lift_run(M46, (F1, F1, F1), 13, random_provider(cfg, 100))
    assert r1.state.c != r3.state.c


def test_lift_rejects_dishonest_provider():
    # a term below the admissible bound is rejected with the term named
    def prov(state, j, eq):
        return [PerturbTerm1(F1, 2, (0,))]

    with pytest.raises(PerturbContractError, match="PerturbTerm1"):
        lift_run(M23, (F1,), 10, prov)


# The random provider, because under the zero provider the seed of (3,4) at
# witness (1,1) is already exact and neither invariant check can fire.
M34 = LocalModel(3, 4)
CFG_34 = SingularConfig((M34,))


def test_lift_step_rejects_state_violating_its_invariant():
    prov = random_provider(CFG_34, 7)
    state = make_lift_state(CFG_34, [(F1, F1)], 30)
    read = {}
    for _ in range(3):
        lift_point_step(state, prov, 1, read)
        state.k += 1
    d = state.config.d[0]
    # A change at t^(2d+1) in c2 breaks equation 1 far below its closed order;
    # the reads made before it no longer hold.
    state.c[0][0] = state.c[0][0] + TSeries.t_power(2 * d + 1, 30, Fraction(7))
    with pytest.raises(ValueError, match=r"violates its invariant .* residual order 6 < 9"):
        lift_point_step(state, prov, 1, {})


def test_lift_run_rejects_unclosed_final_residual(monkeypatch):
    monkeypatch.setattr(lifting, "lift_point_step", lambda state, providers, j, read: None)
    with pytest.raises(AssertionError, match=r"not closed: order 6 < 30"):
        lift_run(M34, (F1, F1), 30, random_provider(CFG_34, 7))


def test_lift_modulus_at_first_obstruction_keeps_seed():
    # nothing is observable below the first obstruction order
    rep = lift_run(M23, (F1,), 4)
    assert rep.steps == 0
    assert rep.state.c[0][0] == TSeries.t_power(2, 4)


# ---------------------------------------------------------------------------
# dimension condition and verdicts


def test_check_d():
    assert check_d(M46, 5, 4)       # 5 < 4 + 3
    assert not check_d(M46, 7, 4)   # 7 = 4 + 3
    assert check_d(M23, 4, 4)       # 4 < 4 + 1
    with pytest.raises(ValueError):
        check_d(M23, -1, 0)


def test_polar_cover_table():
    s1 = SectionProfile.of("s1", {(1, 1): 1})
    s2 = SectionProfile.of("s2", {(1, 1): 1, (2, 1): 1})
    table = polar_cover_table(CFG_DOUBLES, [s1, s2])
    assert table == {1: {1}, 2: {1}}  # (2,1) = s2 - s1 lies in the span
    table2 = polar_cover_table(CFG_DOUBLES, [s2])
    assert table2 == {1: set(), 2: set()}


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_polar_cover_table_matches_rank_oracle():
    # e_(j,m) lies in the span iff appending it leaves the rank unchanged
    rng = random.Random(20261017)
    models = [M23, M25, LocalModel(3, 4), LocalModel(3, 5), M46, LocalModel(4, 7)]
    for case in range(300):
        cfg = SingularConfig(tuple(rng.choice(models) for _ in range(rng.randint(1, 3))))
        coords = [(j, m) for j in range(1, cfg.e + 1) for m in range(1, cfg.model(j).a)]
        vectors = []
        for _ in range(rng.randint(0, len(coords) + 1)):
            if len(vectors) >= 2 and rng.random() < 0.3:
                # a dependent section: a combination of two earlier ones
                u, v = rng.sample(vectors, 2)
                x, y = rng.randint(-2, 2), rng.randint(-2, 2)
                vectors.append([x * p + y * q for p, q in zip(u, v)])
            else:
                support = rng.sample(range(len(coords)), rng.randint(1, min(3, len(coords))))
                vectors.append([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                if i in support else Fraction(0)
                                for i in range(len(coords))])
        sections = [SectionProfile.of(f"s{k}", dict(zip(coords, vec)))
                    for k, vec in enumerate(vectors)]
        base = _rank(vectors)
        expected = {j: set() for j in range(1, cfg.e + 1)}
        for i, (j, m) in enumerate(coords):
            unit = [F1 if k == i else Fraction(0) for k in range(len(coords))]
            if _rank(vectors + [unit]) == base:
                expected[j].add(m)
        assert polar_cover_table(cfg, sections) == expected, (case, cfg, vectors)


def test_verdict_uncovered_point_deforms():
    sections = [SectionProfile.of("s", {(1, 1): 1})]
    v = deform_verdict(CFG_DOUBLES, sections, None, None)
    assert v.status == "deforms"
    assert "2" in v.reason
    assert v.certificate == [None, 1]


def test_verdict_all_covered_flag_false_does_not_deform():
    sections = [SectionProfile.of("s1", {(1, 1): 1}),
                SectionProfile.of("s2", {(2, 1): 1})]
    v = deform_verdict(CFG_DOUBLES, sections, None, None)
    assert v.status == "does_not_deform"
    assert v.certificate == [None, None]


def test_verdict_all_covered_flag_true_deforms():
    sections = [SectionProfile.of("s1", {(1, 1): 1}),
                SectionProfile.of("s2", {(2, 1): 1})]
    v = deform_verdict(CFG_DOUBLES, sections, None, None, nbar_nonzero=True)
    assert v.status == "deforms"


def test_verdict_general_branch():
    cfg = SingularConfig((LocalModel(3, 4),))
    v = deform_verdict(cfg, [], {1: (3, 2)}, {1: GStatus.HOLDS})
    assert v.status == "deforms"
    v2 = deform_verdict(cfg, [], {1: (9, 2)}, {1: GStatus.HOLDS})
    assert v2.status == "unknown"
    v3 = deform_verdict(cfg, [], {1: (3, 2)}, {1: GStatus.FAILS})
    assert v3.status == "unknown"


def test_verdict_general_branch_needs_inputs():
    cfg = SingularConfig((LocalModel(3, 4),))
    with pytest.raises(ValueError, match="dims"):
        deform_verdict(cfg, [], None, {1: GStatus.HOLDS})
    with pytest.raises(ValueError, match="g_table"):
        deform_verdict(cfg, [], {1: (3, 2)}, None)


def test_verdict_mixed_config_skips_double_points():
    cfg = SingularConfig((M23, LocalModel(3, 4)))
    v = deform_verdict(cfg, [], {2: (3, 2)}, {2: GStatus.HOLDS})
    assert v.status == "deforms"


def test_choose_l_recipe():
    cfg = SingularConfig((LocalModel(3, 4),))
    assert choose_l(cfg, [SectionProfile.of("u", {(1, 1): 1})]) == [2]
    assert choose_l(cfg, [SectionProfile.of("u", {(1, 2): 1})]) == [1]
    assert choose_l(cfg, []) == [1]
    both = [SectionProfile.of("u", {(1, 1): 1}), SectionProfile.of("v", {(1, 2): 1})]
    assert choose_l(cfg, both) == [None]
