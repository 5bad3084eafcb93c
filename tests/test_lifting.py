"""Weights, section bookkeeping, star systems, and the t-adic lifting
engine with its non-interference audit."""

import math
import random
from fractions import Fraction

import pytest

from equigen import expansion, groebner, polycore
from equigen.expansion import LocalModel
from equigen.groebner import GStatus, check_t, witness_verify
from equigen.lifting import (
    LiftState,
    PerturbContractError,
    PerturbTerm1,
    PerturbTerm2,
    SectionProfile,
    SingularConfig,
    build_section_basis,
    build_star_system,
    check_d,
    choose_l,
    compute_weights,
    deform_verdict,
    dual_kernel_basis,
    lift_run,
    make_lift_state,
    pair_compare,
    polar_cover_table,
    random_provider,
    residual,
    section_ord,
    star_satisfied,
    validate_perturb_term,
    zero_provider,
)
from equigen.polycore import poly_text
from equigen.series import TSeries

M23 = LocalModel(2, 3)
M25 = LocalModel(2, 5)
M46 = LocalModel(4, 6)

CFG_DOUBLES = SingularConfig((M23, M25))
CFG_46 = SingularConfig((M46,))

F1 = Fraction(1)


# ---------------------------------------------------------------------------
# weights and the pair order


def test_weights_examples():
    assert compute_weights(CFG_DOUBLES) == compute_weights(CFG_DOUBLES)
    w = compute_weights(CFG_DOUBLES)
    assert (w.M, w.d) == (12, (3, 2))
    w = compute_weights(CFG_46)
    assert (w.M, w.d) == (7, (1,))
    w = compute_weights(SingularConfig((LocalModel(3, 4), M46)))
    assert (w.M, w.d) == (35, (7, 5))


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
    leads = [en.leading for en in basis.entries]
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
    assert [(en.ord, en.leading[0]) for en in basis.entries] == [(42, 1), (40, 2), (35, 1)]


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
    values = {f"c{k}": v for k, v in zip(range(2, model.a + 1), point)}
    jac = [[e.evaluate(values) for e in row] for row in f_bar_jacobian_matrix(model)]
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
        assert diff.is_zero() or diff.ord() >= 2 + k


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
