"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line. Exact arithmetic throughout; all randomized suites run from
the fixed default seed. Can also be run directly: python tests/test_acceptance.py
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from equigen.expansion import (
    LocalModel,
    SigmaModel,
    big_f,
    f_coeff,
    jac_bar,
    theta_cap,
)
from equigen.groebner import (
    Budget,
    GStatus,
    Ideal,
    _presentation_obstruction,
    _presentation_simplified,
    check_g,
    radical_member,
    reduced_basis,
)
from equigen.lifting import (
    SingularConfig,
    deform_verdict,
    lift_run,
    make_lift_state,
    random_provider,
    residual,
    SectionProfile,
)
from equigen.polycore import MPoly, VarSet, poly_text
from equigen.series import (
    TriState,
    TSeries,
    order_bound_audit,
    pm_identity_check,
    reparam_solve,
    substitution_check,
)

from oracles import sub, variable, variable_weight, weighted_degree

SEED = 20260816

F = Fraction


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _rand_fraction(rng, span=6, den=4):
    return F(rng.randint(-span, span), rng.randint(1, den))


def _rand_nonzero(rng, span=6, den=4):
    while True:
        x = _rand_fraction(rng, span, den)
        if x:
            return x


# ---------------------------------------------------------------------------
# scalar series helpers (plain lists of Fractions mod x^N)


def _ser_mul(u, v, n):
    out = [F(0)] * n
    for i, ui in enumerate(u[:n]):
        if not ui:
            continue
        for j, vj in enumerate(v[: n - i]):
            if vj:
                out[i + j] += ui * vj
    return out


def _ser_pow(u, e, n):
    out = [F(1)] + [F(0)] * (n - 1)
    for _ in range(e):
        out = _ser_mul(out, u, n)
    return out


def _ser_inv(u, n):
    # unit inverse: u[0] must be nonzero
    out = [F(1) / u[0]] + [F(0)] * (n - 1)
    for i in range(1, n):
        out[i] = -sum(u[j] * out[i - j] for j in range(1, i + 1)) / u[0]
    return out


def _ser_compose(outer, inner, n):
    # inner must have zero constant term
    result = [F(0)] * n
    power = [F(1)] + [F(0)] * (n - 1)
    for i, coeff in enumerate(outer[:n]):
        if i:
            power = _ser_mul(power, inner, n)
        if coeff:
            for j, pj in enumerate(power):
                result[j] += coeff * pj
    return result


MODEL_POOL = [LocalModel(a, b)
              for a in (2, 3, 4)
              for b in range(a + 1, 10)
              if b % a]


# ---------------------------------------------------------------------------
# criterion 1: golden (4,6) polynomials through the CLI, exact, under 5 s


GOLDEN_46 = {
    "F_-1": {(2, 1, 0): F(-3, 16), (0, 1, 1): F(3, 4)},
    "F_-2": {(4, 0, 0): F(3, 128), (1, 2, 0): F(-3, 16),
             (2, 0, 1): F(-3, 16), (0, 0, 2): F(3, 8)},
    "F_-3": {(3, 1, 0): F(3, 64), (0, 3, 0): F(-1, 16), (1, 1, 1): F(-3, 16)},
    "jacbar": {(6, 1, 0): F(27, 16384), (3, 3, 0): F(27, 2048),
               (0, 5, 0): F(27, 1024), (4, 1, 1): F(-81, 4096),
               (1, 3, 1): F(-27, 512), (2, 1, 2): F(81, 1024),
               (0, 1, 3): F(-27, 256)},
}

GOLDEN_46_TEXT = {
    "F_-1": "-3/16*c2^2*c3 + 3/4*c3*c4",
    "F_-2": "3/128*c2^4 - 3/16*c2*c3^2 - 3/16*c2^2*c4 + 3/8*c4^2",
    "F_-3": "3/64*c2^3*c3 - 1/16*c3^3 - 3/16*c2*c3*c4",
    "jacbar": ("27/16384*c2^6*c3 + 27/2048*c2^3*c3^3 - 81/4096*c2^4*c3*c4"
               " + 27/1024*c3^5 - 27/512*c2*c3^3*c4 + 81/1024*c2^2*c3*c4^2"
               " - 27/256*c3*c4^3"),
}


def test_criterion_1_golden_46_polynomials():
    start = time.perf_counter()
    out_f = subprocess.run(
        [sys.executable, "-m", "equigen.cli", "gen", "F", "--a", "4", "--b", "6"],
        capture_output=True, text=True)
    out_j = subprocess.run(
        [sys.executable, "-m", "equigen.cli", "gen", "jacbar", "--a", "4", "--b", "6"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start

    problems = []
    if out_f.returncode or out_j.returncode:
        problems.append("nonzero exit")
    printed = dict(ln.split(" = ", 1) for ln in
                   (out_f.stdout + out_j.stdout).strip().splitlines())
    for name, text in GOLDEN_46_TEXT.items():
        if printed.get(name) != text:
            problems.append(f"{name} text mismatch: {printed.get(name)!r}")

    # structural check: every coefficient exactly equal, zero tolerance
    m46 = LocalModel(4, 6)
    vs = VarSet.coefficients(4)
    computed = {"F_-1": big_f(m46, 1), "F_-2": big_f(m46, 2),
                "F_-3": big_f(m46, 3), "jacbar": jac_bar(m46)}
    for name, terms in GOLDEN_46.items():
        if computed[name] != MPoly(vs, terms):
            problems.append(f"{name} structural mismatch")
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s")
    _report(1, "golden (4,6) polynomials exact, CLI under 5s",
            not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 2: genericity verdicts on the desk-scale grid, no timeouts


ALL_HOLDS_GRID = [(3, 4), (3, 5), (3, 7), (3, 8), (4, 5), (4, 7)]


def test_criterion_2_genericity_grid():
    budget = lambda: Budget(120.0)
    problems = []

    v46 = check_g(LocalModel(4, 6), budget())
    got = {r.index: r.status for r in v46.per_index}
    want = {1: GStatus.HOLDS, 2: GStatus.FAILS, 3: GStatus.HOLDS}
    if got != want:
        problems.append(f"(4,6) indices {[(i, s.value) for i, s in got.items()]}")

    for a, b in ALL_HOLDS_GRID:
        v = check_g(LocalModel(a, b), budget())
        if v.status is not GStatus.HOLDS:
            problems.append(f"({a},{b}) {v.status.value}")
        if any(r.status is GStatus.TIMEOUT for r in v.per_index):
            problems.append(f"({a},{b}) timeout")
    _report(2, "condition (G): fails only at (4,6) i=2 on the grid, no timeouts",
            not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 3: a=2 structure of the first obstruction


def test_criterion_3_a2_single_monomial():
    problems = []
    for b in range(3, 16, 2):
        p = big_f(LocalModel(2, b), 1)
        e = (b + 1) // 2
        expect = math.prod(F(b, 2) - i for i in range(e)) / math.factorial(e)
        if len(p.terms) != 1 or p.terms.get((e,)) != expect or not expect:
            problems.append(f"b={b}: {poly_text(p)}")
    _report(3, "a=2: F_-1 is the single monomial c2^((b+1)/2), nonzero coefficient",
            not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 4: randomized property suites, >= 1000 exact cases each


def _euler_defect(p: MPoly):
    """Euler identity residual: sum_k w_k c_k dp/dc_k - deg * p, or None."""
    deg = weighted_degree(p)
    if deg == "inhomogeneous":
        return p  # nonzero marker
    if deg == "any":
        return MPoly.zero(p.varset)
    total = MPoly.zero(p.varset)
    for name in p.varset.names:
        total = total + variable(p.varset, name) * p.diff(name) * variable_weight(name)
    return sub(total, p * deg)


def test_criterion_4a_homogeneity_and_euler():
    rng = random.Random(SEED)
    failures = 0
    first = ""
    for case in range(1000):
        model = rng.choice(MODEL_POOL)
        kind = rng.randrange(5)
        if kind == 0:
            m = rng.randint(0, 7)
            p, deg = f_coeff(model, rng.choice((1, 3, model.b)), m), m
        elif kind == 1:
            m = rng.randint(2, 7)
            p, deg = f_coeff(model, 1, m), m
        elif kind == 2:
            m = rng.randint(2, 7)
            p, deg = theta_cap(model, 1, m), m
        elif kind == 3:
            i = rng.randint(0, 7)
            p, deg = theta_cap(model, rng.randint(-6, -1), i), i
        else:
            n = rng.randint(1, model.a - 1)
            p, deg = big_f(model, n), model.b + n
        wd = weighted_degree(p)
        if wd not in ("any", deg) or not _euler_defect(p).is_zero():
            failures += 1
            first = first or f"case {case}: a={model.a} b={model.b} kind={kind}"
    _report(4, "homogeneity + Euler identity, 1000 random draws",
            failures == 0, first)


def test_criterion_4b_power_consistency():
    rng = random.Random(SEED)
    f_polys = {}
    failures = 0
    first = ""
    for case in range(1000):
        model = rng.choice((MODEL_POOL[0], LocalModel(3, 4), LocalModel(4, 6)))
        a, b = model.a, model.b
        n = rng.randint(4, 12) + 1
        if model not in f_polys:
            f_polys[model] = [f_coeff(model, b, m) for m in range(13)]
        values = [_rand_fraction(rng) for _ in range(2, a + 1)]
        f_vals = [p.evaluate(values) for p in f_polys[model][:n]]
        base = [F(1)] + [F(0)] * (n - 1)
        for k in range(2, a + 1):
            if k < n:
                base[k] = values[k - 2]
        if _ser_pow(f_vals, a, n) != _ser_pow(base, b, n):
            failures += 1
            first = first or f"case {case}: ({a},{b}) at {values}"
    _report(4, "fractional-power consistency (f-series)^a = (1+sum c_k x^k)^b, 1000 cases",
            failures == 0, first)


def test_criterion_4c_theta_gamma_round_trip():
    rng = random.Random(SEED)
    tables = {}
    failures = 0
    first = ""
    for case in range(1000):
        model = rng.choice(MODEL_POOL)
        nmax = rng.randint(4, 8)
        if model not in tables:
            tables[model] = [f_coeff(model, 1, m) for m in range(2, 9)]
        gammas = tables[model]
        values = [_rand_fraction(rng) for _ in range(2, model.a + 1)]
        n = nmax + 1
        q = [F(1), F(0)] + [g.evaluate(values) for g in gammas[: n - 2]]
        p = [F(1), F(0)] + [theta_cap(model, 1, m).evaluate(values) for m in range(2, n)]
        # y(x) = x / Q(x); back through x(y) = y / P(y) must give the identity
        y_of_x = [F(0)] + _ser_inv(q, n)[: n - 1]
        x_of_y = [F(0)] + _ser_inv(p, n)[: n - 1]
        ident = [F(0), F(1)] + [F(0)] * (n - 2)
        if _ser_compose(x_of_y, y_of_x, n) != ident:
            failures += 1
            first = first or f"case {case}: ({model.a},{model.b}) nmax={nmax}"
    _report(4, "theta/gamma round-trip inversion, 1000 cases",
            failures == 0, first)


def test_criterion_4d_theta_cap_vs_power():
    rng = random.Random(SEED)
    caps = {}
    failures = 0
    first = ""
    for case in range(1000):
        model = rng.choice(MODEL_POOL)
        l = rng.randint(-6, -1)
        i = rng.randint(0, 8)
        key = (model, l, i)
        if key not in caps:
            caps[key] = theta_cap(model, l, i)
        values = [_rand_fraction(rng) for _ in range(2, model.a + 1)]
        n = i + 1
        p = [F(1), F(0)] + [theta_cap(model, 1, m).evaluate(values) for m in range(2, n)]
        p = p[:n]
        numeric = _ser_pow(_ser_inv(p, n), -l, n)[i]
        if caps[key].evaluate(values) != numeric:
            failures += 1
            first = first or f"case {case}: ({model.a},{model.b}) l={l} i={i}"
    _report(4, "Theta partition expansion agrees with numeric powers, 1000 cases",
            failures == 0, first)


# ---------------------------------------------------------------------------
# criterion 5: reparameterization identities and audits


def _random_pair(rng, model, modulus):
    # ord(c_i(now)) pinned at exactly i; increments start at i + 1 or later
    c_now, c_next = [], []
    for i in range(2, model.a + 1):
        lead = F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))
        base = [0] * i + [lead] + [F(rng.randint(-3, 3), rng.randint(1, 2))
                                   for _ in range(modulus - i - 1)]
        delta = [0] * min(i + 1 + rng.randint(0, 2), modulus)
        delta += [F(rng.randint(-2, 2), rng.randint(1, 2))
                  for _ in range(modulus - len(delta))]
        c_now.append(TSeries(modulus, base))
        c_next.append(TSeries(modulus, base) + TSeries(modulus, delta))
    return c_now, c_next


MODELS_BY_A = {2: [(2, 3), (2, 5), (2, 7)],
               3: [(3, 4), (3, 5), (3, 7), (3, 8)],
               4: [(4, 5), (4, 6), (4, 7)]}


def test_criterion_5_reparameterization():
    rng = random.Random(SEED)
    problems = []
    for a, pool in MODELS_BY_A.items():
        for case in range(100):
            model = LocalModel(*rng.choice(pool))
            modulus = rng.randint(8, 12)
            smax = rng.randint(a, 10)
            c_now, c_next = _random_pair(rng, model, modulus)
            res = reparam_solve(model, c_now, c_next, smax, modulus)
            if not substitution_check(res, c_now, c_next):
                problems.append(f"a={a} case {case}: substitution")
            if not order_bound_audit(res, c_now, c_next).ok:
                problems.append(f"a={a} case {case}: audit")
            # matching identity on an in-bounds window
            g0 = tuple(_rand_fraction(rng, 3, 2) for _ in range(rng.randint(0, 2)))
            smax_pm = max(a, modulus - model.b) + rng.randint(0, 2)
            verdict = pm_identity_check(SigmaModel(model, g0), c_now, c_next,
                                        smax_pm, modulus)
            if verdict is not TriState.TRUE:
                problems.append(f"a={a} case {case}: pm {verdict.value}")
            if problems:
                break
        if problems:
            break
    _report(5, "reparameterization: substitution, order bounds, matching identity "
               "(100 random cases per multiplicity)",
            not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 6: lifting closes one order per step; interleaving is clean


def _closure_profile(config, witnesses, modulus, prov, report):
    """Recompute residual orders at every recorded stage from scratch."""
    problems = []
    for k, snap in report.history[1:]:
        state = make_lift_state(config, witnesses, modulus)
        state.c = [list(v) for v in snap]
        state.k = k
        for j in range(1, config.e + 1):
            model = config.model(j)
            d = config.d[j - 1]
            for eq in range(1, model.a):
                need = min(d * (model.b + eq) + k + 1, modulus)
                got = residual(state, prov, j, eq).ord()
                if got < need:
                    problems.append(f"k={k} point {j} eq {eq}: ord {got} < {need}")
    return problems


def _prior_coefficients_frozen(config, report):
    problems = []
    for (k_prev, snap_prev), (k, snap) in zip(report.history, report.history[1:]):
        for j in range(1, config.e + 1):
            d = config.d[j - 1]
            for idx, i in enumerate(range(2, config.model(j).a + 1)):
                diff = snap[j - 1][idx] - snap_prev[j - 1][idx]
                if diff and diff.ord() < d * i + k:
                    problems.append(
                        f"k={k} point {j} c{i}: correction at order {diff.ord()}")
    return problems


def test_criterion_6_lifting():
    problems = []
    for a, b, witness in ((2, 3, (F(1),)), (4, 6, (F(1), F(1), F(1)))):
        model = LocalModel(a, b)
        config = SingularConfig((model,))
        modulus = 1 * (b + 1) + 6  # d = 1 for a single point
        prov = random_provider(config, SEED)
        rep = lift_run(model, witness, modulus, prov)
        if rep.steps != modulus - (b + 1) - 1:
            problems.append(f"({a},{b}): {rep.steps} steps")
        problems += [f"({a},{b}) {p}" for p in
                     _closure_profile(config, [witness], modulus, prov, rep)]
        problems += [f"({a},{b}) {p}" for p in
                     _prior_coefficients_frozen(config, rep)]
        if not rep.audit_ok:
            problems.append(f"({a},{b}): audit")
        if any(o < modulus for o in rep.residual_orders.values()):
            problems.append(f"({a},{b}): final residuals {rep.residual_orders}")

    config2 = SingularConfig((LocalModel(2, 3), LocalModel(2, 5)))
    prov2 = random_provider(config2, SEED)
    rep2 = lift_run(config2, [(F(1),), (F(2),)], 16, prov2)
    if not rep2.audit_ok or not rep2.audit:
        problems.append("two-point interleaved audit")
    problems += ["two-point " + p for p in
                 _closure_profile(config2, [(F(1),), (F(2),)], 16, prov2, rep2)]
    _report(6, "lifting closes one order per step; priors frozen; "
               "interleaved non-interference audit",
            not problems, "; ".join(problems[:4]))


# ---------------------------------------------------------------------------
# criterion 7: deformability verdict fixtures


def test_criterion_7_verdict_fixtures():
    problems = []
    doubles = SingularConfig((LocalModel(2, 3), LocalModel(2, 5)))

    uncovered = [SectionProfile.of("s", {(1, 1): F(1)})]
    v1 = deform_verdict(doubles, uncovered, None, None)
    if v1.status != "deforms":
        problems.append(f"clause-1 fixture: {v1.status}")

    covered = [SectionProfile.of("s1", {(1, 1): F(1)}),
               SectionProfile.of("s2", {(2, 1): F(1)})]
    v2 = deform_verdict(doubles, covered, None, None)
    if v2.status != "does_not_deform":
        problems.append(f"covered fixture: {v2.status}")

    mixed = SingularConfig((LocalModel(3, 4), LocalModel(4, 7)))
    dims = {1: (3, 2), 2: (4, 2)}
    g_table = {j: check_g(mixed.model(j), Budget(120.0)).status for j in (1, 2)}
    v3 = deform_verdict(mixed, [], dims, g_table)
    if v3.status != "deforms":
        problems.append(f"dimension fixture: {v3.status}")
    _report(7, "deformability verdicts on the three fixtures",
            not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 8: engine integrity


def test_criterion_8_engine_integrity():
    rng = random.Random(SEED)
    problems = []
    grid = [(4, 6)] + ALL_HOLDS_GRID
    for a, b in grid:
        model = LocalModel(a, b)
        for i in range(1, a):
            for present in (_presentation_obstruction, _presentation_simplified):
                ideal, _ = present(model, i)
                base = reduced_basis(ideal)
                gens = list(ideal.generators)
                for perm in (list(reversed(gens)), rng.sample(gens, len(gens))):
                    other = reduced_basis(Ideal.of(ideal.varset, perm))
                    if other != base:
                        problems.append(f"({a},{b}) i={i}: GB not unique")

            ideal1, cand1 = _presentation_obstruction(model, i)
            ideal2, cand2 = _presentation_simplified(model, i)
            r1 = radical_member(cand1, ideal1, budget=Budget(120.0))
            r2 = radical_member(cand2, ideal2, budget=Budget(120.0))
            if r1.verdict is not r2.verdict:
                problems.append(f"({a},{b}) i={i}: presentations disagree")
    _report(8, "reduced GB permutation-invariant; dual presentations agree on the grid",
            not problems, "; ".join(problems))


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_criterion_")]
    failed = 0
    for _, fn in tests:
        try:
            fn()
        except AssertionError:
            failed += 1
    sys.exit(1 if failed else 0)
