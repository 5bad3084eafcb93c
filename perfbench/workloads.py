"""The four benchmark workloads: seeded op plans, op execution, golden records.

A workload is a list of op keys drawn from a fixed, finite pool. ``plan(seed)``
picks the keys (pure Python, no library call), ``prepare(key)`` builds the
library inputs during set-up, ``execute(inp)`` is the timed op, and
``record(inp, out)`` turns its output into the canonical dict that is compared
with the goldens recorded in ``goldens/<workload>.json``. Because every key
comes from a finite pool, the goldens cover every input any seed can choose.

Every library call goes through a module attribute (``groebner.check_g_index``,
``expansion.big_f``, ...) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from equigen import expansion, groebner, lifting, polycore, series

F = Fraction


def digest(obj) -> str:
    """Short sha256 of a canonical JSON rendering."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _series_text(ts) -> list[str]:
    return [str(c) for c in ts.coeffs]


def cached_functions() -> list:
    """Every memoised function of the library, found by attribute so that a
    refactor which adds or removes a cache needs no benchmark change.
    Collected before the tracer wraps them: a wrapper has no cache_clear."""
    found = {}
    for mod in (expansion, polycore, groebner, series, lifting):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


class Workload:
    name = ""
    # Percentile of the plan's op times reported as op_tail_ms.
    tail_pct = 75.0

    def __init__(self) -> None:
        self._caches = cached_functions()

    def clear_caches(self) -> None:
        for fn in self._caches:
            fn.cache_clear()

    def plan(self, seed: int) -> list[str]:
        raise NotImplementedError

    def pool(self) -> list[str]:
        """Every key any seed can choose; the goldens cover exactly these."""
        raise NotImplementedError

    def prepare(self, key: str):
        raise NotImplementedError

    def start_pass(self) -> None:
        """Untimed hook before each pass over the plan."""

    def before_op(self, inp) -> None:
        """Untimed hook before each op."""

    def execute(self, inp):
        raise NotImplementedError

    def record(self, inp, out) -> dict:
        raise NotImplementedError


class Genericity(Workload):
    """One op is one ``check_g_index(model, i)`` call, as ``scan`` makes it,
    over the default scan grid (a in 3..4, b <= 9) plus (5, 6) at i = 4.
    Caches are cleared at the start of each pass, as in a fresh ``scan``
    process.

    Only the cheapest (5, 6) index is included: all four take 9-10 s, which
    would leave room for two passes in a run, too few repeats for a steady
    reading on a host whose speed swings for seconds at a time."""

    name = "genericity"
    tail_pct = 75.0
    GRID = [(a, b) for a in (3, 4) for b in range(a + 1, 10) if b % a]

    def pool(self) -> list[str]:
        return [f"{a},{b},{i}" for a, b in self.GRID for i in range(1, a)] + ["5,6,4"]

    def plan(self, seed: int) -> list[str]:
        return self.pool()

    def prepare(self, key: str):
        a, b, i = map(int, key.split(","))
        return expansion.LocalModel(a, b), i

    def start_pass(self) -> None:
        self.clear_caches()

    def execute(self, inp):
        model, i = inp
        return groebner.check_g_index(model, i)

    def record(self, inp, out) -> dict:
        return {"verdict": out.status.value, "pairs": out.pairs_processed}


class Generate(Workload):
    """One op is cold generation of every big_f, f_bar and jac_bar of one
    a = 5 or a = 6 model; caches are cleared before each op. The a = 6
    models stop at b = 9: (6, 10) alone takes about 2.7 s, which would cut
    the repeats a run holds."""

    name = "generate"
    tail_pct = 70.0
    MODELS = ([(5, b) for b in range(6, 15) if b % 5]
              + [(6, b) for b in range(7, 10)])

    def pool(self) -> list[str]:
        return [f"{a},{b}" for a, b in self.MODELS]

    def plan(self, seed: int) -> list[str]:
        return self.pool()

    def prepare(self, key: str):
        a, b = map(int, key.split(","))
        return expansion.LocalModel(a, b)

    def before_op(self, inp) -> None:
        self.clear_caches()

    def execute(self, model):
        big = [expansion.big_f(model, n) for n in range(1, model.a)]
        bar = [expansion.f_bar(model, j) for j in range(1, model.a)]
        return big, bar, expansion.jac_bar(model)

    def record(self, inp, out) -> dict:
        big, bar, jac = out

        def sha(p) -> str:
            return hashlib.sha256(polycore.poly_text(p).encode()).hexdigest()

        return {"big_f": [sha(p) for p in big], "f_bar": [sha(p) for p in bar],
                "jac_bar": sha(jac)}


class Lift(Workload):
    """One op is one ``lift_run`` on the two-point config [(3,4), (2,5)].

    Most ops use ``random_provider`` with a seed-chosen provider seed at
    modulus 44; four use ``zero_provider`` at moduli 60..90. Random
    perturbations make the residuals far costlier (K = 90 takes 12-18 s
    with them, 0.2 s without), so the random ops run at a modulus where a
    pass holds enough of them to average out their per-seed cost spread
    and a run holds enough passes.
    """

    name = "lift"
    tail_pct = 75.0
    POINTS = ((3, 4), (2, 5))
    WITNESSES = ((F(1), F(1)), (F(2),))
    RANDOM_MODULUS = 44
    RANDOM_POOL = 400
    RANDOM_PER_PASS = 12
    ZERO_MODULI = (60, 70, 80, 90)

    def __init__(self) -> None:
        super().__init__()
        self.config = lifting.SingularConfig(
            tuple(expansion.LocalModel(a, b) for a, b in self.POINTS))

    def pool(self) -> list[str]:
        return ([f"random:{s}:{self.RANDOM_MODULUS}" for s in range(self.RANDOM_POOL)]
                + [f"zero:{k}" for k in self.ZERO_MODULI])

    def plan(self, seed: int) -> list[str]:
        rng = random.Random(f"lift:{seed}")
        picks = rng.sample(range(self.RANDOM_POOL), self.RANDOM_PER_PASS)
        keys = [f"random:{s}:{self.RANDOM_MODULUS}" for s in picks]
        step = len(keys) // len(self.ZERO_MODULI)
        for n, k in enumerate(self.ZERO_MODULI):
            keys.insert(n * (step + 1) + step, f"zero:{k}")
        return keys

    def prepare(self, key: str):
        kind, *rest = key.split(":")
        if kind == "zero":
            return lifting.zero_provider, int(rest[0])
        return lifting.random_provider(self.config, int(rest[0])), int(rest[1])

    def execute(self, inp):
        provider, modulus = inp
        return lifting.lift_run(self.config, self.WITNESSES, modulus, provider)

    def record(self, inp, out) -> dict:
        return {
            "steps": out.steps,
            "residual_orders": sorted([j, eq, o] for (j, eq), o in out.residual_orders.items()),
            "audit_ok": out.audit_ok,
            "coeffs": digest([[_series_text(c) for c in point] for point in out.state.c]),
        }


MODELS_BY_A = {2: [(2, 3), (2, 5), (2, 7)],
               3: [(3, 4), (3, 5), (3, 7), (3, 8)],
               4: [(4, 5), (4, 6), (4, 7)]}


def _rand_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return F(rng.randint(-span, span), rng.randint(1, den))


def _random_pair(rng: random.Random, model, modulus: int):
    """ord(c_i(now)) pinned at exactly i; increments start at i + 1 or later."""
    c_now, c_next = [], []
    for i in range(2, model.a + 1):
        lead = F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))
        base = [0] * i + [lead] + [F(rng.randint(-3, 3), rng.randint(1, 2))
                                   for _ in range(modulus - i - 1)]
        delta = [0] * min(i + 1 + rng.randint(0, 2), modulus)
        delta += [F(rng.randint(-2, 2), rng.randint(1, 2))
                  for _ in range(modulus - len(delta))]
        c_now.append(series.TSeries(modulus, base))
        c_next.append(series.TSeries(modulus, base) + series.TSeries(modulus, delta))
    return c_now, c_next


class Reparam(Workload):
    """One op is one random case built as acceptance criterion 5 builds it
    (a in 2..4, modulus 8..12): reparam_solve, substitution_check,
    order_bound_audit and pm_identity_check.

    A case's cost is set mostly by its shape (model, modulus, smax, g0
    length, pm window) and little by its coefficients. So the pool holds
    SHAPES fixed shapes, VARIANTS coefficient draws of each, and a plan
    takes every shape once with a seed-chosen variant: the seed changes
    every input, while the cost mix of a pass stays the same."""

    name = "reparam"
    tail_pct = 80.0
    SHAPES = 120
    VARIANTS = 10

    def pool(self) -> list[str]:
        return [f"case:{n}" for n in range(self.SHAPES * self.VARIANTS)]

    def plan(self, seed: int) -> list[str]:
        rng = random.Random(f"reparam:{seed}")
        return [f"case:{rng.randrange(self.VARIANTS) * self.SHAPES + j}"
                for j in range(self.SHAPES)]

    def prepare(self, key: str):
        n = int(key.split(":")[1])
        j = n % self.SHAPES
        shape = random.Random(f"reparam-shape:{j}")
        a = 2 + j % 3
        model = expansion.LocalModel(*shape.choice(MODELS_BY_A[a]))
        modulus = shape.randint(8, 12)
        smax = shape.randint(a, 10)
        g0_len = shape.randint(0, 2)
        smax_pm = max(a, modulus - model.b) + shape.randint(0, 2)
        rng = random.Random(f"reparam-case:{n}")
        c_now, c_next = _random_pair(rng, model, modulus)
        g0 = tuple(_rand_fraction(rng, 3, 2) for _ in range(g0_len))
        return model, modulus, smax, c_now, c_next, expansion.SigmaModel(model, g0), smax_pm

    def execute(self, inp):
        model, modulus, smax, c_now, c_next, sigma_model, smax_pm = inp
        res = series.reparam_solve(model, c_now, c_next, smax, modulus)
        subst = series.substitution_check(res, c_now, c_next)
        audit = series.order_bound_audit(res, c_now, c_next).ok
        pm = series.pm_identity_check(sigma_model, c_now, c_next, smax_pm, modulus)
        return res, subst, audit, pm

    def record(self, inp, out) -> dict:
        res, subst, audit, pm = out
        solved = {"delta_prime": {str(i): _series_text(c) for i, c in res.delta_prime.items()},
                  "epsilon": {str(i): _series_text(c) for i, c in res.epsilon.items()}}
        return {"substitution": subst, "audit": audit, "pm": pm.value,
                "solution": digest(solved)}


WORKLOADS = {w.name: w for w in (Genericity, Generate, Lift, Reparam)}
