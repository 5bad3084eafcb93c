"""Command-line front end: polynomial generation, condition checks, grid
scans with a content-addressed cache, reparameterization and lifting demos,
and configuration verdicts. Machine formats (json, csv, md) sit next to the
human text output; exit codes are 0 for success/holds, 1 for fails or
not-deformable, 2 for errors, timeouts, and usage problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Any, Sequence

from . import __version__, cache
from .expansion import LocalModel, SigmaModel, big_f, f_coeff, jac_bar, theta_cap
from .groebner import (
    Budget,
    GStatus,
    Ideal,
    Membership,
    _check_g_index_on,
    _generate_jbar,
    _presentation_obstruction,
    aggregate_status,
    check_g,
    check_g_index,
    check_t,
)
from .lifting import (
    SectionProfile,
    SingularConfig,
    build_section_basis,
    build_star_system,
    check_verdict_input,
    deform_verdict,
    lift_run,
    random_provider,
    star_satisfied,
    zero_provider,
)
from .polycore import MPoly, poly_json, poly_text
from .series import (TriState, TSeries, _check_solve_args, _pm_difference, order_bound_audit,
                     pm_identity_check, pm_window_bound, reparam_solve, substitution_check)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

DEFAULT_SEED = 20260816


class UsageError(Exception):
    pass


def _model(args: argparse.Namespace) -> LocalModel:
    if args.a is None or args.b is None:
        raise UsageError("--a and --b are required")
    return LocalModel(args.a, args.b)


def _budget(args: argparse.Namespace) -> Budget:
    """The budget of --budget-secs (120 when not given) and --max-pairs,
    its clock running from now, both checked: a deadline that never
    expires (nan, inf) or has already (<= 0) bounds nothing."""
    seconds = 120.0 if args.budget_secs is None else args.budget_secs
    if not 0 < seconds < math.inf:
        raise UsageError(f"--budget-secs must be a finite number of seconds > 0, got {seconds}")
    if args.max_pairs is not None and args.max_pairs < 0:
        raise UsageError(f"--max-pairs must be at least 0, got {args.max_pairs}")
    return Budget(seconds, args.max_pairs)


def _parse_range(text: str | None, flag: str, default: Sequence[int] = ()) -> list[int]:
    """Accept '3' or '1..4' (inclusive) as the value of flag."""
    if text is None:
        return list(default)
    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"{flag} must be an integer or a range lo..hi, got {json.dumps(text)}") from None
    if lo > hi:
        raise UsageError(f"range {text} is empty: {lo} > {hi}")
    return list(range(lo, hi + 1))


def _fraction(value: Any, what: str) -> Fraction:
    """A rational such as 3, "-1/2" or 0.5, from the command line or an input
    file. A malformed value or a zero denominator is a usage error."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise UsageError(f"bad {what} {json.dumps(value)}: {exc}") from None


def _parse_point(text: str, n: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"--point needs {n} comma-separated coordinates, got {len(parts)}")
    return tuple(_fraction(p, "point coordinate") for p in parts)


def _json_arg(text: str, what: str) -> Any:
    """A command-line value parsed as JSON; bad JSON is a usage error naming the flag."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None


def _fraction_rows(rows: list[Any], what: str) -> list[list[Fraction]]:
    """Each row of a JSON list as rationals. A row must itself be a list:
    a string row would otherwise be read one character at a time."""
    out = []
    for row in rows:
        if not isinstance(row, list):
            raise UsageError(f"{what} rows must be lists of coefficients")
        out.append([_fraction(x, f"{what} coefficient") for x in row])
    return out


def _parse_fraction_rows(text: str, modulus: int, n: int, what: str) -> list[TSeries]:
    data = _json_arg(text, what)
    if not isinstance(data, list) or len(data) != n:
        raise UsageError(f"{what} must be a JSON list of {n} coefficient rows")
    return [TSeries(modulus, row) for row in _fraction_rows(data, what)]


# ---------------------------------------------------------------------------
# configuration files


def _require(value: Any, kind: type, what: str) -> Any:
    if not isinstance(value, kind):
        raise UsageError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def _int(value: Any, what: str) -> int:
    """An integer, or a string holding one. int() alone would truncate 2.9
    to 2 and read true as 1, so anything else is a usage error."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"{what} must be an integer, got {json.dumps(value)}")


def _load_input(path: str) -> dict[str, Any]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read input file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"input file is not valid JSON: {exc}") from None
    return _require(data, dict, "input file")


def _parse_config(data: dict[str, Any]) -> SingularConfig:
    points = data.get("points")
    if not points:
        raise UsageError('input needs a nonempty "points" list')
    try:
        return SingularConfig(tuple(LocalModel(_int(p["a"], '"a"'), _int(p["b"], '"b"'))
                                    for p in points))
    except (KeyError, TypeError) as exc:
        raise UsageError(f'each point needs integer "a" and "b": {exc}') from None


def _parse_sections(data: dict[str, Any]) -> list[SectionProfile]:
    out = []
    for raw in _require(data.get("sections", []), list, '"sections"'):
        _require(raw, dict, "each section entry")
        rows = [_require(r, dict, "each residue entry")
                for r in _require(raw.get("residues", []), list, '"residues"')]
        try:
            residues = {(_int(r["j"], '"j"'), _int(r["m"], '"m"')): _fraction(r["r"], '"r"')
                        for r in rows}
            out.append(SectionProfile.of(str(raw["id"]), residues))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad section entry: {exc}") from None
    return out


def _parse_dims(data: dict[str, Any]) -> dict[int, tuple[int, int]] | None:
    if "dims" not in data:
        return None
    out = {}
    for raw in _require(data["dims"], list, '"dims"'):
        _require(raw, dict, "each dims entry")
        try:
            out[_int(raw["j"], '"j"')] = (_int(raw["twisted"], '"twisted"'),
                                          _int(raw["plain"], '"plain"'))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad dims entry: {exc}") from None
    return out


def _parse_witnesses(data: dict[str, Any], config: SingularConfig) -> list[tuple[Fraction, ...]]:
    raw = data.get("witnesses")
    if not isinstance(raw, list) or len(raw) != config.e:
        raise UsageError(f'input needs a "witnesses" list with {config.e} points')
    return [tuple(row) for row in _fraction_rows(raw, '"witnesses"')]


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> int:
    model = _model(args)
    if args.n is not None and args.kind != "F":
        raise UsageError("--n is read only by gen F: use gen F or drop --n")
    if args.m is not None and args.kind not in ("f", "theta"):
        raise UsageError("--m is read only by gen f and gen theta: "
                         "use gen f or gen theta or drop --m")
    items: list[tuple[str, Any]] = []
    if args.kind == "f":
        for m in _parse_range(args.m, "--m"):
            items.append((f"f_{m}", f_coeff(model, model.b, m)))
        if not items:
            raise UsageError("gen f needs --m (single index or lo..hi)")
    elif args.kind == "F":
        ns = _parse_range(args.n, "--n", default=range(1, model.a))
        for n in ns:
            if not 1 <= n <= model.a - 1:
                raise UsageError(f"--n must lie in 1..{model.a - 1}")
            items.append((f"F_-{n}", big_f(model, n)))
    elif args.kind == "jacbar":
        items.append(("jacbar", jac_bar(model)))
    else:
        ms = _parse_range(args.m, "--m")
        if not ms:
            raise UsageError("gen theta needs --m (single index or lo..hi)")
        if min(ms) < 2:
            raise UsageError("--m must be at least 2 for theta")
        items.extend((f"theta_{m}", theta_cap(model, 1, m)) for m in ms)
    if args.format == "json":
        doc = {"model": {"a": model.a, "b": model.b},
               "polynomials": [{"name": name, **poly_json(p)} for name, p in items]}
        print(json.dumps(doc, indent=2))
    else:
        for name, p in items:
            print(f"{name} = {poly_text(p)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    model = _model(args)
    if args.cond == "T":
        for flag, value in (("--index", args.index), ("--budget-secs", args.budget_secs),
                            ("--max-pairs", args.max_pairs)):
            if value is not None:
                raise UsageError(f"{flag} is read only by check G: use check G or drop {flag}")
        if args.point is None:
            raise UsageError("check T needs --point")
        point = _parse_point(args.point, model.a - 1)
        ok = check_t(model, point)
        if args.format == "json":
            print(json.dumps({"a": model.a, "b": model.b, "point": [str(x) for x in point],
                              "transversal": ok}))
        else:
            print(f"(T) at {args.point}: {'holds' if ok else 'fails'}")
        return EXIT_OK if ok else EXIT_FAIL

    if args.point is not None:
        raise UsageError("--point is read only by check T: use check T or drop --point")
    budget = _budget(args)
    if args.index is not None:
        results = [check_g_index(model, args.index, budget)]
    else:
        results = check_g(model, budget).per_index
    worst = aggregate_status(r.status for r in results)
    if args.format == "json":
        doc = {"a": model.a, "b": model.b, "verdict": worst.value,
               "indices": [{"i": r.index, "status": r.status.value,
                            "pairs": r.pairs_processed, "seconds": round(r.elapsed, 4)}
                           for r in results]}
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            print(f"i={r.index}: {r.status.value} (pairs={r.pairs_processed}, "
                  f"{r.elapsed:.2f}s)")
        print(f"aggregate: {worst.value}")
    if worst is GStatus.FAILS:
        return EXIT_FAIL
    if worst is GStatus.TIMEOUT:
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _poly_hashes(ideal: Ideal, candidate: MPoly) -> dict[str, str]:
    gens = sorted(poly_text(g) for g in ideal.generators)
    return {
        "generators": hashlib.sha256("\n".join(gens).encode()).hexdigest(),
        "candidate": hashlib.sha256(poly_text(candidate).encode()).hexdigest(),
    }


# The membership each verdict implies: (G) holds iff the candidate is not
# in the radical.
_MEMBERSHIP = {GStatus.HOLDS: Membership.FALSE, GStatus.FAILS: Membership.TRUE,
               GStatus.TIMEOUT: Membership.TIMEOUT}


def _scan_entry(a: int, b: int, i: int, status: GStatus, pairs: int, seconds: float,
                hashes: dict[str, str] | None) -> dict[str, Any]:
    """The scan's entry for index i of (a, b): what the cache stores, and
    what the scan prints with ``cached`` added."""
    return {
        "a": a, "b": b, "i": i,
        "engine_version": __version__, "order": "grevlex",
        "verdict": status.value, "membership": _MEMBERSHIP[status].value,
        "pairs": pairs, "seconds": seconds,
        "poly_hashes": hashes,
    }


def _cache_hit(entry: dict[str, Any] | None, a: int, b: int, i: int,
               hashes: dict[str, str]) -> dict[str, Any] | None:
    """The scan entry a stored entry serves, or None for a miss.

    A hit is exactly what the scan would write for index i of (a, b) and
    the polynomials the current generator produces: a holds or fails
    verdict, a pair count that is a non-negative int, a time that is a
    finite non-negative number, and, as JSON text, the ``_scan_entry`` of
    those three and nothing else. That rebuilt entry is returned, so a
    served row has the key order of a computed one."""
    if entry is None:
        return None
    verdict, pairs, seconds = entry.get("verdict"), entry.get("pairs"), entry.get("seconds")
    if not (verdict in (GStatus.HOLDS.value, GStatus.FAILS.value)
            and type(pairs) is int and pairs >= 0
            and type(seconds) in (int, float) and math.isfinite(seconds) and seconds >= 0):
        return None
    rebuilt = _scan_entry(a, b, i, GStatus(verdict), pairs, seconds, hashes)
    if json.dumps(entry, sort_keys=True) != json.dumps(rebuilt, sort_keys=True):
        return None
    return rebuilt


def _scan_cell(job: tuple[int, int, Budget, str | None]) -> dict[str, Any]:
    a, b, budget, cache_dir = job
    model = LocalModel(a, b)
    indices = []
    statuses = []
    for i in range(1, a):
        key = cache.cache_key(a, b, i, __version__)
        entry = cache.load(cache_dir, key) if cache_dir else None
        # One build of the obstruction presentation serves the hashes and
        # the check; the index's clock runs from before it, and Jbar is
        # generated on it.
        index_budget = Budget(budget.seconds, budget.max_pairs)
        timeout = _generate_jbar(model, i, index_budget)
        if timeout is not None:
            # No polynomials to hash, so nothing to look up or store.
            indices.append(dict(_scan_entry(a, b, i, GStatus.TIMEOUT, 0,
                                            round(timeout.elapsed, 4), None), cached=False))
            statuses.append(GStatus.TIMEOUT)
            continue
        obstruction = _presentation_obstruction(model, i)
        hashes = _poly_hashes(*obstruction)
        # Anything but a hit is recomputed and overwritten.
        hit = _cache_hit(entry, a, b, i, hashes)
        if hit is not None:
            indices.append(dict(hit, cached=True))
            statuses.append(GStatus(hit["verdict"]))
            continue
        res = _check_g_index_on(model, i, obstruction, index_budget)
        entry = _scan_entry(a, b, i, res.status, res.pairs_processed, round(res.elapsed, 4),
                            hashes)
        if cache_dir and res.status is not GStatus.TIMEOUT:
            cache.store(cache_dir, key, entry)
        indices.append(dict(entry, cached=False))
        statuses.append(res.status)
    return {"a": a, "b": b, "verdict": aggregate_status(statuses).value, "indices": indices,
            "seconds": round(sum(e["seconds"] for e in indices), 4)}


def _detail(row: dict[str, Any]) -> str:
    return ";".join(f"{e['i']}:{e['verdict']}" for e in row["indices"])


def cmd_scan(args: argparse.Namespace) -> int:
    if args.a_min < 2:
        raise UsageError(f"--a-min must be at least 2, got {args.a_min}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    budget = _budget(args)
    cache_dir = cache.resolve_dir(args.cache_dir)
    jobs = []
    for a in range(args.a_min, args.a_max + 1):
        for b in range(a + 1, args.b_max + 1):
            if b % a:
                jobs.append((a, b, budget, cache_dir))
    if not jobs:
        raise UsageError("empty scan grid")
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_cell, jobs))
    else:
        rows = [_scan_cell(j) for j in jobs]

    if args.format == "json":
        print(json.dumps({"engine_version": __version__, "rows": rows}, indent=2))
    elif args.format == "csv":
        print("a,b,verdict,detail,seconds")
        for r in rows:
            print(f"{r['a']},{r['b']},{r['verdict']},{_detail(r)},{r['seconds']}")
    elif args.format == "md":
        print("| a | b | verdict | detail | seconds |")
        print("| - | - | - | - | - |")
        for r in rows:
            mark = f"**{r['verdict']}**" if r["verdict"] != "holds" else r["verdict"]
            print(f"| {r['a']} | {r['b']} | {mark} | {_detail(r)} | {r['seconds']} |")
    else:
        for r in rows:
            mark = " !" if r["verdict"] != "holds" else ""
            print(f"a={r['a']} b={r['b']}: {r['verdict']}{mark} "
                  f"[{_detail(r)}] {r['seconds']}s")
    return EXIT_ERROR if any(r["verdict"] == "timeout" for r in rows) else EXIT_OK


# ---------------------------------------------------------------------------
# reparam


def cmd_reparam(args: argparse.Namespace) -> int:
    model = _model(args)
    if args.g0 is not None and not args.pm:
        raise UsageError("--g0 is read only by --pm: add --pm or drop --g0")
    K = args.modulus
    n = model.a - 1
    c_now = _parse_fraction_rows(args.c_now, K, n, "--c-now")
    c_next = _parse_fraction_rows(args.c_next, K, n, "--c-next")
    result = pm = None
    if args.pm:
        # A bad --smax or coefficient row is reported before a bad --g0.
        _check_solve_args(model, c_now, c_next, args.smax, K)
        g0 = (tuple(_fraction(x, "--g0 coefficient")
                    for x in _require(_json_arg(args.g0, "--g0"), list, "--g0"))
              if args.g0 else ())
        smax_needed = pm_window_bound(model, K)
        if args.smax < smax_needed:
            pm = TriState.INCONCLUSIVE
        else:
            # One solve at the depth the matching identity needs; what is
            # printed and audited is its cut at --smax.
            sigma_model = SigmaModel(model, g0)
            deep, diff = _pm_difference(sigma_model, c_now, c_next, args.smax, K)
            pm = TriState.FALSE if any(diff) else TriState.TRUE
            result = deep.cut(args.smax)
    if result is None:
        result = reparam_solve(model, c_now, c_next, args.smax, K)
    sub_ok = substitution_check(result, c_now, c_next)
    audit = order_bound_audit(result, c_now, c_next)

    if args.format == "json":
        doc = {
            "a": model.a, "b": model.b, "modulus": K, "smax": args.smax,
            "delta_prime": {str(i): [str(c) for c in s.coeffs]
                            for i, s in result.delta_prime.items()},
            "epsilon": {str(m): [str(c) for c in s.coeffs]
                        for m, s in result.epsilon.items()},
            "substitution_identity": sub_ok,
            "audit_ok": audit.ok,
            "audit": [{"kind": e.kind, "index": e.index, "required": e.required,
                       "actual": e.actual, "margin": e.margin} for e in audit.entries],
        }
        if pm is not None:
            doc["pm_identity"] = pm.value
            doc["pm_smax_needed"] = smax_needed
        print(json.dumps(doc, indent=2))
    else:
        for i in sorted(result.delta_prime):
            print(f"delta'_{i} = {result.delta_prime[i]!r}")
        for m in sorted(result.epsilon):
            print(f"epsilon_{m} = {result.epsilon[m]!r}")
        print(f"substitution identity: {'ok' if sub_ok else 'FAILED'}")
        for e in audit.entries:
            print(f"audit {e.kind}_{e.index}: required >= {e.required}, "
                  f"actual {e.actual} (margin {e.margin})")
        print(f"audit: {'ok' if audit.ok else 'FAILED'}")
        if pm is not None:
            why = (f" (needs --smax >= {smax_needed}, got {args.smax})"
                   if pm is TriState.INCONCLUSIVE else "")
            print(f"matching identity: {pm.value}{why}")
    if not sub_ok or not audit.ok or pm is TriState.FALSE:
        return EXIT_FAIL
    if pm is TriState.INCONCLUSIVE:
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# star


def cmd_star(args: argparse.Namespace) -> int:
    data = _load_input(args.input)
    config = _parse_config(data)
    sections = _parse_sections(data)
    basis = build_section_basis(config, sections)
    system = build_star_system(config, basis)
    if args.action == "build":
        if args.at is not None:
            raise UsageError("--at is read only by star check: use star check or drop --at")
        if args.format == "json":
            doc = {"points": [{"a": p.a, "b": p.b} for p in config.points],
                   "equations": [{"section": eq.section_id, "ord": eq.ord,
                                  "contributors": [{"j": j, "m": m, "r": str(r)}
                                                   for (j, m), r in eq.contributors],
                                  **poly_json(eq.poly)} for eq in system.equations]}
            print(json.dumps(doc, indent=2))
        else:
            for eq in system.equations:
                contrib = ", ".join(f"(j={j},m={m}):{r}" for (j, m), r in eq.contributors)
                print(f"star[{eq.section_id}] ord={eq.ord} via {contrib}")
                print(f"  {poly_text(eq.poly)} = 0")
        return EXIT_OK

    if args.at is None:
        raise UsageError("star check needs --at with per-point coefficient vectors")
    rows = _require(_json_arg(args.at, "--at"), list, "--at")
    ok = star_satisfied(system, [tuple(row) for row in _fraction_rows(rows, "--at")])
    print(f"star system: {'satisfied' if ok else 'not satisfied'}")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# lift


def cmd_lift(args: argparse.Namespace) -> int:
    if args.input:
        given = [flag for flag, value in (("--a", args.a), ("--b", args.b),
                                          ("--witness", args.witness)) if value is not None]
        if given:
            raise UsageError(f"--input gives the points and witnesses: drop {', '.join(given)} "
                             "or drop --input")
        data = _load_input(args.input)
        config = _parse_config(data)
        witnesses = _parse_witnesses(data, config)
    else:
        model = _model(args)
        if args.witness is None:
            raise UsageError("lift needs --input or --a/--b/--witness")
        config = SingularConfig((model,))
        witnesses = [_parse_point(args.witness, model.a - 1)]
    if args.modulus is None:
        raise UsageError("lift needs --modulus")
    if args.seed is not None and args.perturb != "random":
        raise UsageError("--seed is read only by --perturb random: add --perturb random "
                         "or drop --seed")
    providers = (random_provider(config, DEFAULT_SEED if args.seed is None else args.seed)
                 if args.perturb == "random" else zero_provider)
    report = lift_run(config, witnesses, args.modulus, providers)

    if args.format == "json":
        doc = {"points": [{"a": p.a, "b": p.b} for p in config.points],
               "modulus": args.modulus, "steps": report.steps,
               "audit_ok": report.audit_ok,
               "coefficients": [[[str(x) for x in s.coeffs] for s in point_c]
                                for point_c in report.state.c],
               "residual_orders": [{"j": j, "eq": eq, "ord": o}
                                   for (j, eq), o in sorted(report.residual_orders.items())]}
        print(json.dumps(doc, indent=2))
    else:
        print(f"lift to t^{args.modulus}: {report.steps} steps, "
              f"audit {'ok' if report.audit_ok else 'FAILED'}")
        for j in range(1, config.e + 1):
            model = config.model(j)
            for k, s in zip(range(2, model.a + 1), report.state.c[j - 1]):
                print(f"  point {j}: c{k} = {s!r}")
        for (j, eq), o in sorted(report.residual_orders.items()):
            closed = report.state.closed_modulus(j, eq)
            print(f"  residual point {j} eq {eq}: order >= {o} (required {closed})")
    # The audit is a self-check of the engine, not a verdict on the input.
    return EXIT_OK if report.audit_ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# verdict


def cmd_verdict(args: argparse.Namespace) -> int:
    data = _load_input(args.input)
    config = _parse_config(data)
    sections = _parse_sections(data)
    dims = _parse_dims(data)
    flags = _require(data.get("flags", {}), dict, '"flags"')
    nbar = flags.get("nbar_nonzero", False)
    if not isinstance(nbar, bool):
        raise UsageError('"flags.nbar_nonzero" must be a JSON boolean')
    budget = _budget(args)
    # Bad input fails before any (G) check spends the budget on it.
    check_verdict_input(config, sections, dims, range(1, config.e + 1))
    g_table: dict[int, GStatus] = {}
    if not all(p.a == 2 for p in config.points):
        # (G) depends on (a, b) alone: points of one type share one check.
        by_model: dict[LocalModel, GStatus] = {}
        for j in range(1, config.e + 1):
            model = config.model(j)
            if model.a >= 3:
                if model not in by_model:
                    by_model[model] = check_g(model, budget).status
                g_table[j] = by_model[model]
    v = deform_verdict(config, sections, dims, g_table or None, nbar)
    if args.format == "json":
        print(json.dumps({"status": v.status, "reason": v.reason,
                          "certificate": v.certificate}, indent=2))
    else:
        print(f"verdict: {v.status}")
        print(f"reason: {v.reason}")
        if v.certificate is not None:
            print(f"certificate l_j: {v.certificate}")
    if v.status == "deforms":
        return EXIT_OK
    if v.status == "does_not_deform":
        return EXIT_FAIL
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    m46 = LocalModel(4, 6)
    check("golden F_-1 (4,6)",
          poly_text(big_f(m46, 1)) == "-3/16*c2^2*c3 + 3/4*c3*c4")
    check("golden F_-2 (4,6)",
          poly_text(big_f(m46, 2))
          == "3/128*c2^4 - 3/16*c2*c3^2 - 3/16*c2^2*c4 + 3/8*c4^2")
    check("golden F_-3 (4,6)",
          poly_text(big_f(m46, 3))
          == "3/64*c2^3*c3 - 1/16*c3^3 - 3/16*c2*c3*c4")
    check("golden jacbar (4,6) leading term",
          poly_text(jac_bar(m46)).startswith("27/16384*c2^6*c3"))

    v34 = check_g(LocalModel(3, 4), Budget(60))
    check("(3,4) genericity holds", v34.status is GStatus.HOLDS)
    v46 = check_g(m46, Budget(60))
    check("(4,6) genericity fails at i=2",
          v46.status is GStatus.FAILS
          and [r.status.value for r in v46.per_index] == ["holds", "fails", "holds"])

    m23 = LocalModel(2, 3)
    K = 10
    c_now = [TSeries(K, [0, 0, 1])]
    c_next = [TSeries(K, [0, 0, 1, 1])]
    res = reparam_solve(m23, c_now, c_next, 8, K)
    check("reparameterization identity (2,3)", substitution_check(res, c_now, c_next))
    check("order-bound audit (2,3)", order_bound_audit(res, c_now, c_next).ok)
    check("matching identity (2,3)",
          pm_identity_check(SigmaModel(m23), c_now, c_next, 8, K) is TriState.TRUE)

    rep = lift_run(m23, (Fraction(1),), 10, random_provider(SingularConfig((m23,)), args.seed))
    check("lift closes (2,3)", rep.residual_orders[(1, 1)] >= 10 and rep.audit_ok)

    print(f"selftest: {'all passed' if not failures else f'{failures} failed'}")
    return EXIT_OK if not failures else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equigen",
        description="Exact obstruction calculus for equisingular curve deformations.")
    parser.add_argument("--version", action="version", version=f"equigen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--a", type=int, help="branch multiplicity (>= 2)")
        p.add_argument("--b", type=int, help="contact order (> a, not a multiple of a)")

    def add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("gen", help="generate obstruction polynomials")
    p.add_argument("kind", choices=["f", "F", "jacbar", "theta"])
    add_model_flags(p)
    p.add_argument("--n", help="obstruction index for F: single or lo..hi (default all)")
    p.add_argument("--m", help="order for f/theta: single or lo..hi")
    add_format(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="decide conditions (T) and (G)")
    p.add_argument("cond", choices=["T", "G"])
    add_model_flags(p)
    p.add_argument("--point", help="comma-separated rational coordinates c2..ca")
    p.add_argument("--index", type=int, help="single genericity index (default all)")
    p.add_argument("--budget-secs", type=float,
                   help="wall-clock seconds for the whole check (default 120)")
    p.add_argument("--max-pairs", type=int, help="S-pairs allowed per Groebner run")
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", help="genericity verdicts over an (a, b) grid")
    p.add_argument("--a-min", type=int, default=3)
    p.add_argument("--a-max", type=int, default=4)
    p.add_argument("--b-max", type=int, default=9)
    p.add_argument("--budget-secs", type=float,
                   help="wall-clock seconds per (a, b, i) index, not for the whole scan "
                        "(default 120)")
    p.add_argument("--max-pairs", type=int, help="S-pairs allowed per Groebner run")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at least 1 (capped at the number of grid cells)")
    p.add_argument("--cache-dir", help=f"verdict cache (or ${cache.ENV_VAR})")
    add_format(p, ("text", "json", "csv", "md"))
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("reparam", help="solve the reparameterization system")
    add_model_flags(p)
    p.add_argument("--c-now", required=True,
                   help="JSON rows of t-coefficients for the current point")
    p.add_argument("--c-next", required=True,
                   help="JSON rows of t-coefficients for the target point")
    p.add_argument("--smax", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--pm", action="store_true", help="also run the matching identity check")
    p.add_argument("--g0", help="JSON list of regular-part coefficients for --pm")
    add_format(p)
    p.set_defaults(func=cmd_reparam)

    p = sub.add_parser("star", help="build or evaluate the star equations")
    p.add_argument("action", choices=["build", "check"])
    p.add_argument("--input", required=True, help="configuration JSON file")
    p.add_argument("--at", help="JSON per-point coefficient vectors for check")
    add_format(p)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("lift", help="order-by-order lifting demo")
    add_model_flags(p)
    p.add_argument("--input", help="configuration JSON with witnesses")
    p.add_argument("--witness", help="comma-separated witness for single-point lift")
    p.add_argument("--modulus", type=int)
    p.add_argument("--perturb", choices=["none", "random"], default="none")
    p.add_argument("--seed", type=int,
                   help=f"seed of --perturb random (default {DEFAULT_SEED})")
    add_format(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verdict", help="deformability of a configuration")
    p.add_argument("--input", required=True, help="configuration JSON file")
    p.add_argument("--budget-secs", type=float,
                   help="wall-clock seconds for all genericity checks together (default 120)")
    p.add_argument("--max-pairs", type=int, help="S-pairs allowed per Groebner run")
    add_format(p)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("selftest", help="built-in consistency checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # An engine fault is no verdict: exit 1 would read as "fails".
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
