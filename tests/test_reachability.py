"""Every ``def`` under ``src/equigen`` runs in a fixed traffic set, or is
on a short allow-list that says why it stays.

The traffic is the command line in-process (every subcommand and output
format, ``scan`` cold and warm on one cache directory) and one seed-1 pass
of each benchmark workload of ``perfbench/workloads.py``. It runs under
``sys.setprofile``, which sees the code object of every Python call. A def
is known by its code object: file, first line and name (``co_qualname``
does not exist before Python 3.11). Lambdas and comprehensions are not
counted. ``scan`` runs with ``--jobs 1``, because the profiler does not see
child processes.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import sys
from pathlib import Path

import equigen
from equigen import cli

ROOT = Path(__file__).resolve().parents[1]

# Dotted name (module, class, def) -> why it stays although no traffic runs it.
ALLOWED = {
    "groebner.reduced_basis":
        "reference basis of test_sympy_differential and the basis tests; ROADMAP items 1 and 2",
    "groebner._reduce_basis":
        "the inter-reduction step of reduced_basis",
    "groebner._Overflow.__init__":
        "widening path, pinned by test_overflowing_s_pair_reruns_with_wider_fields",
    "polycore.MPoly.__repr__":
        "pytest's failure messages",
    "series.TSeries.__eq__":
        "tests compare series by value",
}


def defs_of(module) -> dict[tuple[str, int, str], str]:
    """Every def in the module's source, nested ones included, as
    (file, first line, name) -> dotted name under the module's last name."""
    path = module.__file__
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_NEWLOCALS:
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
            walk(const, name)

    walk(compile(Path(path).read_text(), path, "exec"), module.__name__.rsplit(".", 1)[-1])
    return found


def reached_during(traffic) -> set[tuple[str, int, str]]:
    """The (file, first line, name) of every Python function that
    ``traffic()`` calls, in this thread."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        traffic()
    finally:
        sys.setprofile(previous)
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}


def reachability_problems(modules, traffic, allowed: dict[str, str]) -> list[str]:
    """What is wrong with the modules' defs under the traffic: a def that
    is never reached and not allowed, an allowed def that is reached, and
    an allow-list name that is no def."""
    defs = {}
    for module in modules:
        defs.update(defs_of(module))
    reached = reached_during(traffic)
    names = set(defs.values())
    reached_names = {name for key, name in defs.items() if key in reached}
    problems = [f"never reached: {name}" for name in sorted(names - reached_names - set(allowed))]
    for name in sorted(allowed):
        if name not in names:
            problems.append(f"allow-listed but no such def: {name}")
        elif name in reached_names:
            problems.append(f"allow-listed but reached: {name}")
    return problems


def library_modules():
    return [importlib.import_module(f"equigen.{info.name}")
            for info in pkgutil.iter_modules(equigen.__path__)]


def _load(name: str, path: Path):
    """The module in the file ``path``, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commands(tmp_path: Path) -> list[tuple[list[str], int]]:
    """(argv, exit code) of the command-line traffic."""

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    two_points = [{"a": 2, "b": 3}, {"a": 2, "b": 5}]
    star = write("star.json", {"points": two_points, "sections": [
        {"id": "eta", "residues": [{"j": 1, "m": 1, "r": "3/2"}, {"j": 2, "m": 1, "r": "-1/2"}]}]})
    lift = write("lift.json", {"points": two_points, "witnesses": [["1"], ["2"]]})
    verdict = write("verdict.json", {"points": [{"a": 3, "b": 4}],
                                     "dims": [{"j": 1, "twisted": 3, "plain": 2}]})
    reparam = ["reparam", "--a", "2", "--b", "3", "--c-now", "[[0,0,1]]",
               "--c-next", "[[0,0,1,1]]", "--smax", "8", "--modulus", "10"]
    cache_dir = str(tmp_path / "cache")
    scan = ["scan", "--a-max", "3", "--b-max", "5", "--jobs", "1", "--cache-dir", cache_dir]
    return [
        (["gen", "f", "--a", "4", "--b", "6", "--m", "7..8"], 0),
        (["gen", "F", "--a", "4", "--b", "6", "--format", "json"], 0),
        (["gen", "jacbar", "--a", "4", "--b", "6"], 0),
        (["gen", "theta", "--a", "4", "--b", "7", "--m", "2..4"], 0),
        (["check", "T", "--a", "4", "--b", "6", "--point", "1,1,1"], 0),
        (["check", "G", "--a", "4", "--b", "6"], 1),
        (["check", "G", "--a", "3", "--b", "5", "--index", "1", "--format", "json"], 0),
        (reparam, 0),
        (reparam + ["--pm", "--g0", "[1, 2]", "--format", "json"], 0),
        (["star", "build", "--input", star], 0),
        (["star", "check", "--input", star, "--at", "[[\"50/3\"], [10]]"], 0),
        (["lift", "--a", "2", "--b", "3", "--witness", "1", "--modulus", "10"], 0),
        (["lift", "--a", "2", "--b", "3", "--witness", "1", "--modulus", "10",
          "--perturb", "random", "--format", "json"], 0),
        (["lift", "--input", lift, "--modulus", "15", "--perturb", "random"], 0),
        (["verdict", "--input", verdict, "--format", "json"], 0),
        (["selftest"], 0),
        (scan, 0),
        (scan + ["--format", "json"], 0),
        (scan + ["--format", "csv"], 0),
        (scan + ["--format", "md"], 0),
    ]


def library_traffic(tmp_path: Path):
    """The traffic of the library test: the command line, then one seed-1
    pass of each benchmark workload."""
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")

    def traffic():
        # A memo warmed by an earlier test would hide the code behind it.
        for module in library_modules():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
        for argv, code in _commands(tmp_path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = cli.main(argv)
            assert got == code, (argv, got, err.getvalue())
        for cls in workloads.WORKLOADS.values():
            workload = cls()
            workload.start_pass()
            for key in workload.plan(1):
                inp = workload.prepare(key)
                workload.before_op(inp)
                workload.record(inp, workload.execute(inp))

    return traffic


def test_every_library_def_is_reached_or_allowed(tmp_path):
    assert all(reason.strip() and "\n" not in reason for reason in ALLOWED.values())
    assert reachability_problems(library_modules(), library_traffic(tmp_path), ALLOWED) == []


SYNTHETIC = '''
def used():
    def inner():
        return 1
    return inner() + sum(x for x in (1, 2)) + (lambda: 0)()


def unused():
    def never():
        pass


class Box:
    def reached_but_allowed(self):
        return 0

    def allowed(self):
        return 1
'''


def test_checker_reports_each_kind_of_problem(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    module = _load("synthetic", path)

    def traffic():
        module.used()
        module.Box().reached_but_allowed()

    allowed = {"synthetic.Box.allowed": "kept", "synthetic.Box.reached_but_allowed": "kept",
               "synthetic.gone": "kept"}
    assert reachability_problems([module], traffic, allowed) == [
        "never reached: synthetic.unused",
        "never reached: synthetic.unused.never",
        "allow-listed but reached: synthetic.Box.reached_but_allowed",
        "allow-listed but no such def: synthetic.gone",
    ]
    # Lambdas, comprehensions and class bodies are no defs; a nested def is one.
    assert sorted(defs_of(module).values()) == [
        "synthetic.Box.allowed", "synthetic.Box.reached_but_allowed", "synthetic.unused",
        "synthetic.unused.never", "synthetic.used", "synthetic.used.inner"]
