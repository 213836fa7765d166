"""Cold start: what a fresh interpreter loads.

The test modules import numpy themselves, so each check runs its code in a
fresh interpreter and reads sys.modules there. numpy loads only where a dense
array is built (a nonempty head, a pushforward matrix, the coherence tools) and
the process pool only in sweep: the empty heads of the symmetrized basis and
of an augmented basis without extra atoms load nothing, and neither does a
chain of nested direct sums, which is refused before a component is built.
analysis and counterexample load on first use: run loads neither, check
loads analysis, and counterexample and a counterexample target load
counterexample, while every name the package exports still resolves.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
import types

import pytest

import greedyexp
from greedyexp import (SparseVector, atom_id_str, cli, dictionary_from_config, estimate_coherence,
                       make_finite)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ROTATION = [[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]]
PUSHED_FINITE = {"kind": "pushforward", "matrix": ROTATION,
                 "base": {"kind": "finite",
                          "atoms": [[[1, 1.0]], [[2, 1.0], [3, 0.5]], [[1, 0.3], [3, -1.0]]]}}


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports greedyexp from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def last_json(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# what the sitecustomize.py CI puts on PYTHONPATH holds: numpy cannot be
# imported, as where it is not installed
BLOCK_NUMPY = """
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoNumpy())
"""


def run_config(path, dictionary, out):
    """Write a 50-step Harmonic, t = 1 run config on dictionary to path."""
    path.write_text(json.dumps({
        "target": {"inline": [[1, 0.9], [2, -0.4], [3, 0.2]]},
        "dictionary": dictionary,
        "coefficients": {"kind": "harmonic"},
        "weakening": {"kind": "constant_t", "t": 1.0},
        "max_steps": 50,
        "outputs": {"trace": str(out), "metadata": str(out) + ".meta.json"}}))
    return str(path)


DENSE_CONFIGS = {
    "finite": {"kind": "finite", "atoms": [[[1, 1.0]], [[2, 1.0], [3, 0.5]]]},
    "augmented": {"kind": "augmented_onb", "e_prime": [1, 2], "extra": [[[1, 0.6], [2, 0.8]]]},
    "pushforward": PUSHED_FINITE,
    "pushed_basis": {"kind": "pushforward", "matrix": [[1.0]], "base": {"kind": "symmetrized_onb"}},
}


def test_without_numpy_the_basis_runs_and_dense_dictionaries_fail_typed(tmp_path):
    basis = run_config(tmp_path / "basis.json", {"kind": "symmetrized_onb"}, tmp_path / "cold.csv")
    dense = [run_config(tmp_path / f"{name}.json", spec, tmp_path / f"{name}.csv")
             for name, spec in DENSE_CONFIGS.items()]
    result = last_json(fresh(BLOCK_NUMPY + textwrap.dedent("""
        import contextlib, io, json
        from greedyexp import (SparseVector, cli, estimate_coherence, make_augmented_onb,
                               make_finite, make_symmetrized_onb, pushforward)
        from greedyexp.errors import GreedyExpansionError

        def main(*argv):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(argv))
            return [code, err.getvalue()]

        out = sys.argv[1]
        codes = [main("run", "--config", sys.argv[2]),
                 main("counterexample", "--t", "0.5", "--groups", "3", "--out", out + "/ce.csv"),
                 main("check", "--trace", out + "/cold.csv"),
                 main("check", "--trace", out + "/ce.csv")]
        dense = [main("run", "--config", path) for path in sys.argv[3:]]
        calls = [lambda: make_finite([SparseVector({1: 1.0})]),
                 lambda: make_augmented_onb([SparseVector({1: 1.0})], [1]),
                 lambda: pushforward(make_symmetrized_onb(), [[1.0]]),
                 lambda: estimate_coherence(make_symmetrized_onb(), 8, 0)]
        raised = []
        for call in calls:
            try:
                call()
                raised.append(None)
            except GreedyExpansionError as exc:
                raised.append([type(exc).__name__, str(exc)])
        print(json.dumps([codes, dense, raised, "numpy" in sys.modules]))
    """), str(tmp_path), basis, *dense))
    codes, dense_runs, raised, numpy_loaded = result
    assert not numpy_loaded
    assert [code for code, _ in codes] == [0, 0, 0, 0]
    # the same trace bytes as with numpy at hand
    assert cli.main(["run", "--config", run_config(tmp_path / "warm.json", {"kind": "symmetrized_onb"},
                                                   tmp_path / "warm.csv")]) == 0
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
    assert cli.main(["counterexample", "--t", "0.5", "--groups", "3",
                     "--out", str(tmp_path / "warm_ce.csv")]) == 0
    assert (tmp_path / "ce.csv").read_bytes() == (tmp_path / "warm_ce.csv").read_bytes()
    for (code, err), path in zip(dense_runs, dense):
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: this needs numpy")
        assert "'dense' extra" in err
    assert None not in raised
    for kind, message in raised:
        assert kind == "GreedyExpansionError" and "'dense' extra" in message


def test_importing_the_cli_loads_neither_numpy_nor_a_process_pool():
    loaded = last_json(fresh("""
        import json, sys
        import greedyexp.cli
        print(json.dumps([m in sys.modules for m in ("numpy", "concurrent.futures.process")]))
    """))
    assert loaded == [False, False]


def test_basis_run_and_counterexample_run_without_numpy(tmp_path):
    out = tmp_path / "ce.csv"
    result = last_json(fresh("""
        import json, sys
        from greedyexp import (ConstantWeakening, Harmonic, SparseVector, cli, make_augmented_onb,
                               make_symmetrized_onb, run)
        target = SparseVector({1: 0.9, 2: -0.4, 3: 0.2})
        steps = [len(run(target, d, Harmonic(), ConstantWeakening(1.0), max_steps=50).steps)
                 for d in (make_symmetrized_onb(), make_augmented_onb([], []))]
        code = cli.main(["counterexample", "--t", "0.5", "--groups", "2", "--out", sys.argv[1]])
        print(json.dumps([steps, code, "numpy" in sys.modules]))
    """, str(out)))
    steps, code, numpy_loaded = result
    assert steps[0] > 0 and steps[0] == steps[1] and code == 0 and not numpy_loaded
    assert out.stat().st_size > 0


def test_pushforward_run_from_a_cold_start_matches_the_same_run_in_process(tmp_path):
    def config(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "target": {"inline": [[1, 0.9], [2, -0.4], [3, 0.2]]},
            "dictionary": PUSHED_FINITE,
            "coefficients": {"kind": "harmonic"},
            "weakening": {"kind": "constant_t", "t": 1.0},
            "max_steps": 50,
            "outputs": {"trace": str(tmp_path / f"{name}.csv"),
                        "metadata": str(tmp_path / f"{name}.meta.json")}}))
        return str(path)

    proc = fresh("""
        import json, sys
        from greedyexp import cli, dictionary_from_config, estimate_coherence
        code = cli.main(["run", "--config", sys.argv[1]])
        estimate = estimate_coherence(dictionary_from_config(json.loads(sys.argv[2])), 64, 7)
        print(json.dumps([code, estimate.value]))
    """, config("cold"), json.dumps(PUSHED_FINITE))
    code, value = last_json(proc)
    assert code == 0
    assert cli.main(["run", "--config", config("warm")]) == 0
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
    assert value == estimate_coherence(dictionary_from_config(PUSHED_FINITE), 64, 7).value


def test_dictionary_pickled_here_answers_in_a_fresh_process():
    dictionary = make_finite([SparseVector({1: 1.0, 2: 0.5}), SparseVector({2: -1.0, 3: 0.25})])
    f = SparseVector({1: 0.3, 2: -0.7, 3: 0.1})
    value, atom = dictionary.sup_inner(f)
    answer = last_json(fresh("""
        import json, pickle, sys
        from greedyexp import SparseVector, atom_id_str
        dictionary = pickle.loads(bytes.fromhex(sys.argv[1]))
        value, atom = dictionary.sup_inner(SparseVector({1: 0.3, 2: -0.7, 3: 0.1}))
        print(json.dumps([value, atom_id_str(atom.id)]))
    """, pickle.dumps(dictionary).hex()))
    assert answer == [value, atom_id_str(atom.id)]


def test_deep_pushforward_chains_load_numpy_at_their_top():
    # a chain of pushforwards reads its matrix before its base, so numpy
    # loads at the top of the chain: a chain close to the recursion limit
    # builds, and one past it raises ConfigInvalidError and leaves numpy whole
    result = last_json(fresh("""
        import json
        from greedyexp import SparseVector, dictionary_from_config, make_finite
        from greedyexp.errors import ConfigInvalidError

        def chain(depth):
            spec = {"kind": "symmetrized_onb"}
            for _ in range(depth):
                spec = {"kind": "pushforward", "base": spec, "matrix": [[1.0]]}
            return spec

        value, atom = dictionary_from_config(chain(300)).sup_inner(SparseVector({2: -3.0}))
        try:
            dictionary_from_config(chain(500))
            deep = None
        except ConfigInvalidError as exc:
            deep = str(exc)
        finite = make_finite([SparseVector({1: 1.0})]).sup_inner(SparseVector({1: 2.0}))[0]
        print(json.dumps([value, atom.id[1:], deep, finite]))
    """))
    assert result == [3.0, [1, 2], "dictionary spec nested too deeply", 2.0]


def test_nested_direct_sums_are_refused_before_a_component_is_built():
    # a nested sum is refused by its kind tag, so a chain of sums around a
    # finite dictionary never builds the finite one, at any depth: numpy
    # stays unloaded, and loads whole for a later finite query
    result = last_json(fresh("""
        import json, sys
        from greedyexp import SparseVector, dictionary_from_config, make_finite
        from greedyexp.errors import ConfigInvalidError

        refused = set()
        for depth in range(300, 1, -1):
            spec = {"kind": "finite", "atoms": [[[1, 1.0]]]}
            for _ in range(depth):
                spec = {"kind": "direct_sum", "components": [spec]}
            try:
                dictionary_from_config(spec)
            except ConfigInvalidError as exc:
                refused.add(str(exc))
        loaded = "numpy" in sys.modules
        finite = make_finite([SparseVector({1: 1.0}), SparseVector({2: 1.0})])
        value = finite.sup_inner(SparseVector({1: 0.5, 2: 0.25}))[0]
        print(json.dumps([sorted(refused), loaded, value]))
    """))
    assert result == [["direct sums cannot be nested"], False, 0.5]


# -- analysis and counterexample load on first use ---------------------------

# what `from greedyexp import *` binds: the expansion path, the two modules
# that load on first use and their names, and the submodules themselves
EXPORTS = [
    "AdversarialPlan", "Atom", "CoherenceEstimate", "ConditionReport", "ConstantWeakening",
    "CounterexampleConfig", "Dictionary", "Explicit", "ExplicitWeakening", "Harmonic", "MaxGreedy",
    "Power", "Scripted", "SparseVector", "Status", "StepRecord", "Trace", "VerificationReport",
    "analysis", "atom_id_str", "build_plan", "build_target", "check_conditions", "choose_k", "core",
    "counterexample", "default_config", "dictionaries", "dictionary_from_config", "direct_sum",
    "engine", "errors", "estimate_coherence", "inner", "make_augmented_onb", "make_finite",
    "make_symmetrized_onb", "norm", "parse_atom_id", "pushforward", "reconstruct",
    "residual_extrema", "run", "run_counterexample", "run_plan", "sequences", "spans_ambient",
    "subtract_scaled", "verify_block_partition", "verify_descent_inequality",
    "verify_energy_identity", "verify_greedy_condition",
]

# loaded() says which of the two lazily loaded modules the process holds
LOADED = """
import contextlib, io, json, sys

def loaded():
    return [name in sys.modules for name in ("greedyexp.analysis", "greedyexp.counterexample")]
"""

PRELUDES = pytest.mark.parametrize("prelude", ["", BLOCK_NUMPY], ids=["numpy", "numpy_blocked"])


def lazy(prelude: str, code: str, *args: str):
    """The last JSON line code prints in a fresh interpreter, after prelude and LOADED."""
    return last_json(fresh(prelude + LOADED + textwrap.dedent(code), *args))


def described(value) -> str:
    """A module's name, or where a class or function is defined."""
    if isinstance(value, types.ModuleType):
        return value.__name__
    return f"{value.__module__}.{value.__qualname__}"


@PRELUDES
def test_importing_the_package_or_the_cli_loads_neither_lazy_module(prelude):
    assert lazy(prelude, """
        import greedyexp
        first = loaded()
        import greedyexp.cli
        print(json.dumps([first, loaded()]))
    """) == [[False, False], [False, False]]


@PRELUDES
def test_each_command_loads_only_the_lazy_module_it_uses(tmp_path, prelude):
    basis = run_config(tmp_path / "basis.json", {"kind": "symmetrized_onb"}, tmp_path / "basis.csv")
    config = json.loads(open(basis).read())
    config["target"] = {"counterexample": {"t": 0.5, "groups": 2}}
    config["outputs"] = {"trace": str(tmp_path / "target.csv"),
                         "metadata": str(tmp_path / "target.meta.json")}
    (tmp_path / "target.json").write_text(json.dumps(config))
    commands = [
        (["run", "--config", basis], [False, False]),
        (["check", "--trace", str(tmp_path / "basis.csv")], [True, False]),
        (["counterexample", "--t", "0.5", "--groups", "3", "--out", str(tmp_path / "ce.csv")],
         [False, True]),
        (["run", "--config", str(tmp_path / "target.json")], [False, True]),
    ]
    for argv, want in commands:
        assert lazy(prelude, """
            from greedyexp import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(sys.argv[1:])
            print(json.dumps([code, loaded()]))
        """, *argv) == [0, want], argv


# the three routes to a name, each run in a fresh interpreter: values maps
# every name in names to what the route bound
ROUTES = {
    "attribute": "values = {name: getattr(greedyexp, name) for name in names}",
    "from": """
        values = {}
        for name in names:
            exec(f"from greedyexp import {name}", values)
        del values["__builtins__"]
    """,
    "star": """
        values = {}
        exec("from greedyexp import *", values)
        del values["__builtins__"]
    """,
}


@PRELUDES
@pytest.mark.parametrize("route", ROUTES)
def test_every_export_resolves_by_attribute_from_import_and_star(prelude, route):
    code = "".join(textwrap.dedent(part) for part in ("""
        import types
        import greedyexp
        names = json.loads(sys.argv[1])
        unlisted, before = sorted(set(names) - set(dir(greedyexp))), loaded()
    """, ROUTES[route], """
        got = {name: value.__name__ if isinstance(value, types.ModuleType)
               else f"{value.__module__}.{value.__qualname__}" for name, value in values.items()}
        print(json.dumps([unlisted, before, got, loaded()]))
    """))
    unlisted, before, got, after = lazy(prelude, code, json.dumps(EXPORTS))
    assert unlisted == [] and before == [False, False]
    assert got == {name: described(getattr(greedyexp, name)) for name in EXPORTS}
    assert after == [True, True]


@PRELUDES
def test_an_unknown_name_raises_attribute_error_and_loads_nothing(prelude):
    assert lazy(prelude, """
        import greedyexp
        try:
            greedyexp.no_such_name
            message = None
        except AttributeError as exc:
            message = str(exc)
        try:
            from greedyexp import no_such_name
            imported = True
        except ImportError:
            imported = False
        print(json.dumps([message, imported, loaded()]))
    """) == ["module 'greedyexp' has no attribute 'no_such_name'", False, [False, False]]


@PRELUDES
def test_a_plan_and_a_report_pickled_here_load_in_a_fresh_process(prelude):
    from greedyexp import build_plan, default_config, run_plan, verify_energy_identity

    plan = build_plan(default_config(0.5, 3))
    report = verify_energy_identity(run_plan(plan))
    data = pickle.dumps([plan, report])
    steps, checks, again, modules = lazy(prelude, """
        import pickle
        plan, report = pickle.loads(bytes.fromhex(sys.argv[1]))
        print(json.dumps([len(plan), report.to_json_obj(), pickle.dumps([plan, report]).hex(),
                          loaded()]))
    """, data.hex())
    assert steps == len(plan) and checks == report.to_json_obj()
    assert bytes.fromhex(again) == data and modules == [True, True]
