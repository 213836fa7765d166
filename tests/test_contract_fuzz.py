"""The exit-code contract under mutated input: every in-process ``cli.main``
returns 0-3, raises nothing and prints no traceback.

Run configs start from the README schema and take up to three mutations each:
a value replaced, a key or list item deleted, or an unknown key added. Trace
files start from the bytes of a sound CSV or JSON trace and take byte-level
edits; ``check`` gets random flags. Generators keep every size small (the
replacements for ``max_steps``, ``groups`` and ``k`` are small integers or no
integer at all: bools, numeric strings, 1.9 or 1e300, or one too large for a
float), so each example runs in milliseconds. The metadata of every run that exits 0 must be strict JSON, and
a run config may raise no RuntimeWarning.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyexp.cli import main
from greedyexp.core import SparseVector
from greedyexp.dictionaries import direct_sum, make_finite, make_symmetrized_onb
from greedyexp.engine import run, write_trace_csv, write_trace_json
from greedyexp.sequences import ConstantWeakening, Harmonic

FUZZ = settings(max_examples=1500, deadline=None, derandomize=True, database=None)

ROTATION = [[0.6, 0.8], [-0.8, 0.6]]
BASE_CONFIGS = [
    {"target": {"inline": [[1, 0.9], [2, -0.4], [3, 0.2]]},
     "dictionary": {"kind": "symmetrized_onb"},
     "coefficients": {"kind": "harmonic", "scale": 1.0},
     "weakening": {"kind": "constant_t", "t": 1.0},
     "policy": {"kind": "max_greedy"},
     "max_steps": 20, "early_exit_threshold": 0.05, "seed": 0},
    {"target": {"inline": [[1, 0.5], [2, -0.25]]},
     "dictionary": {"kind": "finite", "atoms": [[[1, 0.6], [2, 0.8]], [[2, 1.0]]]},
     "coefficients": {"kind": "power", "alpha": 0.8, "scale": 1.0},
     "weakening": {"kind": "explicit", "values": [0.9, 0.8, 0.7, 0.6]},
     "max_steps": 4},
    {"target": {"inline": [[[1, 1], 0.5], [[2, 3], -0.25]]},
     "dictionary": {"kind": "direct_sum", "components": [
         {"kind": "augmented_onb", "e_prime": [1, 2], "extra": [[[1, 0.6], [2, 0.8]]]},
         {"kind": "pushforward", "base": {"kind": "symmetrized_onb"}, "matrix": ROTATION}]},
     "coefficients": {"kind": "explicit", "values": [0.5, 0.25, 0.125]},
     "weakening": {"kind": "constant_t", "t": 0.5},
     "max_steps": 3},
    {"target": {"counterexample": {"t": 0.5, "groups": 2, "k": 2}},
     "dictionary": {"kind": "symmetrized_onb"},
     "coefficients": {"kind": "explicit", "values": [0.25, 0.25, 0.125]},
     "weakening": {"kind": "constant_t", "t": 0.1},
     "policy": {"kind": "scripted", "atoms": ["+e1", "+e2", "+e3"]},
     "max_steps": 3},
]

# keys whose integer value is a requested size: their replacements stay small
SIZE_KEYS = {"max_steps", "groups", "k"}
# a string replacement that is written into the JSON text as this literal,
# which json.dumps cannot produce from a float
RAW = {"<1e400>": "1e400", "<-1e400>": "-1e400", "<1e-400>": "1e-400"}
# an integer literal of 401 digits: a JSON int, which float() cannot hold
BIG_INT = 10 ** 400
ODD_SCALARS = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2, 0.0, -0.0, 0.5, 1.9, -0.5, 1e308,
                     5e-324, float("nan"), float("inf"), float("-inf"), 2 ** 63, -2 ** 63,
                     BIG_INT, "", "x", "10", "+e1", "b1:+e1", "y0", "nan", *RAW]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ODD_VALUES = st.recursive(ODD_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["kind", "t", "x"]), inner,
                                                 max_size=2)), max_leaves=4)
SMALL_SIZES = st.one_of(st.integers(-2, 6), st.sampled_from(
    [None, True, False, 0.0, 1.9, -0.5, 2.5, 2.0, 1e300, BIG_INT, float("nan"), float("inf"), "",
     "x", "2", "10", *RAW]))


def _paths(obj, prefix=()):
    """Every path into obj below the root, outputs excluded: a fuzzed output
    path could write outside the example's directory."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        if key != "outputs":
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


def _parent(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


@st.composite
def mutated_configs(draw):
    config = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(config))
        path = draw(st.sampled_from(paths)) if paths else ("x",)
        parent = _parent(config, path)
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "delete":
            del parent[path[-1]]
        elif op == "add" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["x", "kind", "file", "values"]))] = draw(ODD_VALUES)
        else:
            parent[path[-1]] = draw(SMALL_SIZES if path[-1] in SIZE_KEYS else ODD_VALUES)
    return config


def _strict(text):
    raise AssertionError(f"metadata holds the non-strict JSON constant {text}")


def _main(argv):
    """main(argv) with its output captured: (exit code, stdout + stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def _assert_contract(code, output):
    assert code in (0, 1, 2, 3), (code, output)
    assert "Traceback" not in output, output


def _run_config(config):
    """cli.main's run on config, written as JSON into a temporary directory; the
    exit code contract must hold and a run that exits 0 writes strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        meta = os.path.join(tmp, "meta.json")
        config["outputs"] = {"trace": os.path.join(tmp, "trace.csv"), "metadata": meta}
        text = json.dumps(config)
        for marker, literal in RAW.items():
            text = text.replace(json.dumps(marker), literal)
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            fh.write(text)
        code, output = _main(["run", "--config", path])
        _assert_contract(code, output)
        if code == 0:
            with open(meta) as fh:
                json.loads(fh.read(), parse_constant=_strict)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(mutated_configs())
def test_run_config_mutations_keep_the_exit_code_contract(config):
    _run_config(config)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,path", [(n, path) for n, base in enumerate(BASE_CONFIGS)
                                    for path in _paths(base)])
def test_an_integer_too_large_for_a_float_anywhere_keeps_the_exit_code_contract(n, path):
    # one by one, every value of every base config becomes BIG_INT: a size, a
    # threshold or a parameter may then neither raise OverflowError nor run
    # without end
    config = copy.deepcopy(BASE_CONFIGS[n])
    _parent(config, path)[path[-1]] = BIG_INT
    _run_config(config)


@pytest.mark.parametrize("kind, times", [("pushforward", 500), ("direct_sum", 250)])
@pytest.mark.parametrize("n", range(len(BASE_CONFIGS)))
def test_a_dictionary_spec_nested_500_deep_keeps_the_exit_code_contract(n, kind, times):
    # each base config's dictionary spec 500 JSON levels deep: the base of a
    # pushforward 500 times over, or the one component of a direct sum (an
    # object and a list) 250 times over
    config = copy.deepcopy(BASE_CONFIGS[n])
    for _ in range(times):
        config["dictionary"] = (
            {"kind": "pushforward", "base": config["dictionary"], "matrix": [[1.0]]}
            if kind == "pushforward" else {"kind": "direct_sum", "components": [config["dictionary"]]})
    _run_config(config)


def test_base_configs_run_and_write_strict_metadata(tmp_path):
    for n, base in enumerate(BASE_CONFIGS):
        meta = tmp_path / f"{n}.meta.json"
        config = dict(base, outputs={"trace": str(tmp_path / f"{n}.csv"), "metadata": str(meta)})
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 0
        json.loads(meta.read_text(), parse_constant=_strict)


def _sound_traces():
    """The bytes of one sound CSV trace with a block column and of one JSON trace."""
    target = SparseVector({(1, 1): 0.9, (1, 2): -0.4, (2, 1): 0.3})
    dictionary = direct_sum([make_symmetrized_onb(), make_finite([SparseVector({1: 0.6, 2: 0.8})])])
    trace = run(target, dictionary, Harmonic(), ConstantWeakening(1.0), max_steps=6)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = os.path.join(tmp, "t.csv"), os.path.join(tmp, "t.json")
        write_trace_csv(trace, csv_path)
        write_trace_json(trace, json_path)
        with open(csv_path, "rb") as fh, open(json_path, "rb") as gh:
            return {".csv": fh.read(), ".json": gh.read()}


SOUND = _sound_traces()
TOKENS = [b",", b"\r\n", b"\n", b"\"", b"{", b"]", b"null", b"nan", b"-inf", b"Infinity",
          b"1e400", b"-0", b"99999999999999999999", b"b0:+e1", b"b1:y0", b"-e0", b"\xff", b"\x00"]
EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                           st.floats(0.0, 1.0, exclude_max=True),
                           st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=3))),
                 max_size=4)
FLOAT_ARGS = st.sampled_from(["0", "1e-10", "1", "-1", "nan", "inf", "-inf", "1e308", "5e-324"])
CHECK_FLAGS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["--energy-tol", "--greedy-tol", "--descent-epsilon"]), FLOAT_ARGS),
    st.tuples(st.just("--descent-coherence"),
              st.sampled_from(["0.5", "1", "0", "2", "nan", "inf", "-1", "1e-300"])),
    st.tuples(st.just("--descent-from-step"), st.sampled_from(["1", "0", "-5", "3", "1000000"])),
    st.tuples(st.just("--report"), st.sampled_from(["report.json", "missing/report.json"])),
    st.tuples(st.just("--require-blocks")),
), max_size=4)


@FUZZ
@given(st.sampled_from(sorted(SOUND)), EDITS, CHECK_FLAGS)
def test_check_on_mutated_traces_keeps_the_exit_code_contract(suffix, edits, flags):
    data = SOUND[suffix]
    for op, where, payload in edits:
        at = int(where * (len(data) + 1))
        if op == "insert":
            data = data[:at] + payload + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + len(payload):]
        else:
            data = data[:at] + payload + data[at + len(payload):]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        argv = ["check", "--trace", path]
        for flag, *value in flags:
            if flag == "--report":
                value = [os.path.join(tmp, value[0])]
            # --flag=value, since argparse reads a separate "-inf" as an option
            argv.append(f"{flag}={value[0]}" if value else flag)
        _assert_contract(*_main(argv))


@pytest.mark.parametrize("t", ["0.5", "0.9", "0.3", "nan", "inf", "0", "1", "-0.5", "1e-300",
                               "0.9999999999", "0.83"])
@settings(FUZZ, max_examples=15)
@given(st.integers(-1, 3), st.one_of(st.none(), st.integers(0, 14)))
def test_counterexample_arguments_keep_the_exit_code_contract(t, groups, k):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["counterexample", "--t", t, "--groups", str(groups),
                "--out", os.path.join(tmp, "ce.csv")]
        if k is not None:
            argv += ["--k", str(k)]
        _assert_contract(*_main(argv))
