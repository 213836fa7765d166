"""Malformed traces and extreme but finite values end in a typed error and a
documented exit code, on the library and on the CLI path."""

import csv
import dataclasses
import json
import math

import pytest

from greedyexp.analysis import (
    verify_block_partition,
    verify_descent_inequality,
    verify_energy_identity,
)
from greedyexp.cli import main
from greedyexp.core import SparseVector, norm, norm_or_inf
from greedyexp.counterexample import default_config, run_counterexample
from greedyexp.dictionaries import (
    CoherenceEstimate,
    Scripted,
    direct_sum,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
)
from greedyexp.engine import (
    CSV_HEADER,
    Trace,
    read_trace_csv,
    read_trace_json,
    run,
    write_trace_csv,
    write_trace_json,
)
from greedyexp.errors import ConfigInvalidError, GreedyExpansionError, PreconditionUnmetError
from greedyexp.sequences import ConstantWeakening, Explicit, Harmonic

ONB = make_symmetrized_onb()


def one_error_line(err: str, start: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith(start) and "Traceback" not in err


# ---------------------------------------------------------------------------
# malformed JSON traces
# ---------------------------------------------------------------------------


def json_trace(tmp_path, edit):
    """A counterexample trace as written by write_trace_json, edited in its
    JSON form by edit(obj), which may return a replacement object."""
    path = tmp_path / "trace.json"
    write_trace_json(run_counterexample(default_config(0.5, 2)), str(path))
    obj = json.loads(path.read_text())
    obj = edit(obj) or obj
    path.write_text(json.dumps(obj))
    return str(path)


def null_c(obj):
    obj["steps"][2]["c"] = None


def steps_as_lists(obj):
    obj["steps"] = [[step[k] for k in CSV_HEADER] for step in obj["steps"]]


def string_initial_norm(obj):
    obj["initial_norm"] = "x"


MALFORMED_JSON = {
    "null_c": (null_c, "step 3: could not convert string to float: ''"),
    "top_level_list": (lambda obj: [1, 2], "a JSON trace is an object whose steps are objects"),
    "string_initial_norm": (string_initial_norm, "bad initial_norm, max_steps or status"),
    "steps_as_lists": (steps_as_lists, "a JSON trace is an object whose steps are objects"),
    "string_c": (lambda obj: obj["steps"][0].update(c="0.5"), "step 1: could not convert"),
    "float_m": (lambda obj: obj["steps"][1].update(m=2.5), "step 2: invalid literal for int()"),
    "bool_t": (lambda obj: obj["steps"][0].update(t=True), "step 1: could not convert"),
    "numeric_atom": (lambda obj: obj["steps"][0].update(atom=5), "step 1:"),
    "bad_status": (lambda obj: obj.update(status={"kind": "stopped", "x": 1}),
                   "bad initial_norm, max_steps or status"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_read_trace_json_rejects_what_the_writer_cannot_write(tmp_path, case):
    edit, message = MALFORMED_JSON[case]
    path = json_trace(tmp_path, edit)
    with pytest.raises(GreedyExpansionError) as info:
        read_trace_json(path)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_check_malformed_json_trace_exits_1(tmp_path, capsys, case):
    edit, message = MALFORMED_JSON[case]
    path = json_trace(tmp_path, edit)
    code = main(["check", "--trace", path])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert one_error_line(err, f"error: cannot read trace {path}: {message}")


def test_json_steps_read_by_the_csv_rules(tmp_path):
    # a JSON trace and its CSV twin decode to the same records; a step without
    # a block key, or with a null one, has no block
    trace = run(SparseVector({(1, 1): 0.5, (2, 3): -0.25}),
                direct_sum([ONB, ONB]), Harmonic(), ConstantWeakening(1.0), max_steps=40)
    write_trace_json(trace, str(tmp_path / "t.json"))
    write_trace_csv(trace, str(tmp_path / "t.csv"))
    from_json = read_trace_json(str(tmp_path / "t.json"))
    assert from_json.steps == read_trace_csv(str(tmp_path / "t.csv")).steps
    assert [r.block for r in from_json.steps] == [r.block for r in trace.steps]
    assert from_json.steps[0].atom is not trace.steps[0].atom
    obj = json.loads((tmp_path / "t.json").read_text())
    for step in obj["steps"]:
        del step["block"]
    obj["steps"][0]["block"] = None
    (tmp_path / "t.json").write_text(json.dumps(obj))
    assert all(r.block is None for r in read_trace_json(str(tmp_path / "t.json")).steps)


def test_json_atoms_share_one_empty_vector_per_id(tmp_path):
    path = json_trace(tmp_path, lambda obj: None)
    by_id = {}
    for r in read_trace_json(path).steps:
        assert by_id.setdefault(r.atom.id, r.atom) is r.atom
        assert r.atom.vector.is_zero()


def test_json_block_zero_is_a_block(tmp_path):
    # the block field is read as written, apart from the atom id: "0" is
    # block 0, not an empty one
    def block_zero(obj):
        obj["steps"][0].update(atom="b1:+e1", block=0)
    assert read_trace_json(json_trace(tmp_path, block_zero)).steps[0].block == 0


# ---------------------------------------------------------------------------
# extreme but finite values in a trace
# ---------------------------------------------------------------------------


def counterexample_csv(tmp_path, capsys, row, column, value):
    path = str(tmp_path / "ce.csv")
    assert main(["counterexample", "--t", "0.5", "--groups", "2", "--out", path]) == 0
    capsys.readouterr()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][CSV_HEADER.index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


# a square of 1e300 is inf: the violation at the step whose square sum it
# enters, as the new residual (step 3) or the entering one (step 4), is NaN
HUGE_VALUE_STEP = {"residual_norm": 4, "c": 3}


@pytest.mark.parametrize("column", sorted(HUGE_VALUE_STEP))
def test_energy_identity_fails_on_a_huge_value(column):
    trace = run_counterexample(default_config(0.5, 2))
    trace.steps[2] = dataclasses.replace(trace.steps[2], **{column: 1e300})
    check = verify_energy_identity(trace).checks[0]
    assert not check.passed and check.step == HUGE_VALUE_STEP[column]
    assert math.isnan(check.worst_violation)


@pytest.mark.parametrize("column", sorted(HUGE_VALUE_STEP))
def test_check_huge_value_exits_3(tmp_path, capsys, column):
    path = counterexample_csv(tmp_path, capsys, 3, column, "1e300")
    code = main(["check", "--trace", path])
    out, err = capsys.readouterr()
    assert code == 3
    assert f"FAIL energy_identity: worst violation nan at step {HUGE_VALUE_STEP[column]}" in out
    assert one_error_line(err, "error: failed checks: energy_identity")


def test_descent_inequality_fails_on_a_huge_residual():
    trace = run_counterexample(default_config(0.5, 2))
    for i in (2, 3):
        trace.steps[i] = dataclasses.replace(trace.steps[i], residual_norm=1e300)
    check = verify_descent_inequality(trace, CoherenceEstimate(1.0, 1, 0), 10.0, 1).checks[0]
    assert not check.passed and check.step == 4 and math.isnan(check.worst_violation)


@pytest.mark.parametrize("t", [0.0, -0.5])
def test_descent_window_needs_positive_t(t):
    trace = run_counterexample(default_config(0.5, 2))
    trace.steps[2] = dataclasses.replace(trace.steps[2], t=t)
    with pytest.raises(PreconditionUnmetError, match="step 3: .* violate the window condition"):
        verify_descent_inequality(trace, CoherenceEstimate(1.0, 1, 0), 1e9, 1)


def test_check_descent_with_t_zero_exits_1(tmp_path, capsys):
    path = counterexample_csv(tmp_path, capsys, 3, "t", "0")
    code = main(["check", "--trace", path, "--descent-coherence", "1",
                 "--descent-epsilon", "1e9"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert one_error_line(err, "error: step 3: c=")


# ---------------------------------------------------------------------------
# runs whose norms leave the float range
# ---------------------------------------------------------------------------


OVERFLOWING_TARGET = [[1, 1e154], [2, 1e154]]
EXPLICIT_HUGE = dict(target=[[1, 0.5], [2, -0.25]], coefficients=[1e200, 1, 1], t=1.0,
                     policy=None)
SCRIPTED_HUGE = dict(target=[[1, 0.5], [2, 1e154]], coefficients=[1e154], t=1e-160,
                     policy=["+e1"])


def test_norm_or_inf_is_the_norm_or_inf_where_it_overflows():
    v = SparseVector.from_json(OVERFLOWING_TARGET)
    with pytest.raises(OverflowError):
        norm(v)
    assert norm_or_inf(v) == math.inf
    w = SparseVector({1: 3.0, 2: 4.0})
    assert norm_or_inf(w) == norm(w) == 5.0


def test_run_rejects_an_overflowing_target_norm():
    with pytest.raises(OverflowError):
        SparseVector.from_json(OVERFLOWING_TARGET).norm()
    with pytest.raises(ConfigInvalidError, match="target norm must be finite, got inf"):
        run(SparseVector.from_json(OVERFLOWING_TARGET), ONB, Harmonic(),
            ConstantWeakening(1.0), max_steps=5)


@pytest.mark.parametrize("case", [EXPLICIT_HUGE, SCRIPTED_HUGE], ids=["explicit", "scripted"])
def test_run_aborts_on_a_non_finite_residual(case):
    policy = None if case["policy"] is None else Scripted(case["policy"])
    trace = run(SparseVector.from_json(case["target"]), ONB, Explicit(case["coefficients"]),
                ConstantWeakening(case["t"]), policy=policy, max_steps=3)
    assert (trace.status.kind, trace.status.step) == ("aborted", 1)
    assert trace.status.reason == "residual norm inf is not finite"
    assert trace.steps == []


def run_config(tmp_path, target, coefficients=None, t=1.0, policy=None):
    config = {
        "target": {"inline": target},
        "dictionary": {"kind": "symmetrized_onb"},
        "coefficients": ({"kind": "harmonic"} if coefficients is None
                         else {"kind": "explicit", "values": coefficients}),
        "weakening": {"kind": "constant_t", "t": t},
        "max_steps": 3,
        "outputs": {"trace": str(tmp_path / "trace.csv"),
                    "metadata": str(tmp_path / "meta.json")},
    }
    if policy is not None:
        config["policy"] = {"kind": "scripted", "atoms": policy}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_cli_run_overflowing_target_exits_1(tmp_path, capsys):
    path = run_config(tmp_path, OVERFLOWING_TARGET)
    code = main(["run", "--config", path])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert one_error_line(err, f"error: {path}: target norm must be finite, got inf")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("case", [EXPLICIT_HUGE, SCRIPTED_HUGE], ids=["explicit", "scripted"])
def test_cli_run_non_finite_residual_exits_2(tmp_path, capsys, case):
    path = run_config(tmp_path, case["target"], case["coefficients"], case["t"], case["policy"])
    assert main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out.startswith(f"{path}: aborted after 0 steps") and err == ""
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["status"] == {"kind": "aborted", "step": 1,
                              "reason": "residual norm inf is not finite"}
    assert read_trace_csv(str(tmp_path / "trace.csv")).steps == []


# ---------------------------------------------------------------------------
# block partition
# ---------------------------------------------------------------------------


def test_block_partition_reports_the_first_bad_step_of_a_mixed_trace():
    trace = run(SparseVector({(1, 1): 0.5, (1, 2): 0.25}),
                direct_sum([ONB]), Harmonic(), ConstantWeakening(1.0), max_steps=6)
    steps = list(trace.steps)
    for i in (2, 4):
        steps[i] = dataclasses.replace(steps[i], block=None)
    check = verify_block_partition(Trace(steps)).checks[0]
    assert (check.passed, check.worst_violation, check.step) == (False, 1.0, 3)
    assert check.applicable_steps == len(steps)
    ok = verify_block_partition(trace).checks[0]
    assert (ok.passed, ok.worst_violation, ok.step) == (True, 0.0, None)


# ---------------------------------------------------------------------------
# documents past the parsers' limits
# ---------------------------------------------------------------------------

DEEP_JSON = "[" * 100_000 + "]" * 100_000
DEEP_MESSAGE = "JSON nested too deeply"
# one header field longer than the csv module's field limit of 131 072 characters
LONG_HEADER = "m" * 200_000 + "\r\n1,+e1,1,1,1,1,0,\r\n"
LONG_MESSAGE = "line 1: field larger than field limit"


def test_read_trace_json_rejects_a_deeply_nested_document(tmp_path):
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    with pytest.raises(GreedyExpansionError, match=f"^{DEEP_MESSAGE}"):
        read_trace_json(str(tmp_path / "deep.json"))


def test_read_trace_csv_rejects_an_oversized_header(tmp_path):
    (tmp_path / "long.csv").write_text(LONG_HEADER)
    with pytest.raises(GreedyExpansionError, match=f"^{LONG_MESSAGE}"):
        read_trace_csv(str(tmp_path / "long.csv"))


@pytest.mark.parametrize("name,text,message", [
    ("deep.json", DEEP_JSON, DEEP_MESSAGE), ("long.csv", LONG_HEADER, LONG_MESSAGE)],
    ids=["deep_json", "long_header"])
def test_check_trace_past_the_parser_limits_exits_1(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    code = main(["check", "--trace", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert one_error_line(err, f"error: cannot read trace {path}: {message}")


def test_cli_run_deeply_nested_config_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code = main(["run", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert one_error_line(err, f"error: {path}: {DEEP_MESSAGE}")


def test_cli_run_deeply_nested_target_file_exits_1(tmp_path, capsys):
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    path = run_config(tmp_path, [[1, 0.5]])
    config = json.loads(open(path).read())
    config["target"] = {"file": str(tmp_path / "deep.json")}
    with open(path, "w") as fh:
        json.dump(config, fh)
    code = main(["run", "--config", path])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert one_error_line(err, f"error: {path}: {DEEP_MESSAGE}")


def test_sweep_deeply_nested_config_exits_1(tmp_path, capsys):
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    good = run_config(tmp_path, [[1, 0.5]])
    deep = str(tmp_path / "deep.json")
    assert main(["sweep", "--config", good, "--config", deep, "--jobs", "1"]) == 1
    out = capsys.readouterr().out
    assert f"ok   {good} (exit 0)" in out and f"FAIL {deep} (exit 1)" in out


# ---------------------------------------------------------------------------
# atoms and coordinate indices outside the accepted range
# ---------------------------------------------------------------------------


OVERFLOWING_ATOM = [[1, 1e154], [2, 1e154]]


@pytest.mark.parametrize("build", [
    lambda v: make_finite([v]),
    lambda v: make_augmented_onb([v], [1, 2]),
], ids=["finite", "augmented"])
def test_an_atom_whose_norm_overflows_is_rejected(build):
    with pytest.raises(ConfigInvalidError, match=r"\[0\]: atom norm inf is not finite"):
        build(SparseVector.from_json(OVERFLOWING_ATOM))


def config_file(tmp_path, target, dictionary):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "target": {"inline": target},
        "dictionary": dictionary,
        "coefficients": {"kind": "harmonic"},
        "weakening": {"kind": "constant_t", "t": 1.0},
        "max_steps": 3,
        "outputs": {"trace": str(tmp_path / "trace.csv"),
                    "metadata": str(tmp_path / "meta.json")},
    }))
    return str(path)


@pytest.mark.parametrize("dictionary", [
    {"kind": "finite", "atoms": [OVERFLOWING_ATOM]},
    {"kind": "augmented_onb", "extra": [OVERFLOWING_ATOM], "e_prime": [1, 2]},
], ids=["finite", "augmented"])
def test_cli_run_overflowing_atom_exits_1(tmp_path, capsys, dictionary):
    path = config_file(tmp_path, [[1, 0.5]], dictionary)
    code = main(["run", "--config", path])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert one_error_line(err, f"error: {path}: ")
    assert "atom norm inf is not finite" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("index", [[True, 1], [1, True]])
def test_cli_run_bool_in_a_block_index_exits_1(tmp_path, capsys, index):
    dictionary = {"kind": "direct_sum", "components": [{"kind": "symmetrized_onb"}]}
    path = config_file(tmp_path, [[index, 0.5]], dictionary)
    code = main(["run", "--config", path])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert one_error_line(err, f"error: {path}: ")
    assert "coordinate index must be an int or (block, inner) pair" in err
    assert not (tmp_path / "trace.csv").exists()
