import concurrent.futures
import csv
import dataclasses
import json
import math

import pytest

from greedyexp import cli, counterexample, engine
from greedyexp.cli import main

MINIMAL = {
    "target": {"inline": [[1, 1.0]]},
    "dictionary": {"kind": "symmetrized_onb"},
    "coefficients": {"kind": "explicit", "values": [1.0]},
    "weakening": {"kind": "constant_t", "t": 1.0},
    "policy": {"kind": "max_greedy"},
    "max_steps": 10,
}


def write_config(tmp_path, name="config.json", **overrides):
    config = dict(MINIMAL, **overrides)
    config.setdefault("outputs", {
        "trace": str(tmp_path / f"{name}.trace.csv"),
        "metadata": str(tmp_path / f"{name}.meta.json"),
    })
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_minimal_config(tmp_path, capsys):
    path, config = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    rows = read_rows(config["outputs"]["trace"])
    assert len(rows) == 1
    assert rows[0]["atom"] == "+e1" and rows[0]["residual_norm"] == "0"
    meta = json.loads(open(config["outputs"]["metadata"]).read())
    assert meta["status"]["kind"] == "stopped"
    assert meta["final_residual"] == 0.0


def test_run_malformed_dictionary_exits_1(tmp_path, capsys):
    path, _ = write_config(tmp_path, dictionary={"kind": "nope"})
    assert main(["run", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("policy", [
    {"kind": "scripted", "atoms": 5},
    {"kind": "scripted", "atoms": [5]},
    {"kind": "scripted", "atoms": [["e", 0, 3]]},
    {"kind": "max_greedy", "atoms": []},
])
def test_run_malformed_policy_exits_1(tmp_path, capsys, policy):
    path, _ = write_config(tmp_path, policy=policy)
    assert main(["run", "--config", str(path)]) == 1
    assert "policy spec" in capsys.readouterr().err


def test_run_missing_key_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"target": {"inline": [[1, 1.0]]}}))
    assert main(["run", "--config", str(path)]) == 1


@pytest.mark.parametrize("overrides", [
    {"target": {"inline": [[1, math.nan], [2, 0.5]]}},
    {"target": {"inline": [[1, math.inf]]}},
    {"early_exit_threshold": math.nan},
    {"dictionary": {"kind": "finite", "atoms": [[[1, math.nan]]]}},
], ids=["nan_target", "inf_target", "nan_threshold", "nan_atom"])
def test_run_non_finite_input_exits_1(tmp_path, capsys, overrides):
    path, config = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "config.json.trace.csv").exists()


def raw_config(tmp_path, key, text):
    """A config whose value at key is the JSON text given, which json.dumps
    need not be able to write (1e400, say)."""
    path, _ = write_config(tmp_path, **{key: "<raw>"})
    path.write_text(path.read_text().replace('"<raw>"', text))
    return path


@pytest.mark.parametrize("text,message", [
    ("Infinity", "non-finite number Infinity in JSON"),
    ("1e400", "non-finite number 1e400 in JSON"),
    ("1.9", "max_steps must be an integer >= 0, got 1.9"),
    ("true", "max_steps must be an integer >= 0, got True"),
    ("-0.5", "max_steps must be an integer >= 0, got -0.5"),
    ('"10"', "max_steps must be an integer >= 0, got '10'"),
    ("1e5", "max_steps must be an integer >= 0, got 100000.0"),
    ("10.0", "max_steps must be an integer >= 0, got 10.0"),
    ("-1", "max_steps must be an integer >= 0, got -1"),
    ("1" + "0" * 400, "max_steps is an integer too large for a float"),
])
def test_run_max_steps_that_is_no_count_exits_1(tmp_path, capsys, text, message):
    path = raw_config(tmp_path, "max_steps", text)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not (tmp_path / "config.json.trace.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("Infinity", "non-finite number Infinity in JSON"),
    ("-Infinity", "non-finite number -Infinity in JSON"),
    ("NaN", "non-finite number NaN in JSON"),
    ("-1e400", "non-finite number -1e400 in JSON"),
    ('"0.5"', "stop_below must be a real number, not NaN, got '0.5' "
              "(a run config's early_exit_threshold)"),
    ("false", "stop_below must be a real number, not NaN, got False "
              "(a run config's early_exit_threshold)"),
    ("1" + "0" * 400, "stop_below (a run config's early_exit_threshold) is an integer too "
                      "large for a float"),
])
def test_run_threshold_that_is_no_finite_number_exits_1(tmp_path, capsys, text, message):
    path = raw_config(tmp_path, "early_exit_threshold", text)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not (tmp_path / "config.json.trace.csv").exists()


def test_run_target_file_with_a_non_finite_constant_exits_1(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("[[1, 0.5], [2, NaN]]")
    path, _ = write_config(tmp_path, target={"file": str(target)})
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: non-finite number NaN in JSON\n")


@pytest.mark.parametrize("spec,message", [
    ([[1, 1.0]], "target spec must be an object"),
    ({"values": [[1, 1.0]]}, "target spec needs 'inline', 'file' or 'counterexample'"),
    ({"counterexample": {"t": 0.9999999999, "groups": 2}},
     "t=0.9999999999 needs a group parameter k > 10000; give k or a t further from 1"),
    ({"counterexample": {"t": 0.5, "groups": 2.7}}, "num_groups must be an integer, got 2.7"),
    ({"counterexample": {"t": 0.5, "groups": True}}, "num_groups must be an integer, got True"),
    ({"counterexample": {"t": 0.5, "groups": "2"}}, "num_groups must be an integer, got '2'"),
    ({"counterexample": {"t": 0.5, "groups": 1e300}}, "num_groups must be an integer, got 1e+300"),
    ({"counterexample": {"t": 0.5, "groups": 2, "k": 1e300}},
     "group parameter k must be an integer, got 1e+300"),
    ({"counterexample": {"t": "0.5", "groups": 2}},
     "weakening parameter must be a real number, got '0.5'"),
    ({"counterexample": {"t": 0.5, "groups": 1, "k": 10 ** 400}},
     "group parameter k is an integer too large for a float"),
    ({"counterexample": {"t": 0.5, "groups": 10 ** 400}},
     "num_groups is an integer too large for a float"),
    ({"inline": [[1, 0.5], [2, 10 ** 400]]}, "entry 2 is an integer too large for a float"),
], ids=["no_object", "no_source", "t_near_one", "groups_float", "groups_bool", "groups_str",
        "groups_huge_float", "k_huge_float", "t_str", "k_huge_int", "groups_huge_int",
        "inline_huge_int"])
def test_run_bad_target_spec_exits_1(tmp_path, capsys, spec, message):
    path, _ = write_config(tmp_path, target=spec)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("overrides,message", [
    ({"weakening": {"kind": "constant_t", "t": True}}, "t must be a real number, got True"),
    ({"coefficients": {"kind": "harmonic", "scale": True}}, "scale must be a real number, got True"),
    ({"coefficients": {"kind": "power", "alpha": "0.75"}},
     "alpha must be a real number, got '0.75'"),
    ({"coefficients": {"kind": "explicit", "values": [True, "0.5", 0.25]}},
     "values[0] must be a real number, got True"),
    ({"weakening": {"kind": "explicit", "values": [1.0, "0.5"]}},
     "values[1] must be a real number, got '0.5'"),
], ids=["constant_t_bool", "harmonic_bool", "power_str", "explicit_bool", "weakening_str"])
def test_run_sequence_number_that_is_no_number_exits_1(tmp_path, capsys, overrides, message):
    path, _ = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not (tmp_path / "config.json.trace.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_pushforward_whose_matrix_overflows_exits_1_without_a_warning(tmp_path, capsys):
    dictionary = {"kind": "pushforward", "base": {"kind": "symmetrized_onb"}, "matrix": [[1e200]]}
    path, _ = write_config(tmp_path, dictionary=dictionary)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: Q^T Q deviates from identity by inf > 1e-09\n")


def nested(kind, depth):
    """A dictionary spec that wraps the symmetrized basis depth times in kind."""
    spec = {"kind": "symmetrized_onb"}
    for _ in range(depth):
        spec = ({"kind": "pushforward", "base": spec, "matrix": [[1.0]]} if kind == "pushforward"
                else {"kind": "direct_sum", "components": [spec]})
    return spec


@pytest.mark.parametrize("kind, depth", [("pushforward", 500), ("direct_sum", 400)])
def test_run_on_a_dictionary_spec_nested_too_deeply_exits_1(tmp_path, capsys, kind, depth):
    path, _ = write_config(tmp_path, dictionary=nested(kind, depth))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: dictionary spec nested too deeply\n")


DEEP_ID = "b1:" * 3000 + "+e1"


def test_run_with_a_deeply_blocked_plan_id_exits_1(tmp_path, capsys):
    path, _ = write_config(tmp_path, policy={"kind": "scripted", "atoms": [DEEP_ID]})
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: bad policy spec: cannot parse atom id {DEEP_ID!r}\n")


@pytest.mark.parametrize("key", ["trace", "metadata"])
def test_run_unwritable_output_exits_1(tmp_path, capsys, key):
    outputs = {"trace": str(tmp_path / "t.csv"), "metadata": str(tmp_path / "m.json")}
    outputs[key] = str(tmp_path / "missing" / "out")
    path, _ = write_config(tmp_path, outputs=outputs)
    assert main(["run", "--config", str(path)]) == 1
    assert "No such file or directory" in capsys.readouterr().err


def test_run_inadmissible_scripted_plan_exits_2(tmp_path):
    path, config = write_config(
        tmp_path,
        target={"inline": [[1, 0.1], [2, 1.0]]},
        policy={"kind": "scripted", "atoms": ["+e1"]},
        coefficients={"kind": "harmonic"},
    )
    assert main(["run", "--config", str(path)]) == 2
    meta = json.loads(open(config["outputs"]["metadata"]).read())
    assert meta["status"]["kind"] == "aborted"
    assert "NoAdmissibleAtom" in meta["status"]["reason"]


def test_run_counterexample_target_source(tmp_path):
    path, config = write_config(
        tmp_path,
        target={"counterexample": {"t": 0.5, "groups": 2}},
        coefficients={"kind": "harmonic"},
        max_steps=5,
    )
    assert main(["run", "--config", str(path)]) == 0
    assert len(read_rows(config["outputs"]["trace"])) == 5


def test_run_early_exit_metadata(tmp_path):
    path, config = write_config(
        tmp_path,
        target={"inline": [[1, 1.0], [2, 0.5]]},
        coefficients={"kind": "harmonic"},
        max_steps=10000,
        early_exit_threshold=0.25,
    )
    assert main(["run", "--config", str(path)]) == 0
    meta = json.loads(open(config["outputs"]["metadata"]).read())
    assert meta["status"]["kind"] == "exhausted"
    assert meta["truncation_reason"] == "early_exit_threshold"
    assert meta["steps"] < 10000


def test_run_reproducible_byte_identical(tmp_path):
    p1, c1 = write_config(tmp_path, name="a.json", seed=7)
    p2, c2 = write_config(tmp_path, name="b.json", seed=7)
    assert main(["run", "--config", str(p1)]) == 0
    assert main(["run", "--config", str(p2)]) == 0
    b1 = open(c1["outputs"]["trace"], "rb").read()
    b2 = open(c2["outputs"]["trace"], "rb").read()
    assert b1 == b2


def test_seed_env_override(tmp_path, monkeypatch):
    path, config = write_config(tmp_path, seed=7)
    monkeypatch.setenv("GREEDY_SEED", "99")
    assert main(["run", "--config", str(path)]) == 0
    meta = json.loads(open(config["outputs"]["metadata"]).read())
    assert meta["seed"] == 99
    monkeypatch.setenv("GREEDY_SEED", "not-an-int")
    assert main(["run", "--config", str(path)]) == 1


def test_run_then_check_round_trip(tmp_path):
    path, config = write_config(
        tmp_path,
        target={"inline": [[1, 0.9], [2, -0.4], [3, 0.2]]},
        coefficients={"kind": "harmonic"},
        max_steps=500,
    )
    assert main(["run", "--config", str(path)]) == 0
    report_path = tmp_path / "report.json"
    assert main(["check", "--trace", config["outputs"]["trace"],
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == {"energy_identity", "greedy_condition"}


def test_check_tampered_trace_exits_3(tmp_path, capsys):
    path, config = write_config(
        tmp_path,
        target={"inline": [[1, 0.9], [2, -0.4]]},
        coefficients={"kind": "harmonic"},
        max_steps=50,
    )
    assert main(["run", "--config", str(path)]) == 0
    trace_path = config["outputs"]["trace"]
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][6] = str(float(rows[3][6]) + 5e-3)   # forge one residual norm
    with open(trace_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["check", "--trace", trace_path]) == 3
    assert "energy_identity" in capsys.readouterr().err


def test_check_trace_with_nan_exits_3(tmp_path, capsys):
    trace_path = str(tmp_path / "ce.csv")
    assert main(["counterexample", "--t", "0.5", "--groups", "2", "--out", trace_path]) == 0
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][6] = "nan"   # residual_norm of step 5
    rows[6][4] = "nan"   # ip of step 6
    with open(trace_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["check", "--trace", trace_path]) == 3
    err = capsys.readouterr().err
    assert "energy_identity" in err and "greedy_condition" in err


def test_check_json_trace_with_nan_exits_3(tmp_path, capsys):
    # a trace, unlike a config, may hold a non-finite constant: check grades it
    path, config = write_config(tmp_path, **dict(FINITE_2D, max_steps=3))
    assert main(["run", "--config", str(path)]) == 0
    trace = engine.read_trace_csv(config["outputs"]["trace"])
    json_path = str(tmp_path / "trace.json")
    engine.write_trace_json(dataclasses.replace(trace, steps=[
        dataclasses.replace(trace.steps[0], ip=math.nan)] + trace.steps[1:]), json_path)
    assert "NaN" in open(json_path).read()
    assert main(["check", "--trace", json_path]) == 3
    assert "FAIL greedy_condition: worst violation nan at step 1" in capsys.readouterr().out


def test_check_header_only_trace_exits_1(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text(",".join(engine.CSV_HEADER) + "\r\n")
    assert main(["check", "--trace", str(bad)]) == 1
    assert capsys.readouterr() == ("", f"error: trace {bad} has no steps\n")


@pytest.mark.parametrize("atom", ["+e0", "b0:+e1", "b1:b2:+e1", DEEP_ID], ids=lambda a: a[:12])
def test_check_trace_with_an_id_no_dictionary_has_exits_1(tmp_path, capsys, atom):
    path = str(tmp_path / "ce.csv")
    assert main(["counterexample", "--t", "0.5", "--groups", "2", "--out", path]) == 0
    capsys.readouterr()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][engine.CSV_HEADER.index("atom")] = atom
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["check", "--trace", path]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read trace {path}: line 3: cannot parse atom id {atom!r}\n")


def test_check_unreadable_trace_exits_1(tmp_path):
    bad = tmp_path / "junk.csv"
    bad.write_text("not,a,trace\n1,2,3\n")
    assert main(["check", "--trace", str(bad)]) == 1
    assert main(["check", "--trace", str(tmp_path / "missing.csv")]) == 1


@pytest.mark.parametrize("fields", [5, 7, 9], ids=["too_few", "no_block", "too_many"])
def test_check_trace_row_with_wrong_field_count_exits_1(finite_trace, capsys, fields):
    with open(finite_trace, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[4] = (rows[4] + ["1"])[:fields]
    with open(finite_trace, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["check", "--trace", finite_trace]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read trace {finite_trace}: line 5: {fields} fields, want 8\n")


def test_check_trace_skips_blank_lines(finite_trace, capsys):
    with open(finite_trace, newline="") as fh:
        lines = fh.read().split("\r\n")
    with open(finite_trace, "w", newline="") as fh:
        fh.write("\r\n".join(lines[:3] + [""] + lines[3:]) + "\r\n")
    assert main(["check", "--trace", finite_trace]) == 0
    assert capsys.readouterr() == (CHECK_LINES, "")


def test_run_metadata_is_compact_json(tmp_path):
    path, config = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    text = open(config["outputs"]["metadata"]).read()
    meta = json.loads(text)
    assert text == json.dumps(meta)
    assert meta["config"] == config and meta["steps"] == 1


def test_check_blockless_trace_with_block_request_warns_exit_0(tmp_path, capsys):
    path, config = write_config(tmp_path, max_steps=5)
    assert main(["run", "--config", str(path)]) == 0
    code = main(["check", "--trace", config["outputs"]["trace"], "--require-blocks"])
    assert code == 0
    assert "block" in capsys.readouterr().err


def test_check_direct_sum_trace_validates_blocks(tmp_path):
    path, config = write_config(
        tmp_path,
        target={"inline": [[[1, 1], 0.5], [[2, 3], -0.25]]},
        dictionary={"kind": "direct_sum", "components": [
            {"kind": "symmetrized_onb"}, {"kind": "symmetrized_onb"}]},
        coefficients={"kind": "harmonic"},
        max_steps=40,
    )
    assert main(["run", "--config", str(path)]) == 0
    assert main(["check", "--trace", config["outputs"]["trace"]]) == 0


def test_check_descent_advisory(tmp_path, capsys):
    path, config = write_config(
        tmp_path,
        target={"inline": [[1, 5.0], [2, -3.0], [3, 4.0]]},
        dictionary={"kind": "finite", "atoms": [
            [[1, 1.0]], [[2, 1.0]], [[3, 1.0]]]},
        coefficients={"kind": "harmonic"},
        max_steps=2000,
    )
    assert main(["run", "--config", str(path)]) == 0
    code = main(["check", "--trace", config["outputs"]["trace"],
                 "--descent-coherence", str(1 / math.sqrt(3)),
                 "--descent-epsilon", "0.2", "--descent-from-step", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "descent_inequality" in out


def test_counterexample_command(tmp_path):
    out = tmp_path / "ce.csv"
    marks = tmp_path / "ce.marks.json"
    assert main(["counterexample", "--t", "0.5", "--groups", "4", "--out", str(out)]) == 0
    data = json.loads(marks.read_text())
    assert data["k"] == 2 and len(data["marks"]) == 4
    for mark in data["marks"]:
        assert set(mark) == {"group", "subnorm_one_step", "zeroed_step", "residual_at_mark"}
        assert mark["residual_at_mark"] >= 1.0 - 1e-9
    # the emitted trace passes verification at the strict tolerance
    assert main(["check", "--trace", str(out)]) == 0


def test_counterexample_rejects_t_one(tmp_path, capsys):
    assert main(["counterexample", "--t", "1.0", "--groups", "3",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--marks"])
def test_counterexample_unwritable_output_exits_1(tmp_path, capsys, flag):
    paths = {"--out": str(tmp_path / "ce.csv"), "--marks": str(tmp_path / "ce.marks.json")}
    paths[flag] = str(tmp_path / "missing" / "out")
    argv = ["counterexample", "--t", "0.5", "--groups", "2"]
    assert main(argv + [arg for pair in paths.items() for arg in pair]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_check_unwritable_report_exits_1(tmp_path, capsys):
    path, config = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    assert main(["check", "--trace", config["outputs"]["trace"],
                 "--report", str(tmp_path / "missing" / "report.json")]) == 1
    assert "error: " in capsys.readouterr().err


def test_counterexample_mark_that_falls_short_exits_3(tmp_path, capsys, monkeypatch):
    run_plan = counterexample.run_plan

    def cut(plan):
        # the trace ends before the last group's saturation step
        return run_plan(plan, max_steps=plan.marks[-1].subnorm_one_step - 1)

    monkeypatch.setattr(counterexample, "run_plan", cut)
    out = tmp_path / "ce.csv"
    assert main(["counterexample", "--t", "0.5", "--groups", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: some phase marks fell short of residual 1\n"
    marks = json.loads((tmp_path / "ce.marks.json").read_text())["marks"]
    assert marks[0]["residual_at_mark"] >= 1.0 and marks[1]["residual_at_mark"] is None


def test_counterexample_higher_t(tmp_path):
    out = tmp_path / "ce9.csv"
    assert main(["counterexample", "--t", "0.9", "--groups", "3", "--out", str(out)]) == 0
    data = json.loads((tmp_path / "ce9.marks.json").read_text())
    assert len(data["marks"]) == 3 and data["k"] == 12


def test_sweep_runs_all_configs(tmp_path, capsys):
    p1, c1 = write_config(tmp_path, name="s1.json")
    p2, c2 = write_config(tmp_path, name="s2.json",
                          target={"inline": [[2, 0.5]]},
                          coefficients={"kind": "harmonic"}, max_steps=20)
    assert main(["sweep", "--config", str(p1), "--config", str(p2), "--jobs", "2"]) == 0
    assert read_rows(c1["outputs"]["trace"]) and read_rows(c2["outputs"]["trace"])
    assert main(["sweep", "--config", str(p1), "--config", str(p1)]) == 1


def test_sweep_propagates_failure(tmp_path):
    good, _ = write_config(tmp_path, name="good.json")
    bad, _ = write_config(tmp_path, name="bad.json", dictionary={"kind": "nope"})
    assert main(["sweep", "--config", str(good), "--config", str(bad)]) == 1


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus,jobs,expected", [
    (64, None, 2), (None, None, 1), (64, "64", 2),
])
def test_sweep_starts_no_more_workers_than_configs(tmp_path, capsys, monkeypatch,
                                                    cpus, jobs, expected):
    # cmd_sweep imports the executor when it runs, so it finds the stand-in
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    p1, _ = write_config(tmp_path, name="s1.json")
    p2, _ = write_config(tmp_path, name="s2.json")
    argv = ["sweep", "--config", str(p1), "--config", str(p2)]
    assert main(argv + ([] if jobs is None else ["--jobs", jobs])) == 0
    assert InProcessPool.sizes == [expected]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    path, config = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--jobs", jobs]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "config.json.trace.csv").exists()


# exact exit codes and console output of the failures that end in one error line

FINITE_2D = {
    "target": {"inline": [[1, 1.72], [2, 0.72]]},
    "dictionary": {"kind": "finite", "atoms": [[[1, 1.0]], [[2, 1.0]]]},
    "coefficients": {"kind": "harmonic"},
    "max_steps": 50,
}


@pytest.fixture
def finite_trace(tmp_path, capsys):
    path, config = write_config(tmp_path, **FINITE_2D)
    assert main(["run", "--config", str(path)]) == 0
    capsys.readouterr()
    return config["outputs"]["trace"]


@pytest.mark.parametrize("extra,message", [
    (["--groups", "0"], "num_groups must be >= 1"),
    (["--k", "1"], "group parameter k must exceed 1, got 1"),
    (["--t", "0.9999999999", "--groups", "2"],
     "t=0.9999999999 needs a group parameter k > 10000; give k or a t further from 1"),
], ids=["groups_0", "k_1", "t_near_one"])
def test_counterexample_bad_parameters_pinned(tmp_path, capsys, extra, message):
    argv = ["counterexample", "--t", "0.5", "--out", str(tmp_path / "ce.csv")] + extra
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "ce.csv").exists()


@pytest.mark.parametrize("extra,message", [
    (["--descent-coherence", "0"], "coherence estimate must lie in (0, 1], got 0.0"),
    (["--descent-coherence", "1", "--descent-from-step", "51"],
     "no steps at or beyond from_step=51 in a 50-step trace"),
    (["--descent-coherence", "1", "--descent-epsilon", "1", "--descent-from-step", "1"],
     "step 1: c=1, t=1 violate the window condition (need c/t < 1 and c < 1); raise from_step"),
    (["--descent-coherence", "1", "--descent-epsilon", "nan"],
     "epsilon must be finite and > 0, got nan"),
    (["--descent-coherence", "1", "--descent-epsilon", "inf"],
     "epsilon must be finite and > 0, got inf"),
    (["--descent-coherence", "1", "--descent-epsilon", "0"],
     "epsilon must be finite and > 0, got 0.0"),
    (["--descent-coherence", "1", "--descent-epsilon", "-0.5"],
     "epsilon must be finite and > 0, got -0.5"),
], ids=["coherence_0", "from_step_past_end", "window_violation", "epsilon_nan", "epsilon_inf",
        "epsilon_0", "epsilon_negative"])
def test_check_descent_precondition_failures_pinned(finite_trace, tmp_path, capsys, extra,
                                                    message):
    report = tmp_path / "report.json"
    assert main(["check", "--trace", finite_trace, "--report", str(report)] + extra) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not report.exists()


@pytest.mark.parametrize("option,value", [
    ("--energy-tol", "nan"), ("--energy-tol", "inf"), ("--energy-tol", "-1"),
    ("--greedy-tol", "nan"), ("--greedy-tol", "-inf"), ("--greedy-tol", "-1"),
])
def test_check_bad_tolerance_exits_1(finite_trace, tmp_path, capsys, option, value):
    """A NaN tolerance used to fail every check (exit 3) and an infinite one to
    pass every row: both are option errors, whatever the trace holds."""
    report = tmp_path / "report.json"
    argv = ["check", "--trace", finite_trace, "--report", str(report), f"{option}={value}"]
    assert main(argv) == 1
    name = "energy identity" if option == "--energy-tol" else "greedy condition"
    got = float(value)
    assert capsys.readouterr() == (
        "", f"error: {name} tolerance must be finite and >= 0, got {got}\n")
    assert not report.exists()


CHECK_LINES = (
    "ok   energy_identity: worst violation 4.15e-16 at step 31\n"
    "ok   greedy_condition: worst violation 0\n"
)


def test_check_finite_run_output_pinned(finite_trace, capsys):
    assert main(["check", "--trace", finite_trace]) == 0
    assert capsys.readouterr() == (CHECK_LINES, "")


def test_check_finite_run_descent_advisory_output_pinned(finite_trace, tmp_path, capsys):
    # coherence 1 over-estimates the true 1/sqrt(2), so step 2 is flagged
    report = tmp_path / "report.json"
    assert main(["check", "--trace", finite_trace, "--report", str(report),
                 "--descent-coherence", "1", "--descent-epsilon", "1",
                 "--descent-from-step", "2"]) == 0
    assert capsys.readouterr() == (
        CHECK_LINES + "FAIL descent_inequality: worst violation 0.03 at step 2\n",
        "warning: descent inequality violated; the coherence value is an upper bound, "
        "so this is advisory\n")
    descent = json.loads(report.read_text())["checks"][2]
    assert (descent["name"], descent["passed"], descent["step"]) == (
        "descent_inequality", False, 2)


@pytest.mark.parametrize("dictionary", [
    {"kind": "finite", "atoms": 5},
    {"kind": "finite", "atoms": [[[0, 1.0]]]},
    {"kind": "finite", "atoms": [[[1, "x"]]]},
    {"kind": "augmented_onb", "extra": 5, "e_prime": [1]},
    {"kind": "augmented_onb", "extra": [[[0, 1.0]]], "e_prime": [1]},
    {"kind": "augmented_onb", "extra": [[[1, "x"]]], "e_prime": [1]},
    {"kind": "direct_sum", "components": [{"kind": "symmetrized_onb"},
                                          {"kind": "finite", "atoms": 5}]},
    {"kind": "direct_sum", "components": [{"kind": "finite", "atoms": [[[0, 1.0]]]}]},
    {"kind": "direct_sum", "components": [{"kind": "augmented_onb", "extra": [[[1, "x"]]],
                                           "e_prime": [1]}]},
], ids=["finite_not_list", "finite_index_0", "finite_non_numeric",
        "augmented_not_list", "augmented_index_0", "augmented_non_numeric",
        "sum_finite_not_list", "sum_finite_index_0", "sum_augmented_non_numeric"])
def test_run_malformed_atom_list_exits_1(tmp_path, capsys, dictionary):
    path, config = write_config(tmp_path, dictionary=dictionary)
    assert main(["run", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: bad dictionary spec: ") and err.count("\n") == 1
    assert not (tmp_path / "config.json.trace.csv").exists()


@pytest.mark.parametrize("e_prime", [[True], [1.5, 1.0], [0]])
def test_run_e_prime_entry_that_is_no_index_exits_1(tmp_path, capsys, e_prime):
    path, _ = write_config(tmp_path, dictionary={"kind": "augmented_onb", "extra": [[[1, 1.0]]],
                                                 "e_prime": e_prime})
    assert main(["run", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: e_prime[") and err.count("\n") == 1
    assert not (tmp_path / "config.json.trace.csv").exists()
