import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

import greedyexp.core as core
import greedyexp.dictionaries as dictionaries
import greedyexp.engine as engine
from greedyexp.core import SparseVector, norm, subtract_scaled
from greedyexp.counterexample import build_plan, default_config, run_plan
from greedyexp.dictionaries import (
    Atom,
    MaxGreedy,
    Scripted,
    direct_sum,
    make_finite,
    make_symmetrized_onb,
)
from greedyexp.engine import (
    CSV_HEADER,
    Status,
    StepRecord,
    Trace,
    read_trace_csv,
    read_trace_json,
    reconstruct,
    run,
    write_trace_csv,
    write_trace_json,
)
from greedyexp.errors import ConfigInvalidError, PreconditionUnmetError
from greedyexp.sequences import ConstantWeakening, Explicit, Harmonic, Power


def dense(values, offset=0):
    return SparseVector({i + 1 + offset: float(v) for i, v in enumerate(values) if v != 0})


ONB = make_symmetrized_onb()
T1 = ConstantWeakening(1.0)


def random_run(seed, steps=300):
    """A randomized finite-dictionary run for invariant checks."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 9))
    atoms = [dense(r) for r in rng.standard_normal((2 * d, d))]
    target = dense(rng.standard_normal(d) * rng.uniform(0.5, 4.0))
    coeff = Harmonic() if seed % 2 else Power(0.8)
    tau = T1 if seed % 3 else ConstantWeakening(0.7)
    return run(target, make_finite(atoms), coeff, tau, max_steps=steps)


def test_single_step_annihilation():
    trace = run(dense([1]), ONB, Explicit([1.0]), T1, max_steps=10)
    assert trace.status.kind == "stopped" and trace.status.step == 2
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.atom.id == ("e", 0, 1)
    assert step.residual_norm == 0.0
    assert (step.ip, step.sup) == (1.0, 1.0)


def test_two_step_stop():
    trace = run(SparseVector({1: 0.75}), ONB, Explicit([0.5, 0.25]), T1, max_steps=10)
    assert [r.residual_norm for r in trace.steps] == [0.25, 0.0]
    assert [r.atom.id for r in trace.steps] == [("e", 0, 1)] * 2
    assert trace.status.kind == "stopped" and trace.status.step == 3


def test_incomplete_dictionary_residual_tends_to_one():
    # e2 is orthogonal to every atom of {+-e1}: its unit of energy never moves
    trace = run(dense([1, 1]), make_finite([dense([1])]), Harmonic(), T1, max_steps=1000)
    assert trace.status.kind == "exhausted"
    assert all(r.residual_norm >= 1.0 - 1e-12 for r in trace.steps)
    assert trace.steps[-1].residual_norm == pytest.approx(1.0, abs=1e-5)


def test_zero_max_steps():
    trace = run(dense([1]), ONB, Harmonic(), T1, max_steps=0)
    assert trace.steps == [] and trace.status.kind == "exhausted"
    with pytest.raises(ConfigInvalidError):
        run(dense([1]), ONB, Harmonic(), T1, max_steps=-1)


def test_reconstruct_empty_trace_is_zero():
    assert reconstruct(Trace()).is_zero()


def test_reconstruct_two_step():
    trace = run(SparseVector({1: 0.75}), ONB, Explicit([0.5, 0.25]), T1, max_steps=10)
    assert reconstruct(trace) == SparseVector({1: 0.75})


def test_reconstruct_matches_final_residual():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        target = dense(rng.standard_normal(5))
        trace = run(target, ONB, Harmonic(), T1, max_steps=200)
        approx = reconstruct(trace)
        assert norm(subtract_scaled(target, 1.0, approx)) == pytest.approx(
            trace.steps[-1].residual_norm, abs=1e-9)


@pytest.mark.parametrize("writer,reader", [(write_trace_csv, read_trace_csv),
                                           (write_trace_json, read_trace_json)],
                         ids=["csv", "json"])
def test_reconstruct_rejects_a_trace_read_back_from_disk(tmp_path, writer, reader):
    # serialized traces keep atom ids only, so there is nothing to sum
    trace = run(SparseVector({1: 0.75}), ONB, Explicit([0.5, 0.25]), T1, max_steps=10)
    path = str(tmp_path / "trace")
    writer(trace, path)
    with pytest.raises(PreconditionUnmetError, match="step 1"):
        reconstruct(reader(path))


def test_run_leaves_the_target_untouched():
    target = dense(np.arange(1.0, 40.0))
    blocked = SparseVector({(1 + i % 2, i): float(i) for i in range(1, 40)})
    finite = make_finite([dense([1, 2]), dense([0, 1])])
    for f, dictionary in ((target, ONB), (target, finite), (blocked, direct_sum([ONB, finite]))):
        trace = run(f, dictionary, Harmonic(), T1, max_steps=30)
        assert len(trace.steps) == 30
        assert f._square_sum is None and f._heap is None and f._blocks is None
    assert target == dense(np.arange(1.0, 40.0))
    assert blocked == SparseVector({(1 + i % 2, i): float(i) for i in range(1, 40)})


def test_admissibility_and_energy_identity_hold():
    for seed in range(8):
        trace = random_run(seed)
        prev = trace.initial_norm
        for r in trace.steps:
            assert r.ip >= r.t * r.sup - 1e-12
            lhs = r.residual_norm ** 2
            rhs = prev ** 2 - 2 * r.c * r.ip + r.c ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, prev ** 2)
            prev = r.residual_norm


def test_strict_descent_when_coefficient_small():
    # with t = 1 and max-greedy, the norm strictly drops whenever c < 2*ip
    trace = run(dense([0.9, -0.4, 0.2]), ONB, Harmonic(0.5), T1, max_steps=400)
    prev = trace.initial_norm
    for r in trace.steps:
        if 0 < r.c < 2 * r.ip:
            assert r.residual_norm < prev
        prev = r.residual_norm


def test_aborts_when_explicit_coefficients_exhausted():
    trace = run(dense([1, 2]), ONB, Explicit([0.25]), T1, max_steps=10)
    assert trace.status.kind == "aborted" and trace.status.step == 2
    assert "IndexPastEnd" in trace.status.reason
    assert len(trace.steps) == 1


def test_aborts_on_inadmissible_scripted_atom():
    trace = run(dense([0.1, 1.0]), ONB, Harmonic(), ConstantWeakening(0.9),
                policy=Scripted(["+e1"]), max_steps=10)
    assert trace.status.kind == "aborted"
    assert "NoAdmissibleAtom" in trace.status.reason


class Negated:
    """A user policy that plays the negation of the witness, so ip = -sup."""

    def choose(self, step, dictionary, f, t, sup, witness):
        aid = witness.id
        return dictionary.realize(("e", 1 - aid[1], aid[2]) if aid[0] == "e" else ("y", aid[1] ^ 1))


@pytest.mark.parametrize("d,reason", [
    (ONB, "step 1: atom +e2 has ip=-1 < t*sup=0.5"),
    (make_finite([dense([1, 0]), dense([0, 1])]), "step 1: atom y2 has ip=-1 < t*sup=0.5"),
], ids=["onb", "finite"])
def test_a_user_policy_breaking_the_weak_greedy_condition_aborts(d, reason):
    trace = run(dense([0.5, -1.0]), d, Harmonic(), ConstantWeakening(0.5), policy=Negated(),
                max_steps=10)
    assert trace.steps == []
    assert trace.status == Status("aborted", 1, f"NoAdmissibleAtomError: {reason}")


def test_scripted_replay_computes_one_inner_product_per_step(monkeypatch):
    calls = []

    def counted(u, v):
        calls.append(None)
        return core.inner(u, v)

    monkeypatch.setattr(engine, "inner", counted)
    monkeypatch.setattr(dictionaries, "inner", counted)
    plan = build_plan(default_config(0.5, 4))
    trace = run_plan(plan)
    assert trace.status.kind == "stopped"
    assert len(calls) == len(trace.steps) == len(plan)


def test_early_exit_recorded_as_exhausted_with_reason():
    trace = run(dense([1]), ONB, Explicit([0.75, 0.2]), T1, max_steps=10, stop_below=0.3)
    assert trace.status.kind == "exhausted"
    assert trace.status.reason == "early_exit_threshold"
    assert len(trace.steps) == 1 and trace.steps[0].residual_norm == 0.25


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_rejects_non_finite_target(value):
    with pytest.raises(ConfigInvalidError, match="target norm must be finite"):
        run(SparseVector({1: value, 2: 0.5}), ONB, Harmonic(), T1, max_steps=5)


@pytest.mark.parametrize("max_steps", [10.0, True, -1, "10", None, np.float64(3.0)])
def test_run_rejects_a_max_steps_that_is_no_count(max_steps):
    with pytest.raises(ConfigInvalidError, match=r"^max_steps must be an integer >= 0, got "):
        run(dense([1]), ONB, Harmonic(), T1, max_steps=max_steps)


@pytest.mark.parametrize("stop_below", ["x", True, np.float64(math.nan), [0.5]])
def test_run_rejects_a_stop_below_that_is_no_real_number(stop_below):
    with pytest.raises(ConfigInvalidError, match=r"^stop_below must be a real number, not NaN"):
        run(dense([1]), ONB, Harmonic(), T1, max_steps=5, stop_below=stop_below)


def test_run_takes_numpy_numbers_for_its_budget():
    trace = run(dense([1, 0.5]), ONB, Explicit([0.75, 0.5]), T1, max_steps=np.int64(5),
                stop_below=np.float32(0.3))
    assert type(trace.max_steps) is int and trace.max_steps == 5
    assert (trace.status.kind, trace.status.step) == ("exhausted", 2)


def test_run_rejects_nan_stop_below():
    with pytest.raises(ConfigInvalidError, match="NaN"):
        run(dense([1]), ONB, Harmonic(), T1, max_steps=5, stop_below=math.nan)


@pytest.mark.parametrize("options,message", [
    ({"max_steps": 10 ** 400}, "max_steps is an integer too large for a float"),
    ({"stop_below": 10 ** 400},
     "stop_below (a run config's early_exit_threshold) is an integer too large for a float"),
])
def test_run_rejects_an_integer_too_large_for_a_float(options, message):
    with pytest.raises(ConfigInvalidError, match=f"^{re.escape(message)}$"):
        run(dense([1]), ONB, Harmonic(), T1, **dict({"max_steps": 5}, **options))


def test_determinism_bit_identical_csv(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(random_run(4), str(p1))
    write_trace_csv(random_run(4), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trip_exact(tmp_path):
    trace = random_run(5, steps=50)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    loaded = read_trace_csv(str(path))
    assert len(loaded.steps) == len(trace.steps)
    for a, b in zip(trace.steps, loaded.steps):
        assert (a.m, a.atom.id, a.block) == (b.m, b.atom.id, b.block)
        assert (a.c, a.t, a.ip, a.sup, a.residual_norm) == (b.c, b.t, b.ip, b.sup, b.residual_norm)
    assert loaded.initial_norm is None and loaded.status is None


def test_json_round_trip_keeps_status(tmp_path):
    trace = run(dense([1]), ONB, Explicit([1.0]), T1, max_steps=5)
    path = tmp_path / "trace.json"
    write_trace_json(trace, str(path))
    loaded = read_trace_json(str(path))
    assert loaded.status == trace.status
    assert loaded.initial_norm == trace.initial_norm
    assert loaded.max_steps == 5
    assert [r.residual_norm for r in loaded.steps] == [0.0]


def test_direct_sum_run_labels_blocks():
    d = direct_sum([make_finite([dense([1, 0]), dense([0, 1])]), make_symmetrized_onb()])
    target = SparseVector({(1, 1): 0.8, (1, 2): -0.5, (2, 1): 0.6, (2, 4): 0.3})
    trace = run(target, d, Harmonic(), T1, max_steps=400)
    blocks = {r.block for r in trace.steps}
    assert blocks <= {1, 2} and None not in blocks
    assert all(r.atom.id[0] == "b" and r.atom.id[1] == r.block for r in trace.steps)
    assert {r.m for r in trace.steps} == set(range(1, len(trace.steps) + 1))
    assert trace.steps[-1].residual_norm < 0.1


def test_onb_sup_is_recomputed_from_scratch():
    # recorded sup must equal the max coordinate modulus of the entering remainder
    remainder = dense([0.9, -0.4])
    trace = run(remainder, ONB, Harmonic(), T1, max_steps=20)
    for r in trace.steps:
        value, _ = ONB.sup_inner(remainder)
        assert r.sup == value
        remainder = subtract_scaled(remainder, r.c, r.atom.vector)


RECORD_ATOM = Atom(("e", 0, 1), SparseVector({1: 1.0}))
RECORD_VALUES = (1, RECORD_ATOM, 0.5, 1.0, 0.25, 0.25, 0.75, 2)


def test_step_record_positional_and_keyword_construction():
    positional = StepRecord(*RECORD_VALUES)
    keyword = StepRecord(**dict(zip(CSV_HEADER, RECORD_VALUES)))
    assert positional == keyword
    assert [getattr(keyword, k) for k in CSV_HEADER] == list(RECORD_VALUES)
    assert StepRecord(*RECORD_VALUES[:-1]).block is None
    with pytest.raises(TypeError):
        StepRecord(*RECORD_VALUES[:-2])


@pytest.mark.parametrize("name", CSV_HEADER)
def test_step_record_fields_are_frozen(name):
    record = StepRecord(*RECORD_VALUES)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    assert getattr(record, name) == RECORD_VALUES[CSV_HEADER.index(name)]


def test_step_record_is_a_dataclass_record():
    record = StepRecord(*RECORD_VALUES)
    assert [f.name for f in dataclasses.fields(StepRecord)] == CSV_HEADER
    assert [f.default for f in dataclasses.fields(StepRecord)][-1] is None
    assert dataclasses.asdict(record) == dict(
        zip(CSV_HEADER, RECORD_VALUES), atom={"id": ("e", 0, 1), "vector": RECORD_ATOM.vector})
    assert record == StepRecord(*RECORD_VALUES) and hash(record) == hash(RECORD_VALUES)
    assert record != StepRecord(*RECORD_VALUES[:-1]) and record != RECORD_VALUES
    assert repr(record) == (f"StepRecord(m=1, atom={RECORD_ATOM!r}, c=0.5, t=1.0, ip=0.25, "
                            "sup=0.25, residual_norm=0.75, block=2)")
    changed = dataclasses.replace(record, ip=0.125, block=None)
    assert (changed.ip, changed.block, changed.m) == (0.125, None, 1)
    assert record.ip == 0.25 and record.block == 2
    # slotted: no per-record dict, so vars() has nothing to give
    with pytest.raises(TypeError):
        vars(record)


# SHA-256 of what write_trace_json wrote for these two runs before StepRecord
# became a slotted dataclass; one basis run and one direct sum, whose steps
# carry their block
JSON_TRACE_SHA256 = {
    "basis": "238b95bcc25e11f5c27a4b7fb275ad8096f12e28d39d6f738d1180f47e48c09c",
    "direct_sum": "d354e9c98db9a16a79e6a245481a7f5b70fd64b78fb58795f9df59dc05699523",
}


@pytest.mark.parametrize("case", sorted(JSON_TRACE_SHA256))
def test_json_trace_bytes_pinned(tmp_path, case):
    if case == "basis":
        trace = run(dense([0.9, -0.4]), ONB, Harmonic(), T1, max_steps=2)
    else:
        d = direct_sum([make_finite([dense([1]), dense([0, 1])]), make_symmetrized_onb()])
        trace = run(SparseVector({(1, 1): 0.8, (2, 3): 0.6}), d, Harmonic(), T1, max_steps=2)
    path = tmp_path / "trace.json"
    write_trace_json(trace, str(path))
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == JSON_TRACE_SHA256[case], data.decode()
