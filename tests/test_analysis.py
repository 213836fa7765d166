import dataclasses
import math

import numpy as np
import pytest

from greedyexp.analysis import (
    residual_extrema,
    verify_block_partition,
    verify_descent_inequality,
    verify_energy_identity,
    verify_greedy_condition,
)
from greedyexp.core import SparseVector
from greedyexp.counterexample import default_config, run_counterexample
from greedyexp.dictionaries import Atom, CoherenceEstimate, direct_sum, make_finite, make_symmetrized_onb
from greedyexp.engine import StepRecord, Trace, run
from greedyexp.errors import ConfigInvalidError, PreconditionUnmetError
from greedyexp.sequences import ConstantWeakening, Explicit, Harmonic


def dense(values):
    return SparseVector({i + 1: float(v) for i, v in enumerate(values) if v != 0})


ONB = make_symmetrized_onb()
T1 = ConstantWeakening(1.0)


def onb_run(seed=0, steps=200, d=6):
    rng = np.random.default_rng(seed)
    return run(dense(rng.standard_normal(d)), ONB, Harmonic(), T1, max_steps=steps)


@pytest.mark.parametrize("verify", [verify_energy_identity, verify_greedy_condition,
                                    verify_block_partition])
def test_checks_need_a_nonempty_trace(verify):
    with pytest.raises(PreconditionUnmetError, match="needs a nonempty trace"):
        verify(Trace())


def test_energy_identity_passes_on_engine_trace():
    report = verify_energy_identity(onb_run(), tol=1e-10)
    assert report.all_passed
    check = report.checks[0]
    assert check.worst_violation >= 0.0   # worst violation reported even on pass


def test_energy_identity_single_step():
    # 0 = 1 - 2*1 + 1
    trace = run(dense([1]), ONB, Explicit([1.0]), T1, max_steps=5)
    report = verify_energy_identity(trace, tol=1e-10)
    assert report.all_passed and report.checks[0].worst_violation == 0.0


def test_energy_identity_detects_tampering():
    trace = onb_run(1)
    bad = dataclasses.replace(trace.steps[7], residual_norm=trace.steps[7].residual_norm + 1e-3)
    tampered = Trace(trace.steps[:7] + [bad] + trace.steps[8:],
                     initial_norm=trace.initial_norm, status=trace.status)
    report = verify_energy_identity(tampered, tol=1e-10)
    assert not report.all_passed
    # the forged norm breaks the recursion entering and leaving step 8
    assert report.checks[0].step in (8, 9)


def test_energy_identity_skips_first_step_without_initial_norm():
    trace = onb_run(2)
    anonymous = Trace(trace.steps)   # as loaded from CSV
    report = verify_energy_identity(anonymous, tol=1e-10)
    assert report.all_passed
    assert report.checks[0].applicable_steps == len(trace.steps) - 1


def test_greedy_condition_max_greedy_has_zero_violation():
    report = verify_greedy_condition(onb_run(3))
    assert report.all_passed and report.checks[0].worst_violation == 0.0


def test_greedy_condition_counterexample_equality_steps():
    report = verify_greedy_condition(run_counterexample(default_config(0.5, 3)), tol=1e-12)
    assert report.all_passed


def test_greedy_condition_detects_forged_step():
    atom = ONB.realize(("e", 0, 1))
    forged = Trace([StepRecord(1, atom, c=0.1, t=1.0, ip=0.4, sup=0.5, residual_norm=1.0)],
                   initial_norm=1.1)
    report = verify_greedy_condition(forged)
    assert not report.all_passed
    assert report.checks[0].worst_violation == pytest.approx(0.1, rel=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
@pytest.mark.parametrize("check", [verify_energy_identity, verify_greedy_condition])
def test_bad_tolerance_raises_config_invalid(check, tol):
    trace = onb_run(steps=20)
    with pytest.raises(ConfigInvalidError, match="tolerance must be finite and >= 0"):
        check(trace, tol=tol)
    with pytest.raises(ConfigInvalidError, match="tolerance must be finite and >= 0"):
        check(Trace(), tol=tol)
    assert check(trace, tol=0.0).checks[0].applicable_steps > 0


def test_bad_tolerance_raises_in_descent_inequality():
    trace = onb_run(steps=20)
    with pytest.raises(ConfigInvalidError, match="descent inequality tolerance"):
        verify_descent_inequality(trace, CoherenceEstimate(1.0, samples=1, seed=0),
                                  epsilon=1e3, from_step=1, tol=math.nan)


@pytest.mark.parametrize("tol", [True, False, "1e-9", None],
                         ids=["true", "false", "string", "none"])
@pytest.mark.parametrize("check, name", [(verify_energy_identity, "energy identity"),
                                         (verify_greedy_condition, "greedy condition")])
def test_tolerance_that_is_no_number_raises_config_invalid(check, name, tol):
    # True used to run as a tolerance of 1, "1e-9" to end in a raw TypeError
    with pytest.raises(ConfigInvalidError, match=f"^{name} tolerance must be a real number, got "):
        check(onb_run(steps=20), tol=tol)


@pytest.mark.parametrize("field, value", [("tol", True), ("tol", "1e-9"), ("epsilon", True),
                                          ("epsilon", "0.2"), ("epsilon", None)])
def test_descent_numbers_that_are_no_numbers_raise_config_invalid(field, value):
    name = "descent inequality tolerance" if field == "tol" else "epsilon"
    kwargs = {"epsilon": 1e3, "from_step": 1, field: value}
    with pytest.raises(ConfigInvalidError, match=f"^{name} must be a real number, got "):
        verify_descent_inequality(onb_run(steps=20), CoherenceEstimate(1.0, samples=1, seed=0),
                                  **kwargs)


def test_integer_tolerances_are_accepted():
    trace = onb_run(steps=20)
    assert verify_energy_identity(trace, 1) == verify_energy_identity(trace, 1.0)
    assert verify_greedy_condition(trace, 0) == verify_greedy_condition(trace, 0.0)

def _with_nan(trace, field_at):
    """trace with the named StepRecord fields of the given steps set to NaN."""
    steps = [dataclasses.replace(r, **{name: math.nan for name, m in field_at if m == r.m})
             for r in trace.steps]
    return Trace(steps, initial_norm=trace.initial_norm, status=trace.status)


def test_nan_in_trace_fails_at_first_nan_step():
    """A NaN compares False against every bound, so it used to be skipped as
    no violation at all; it must fail and name the step of the first NaN."""
    trace = _with_nan(run_counterexample(default_config(0.5, 2)),
                      [("residual_norm", 5), ("ip", 6), ("ip", 9)])
    energy = verify_energy_identity(trace).checks[0]
    greedy = verify_greedy_condition(trace).checks[0]
    assert (energy.passed, energy.step) == (False, 5) and math.isnan(energy.worst_violation)
    assert (greedy.passed, greedy.step) == (False, 6) and math.isnan(greedy.worst_violation)
    assert energy.applicable_steps == len(trace.steps)


def test_nan_in_trace_fails_descent_inequality():
    target = dense([5.0, -3.0, 4.0])
    dictionary = make_finite([dense([1, 0, 0]), dense([0, 1, 0]), dense([0, 0, 1])])
    trace = run(target, dictionary, Harmonic(), T1, max_steps=300)
    c = CoherenceEstimate(1 / math.sqrt(3), samples=1, seed=0)
    assert verify_descent_inequality(trace, c, epsilon=0.2, from_step=6).all_passed
    check = verify_descent_inequality(_with_nan(trace, [("residual_norm", 20)]), c,
                                      epsilon=0.2, from_step=6).checks[0]
    assert (check.passed, check.step) == (False, 20)


def test_descent_inequality_analytic_constant():
    """For {+-e_i} in R^d the coherence constant is exactly 1/sqrt(d): the sup
    over signed basis atoms is max|f_i| >= ||f||/sqrt(d)."""
    d = 3
    target = dense([5.0, -3.0, 4.0])
    dictionary = make_finite([dense([1, 0, 0]), dense([0, 1, 0]), dense([0, 0, 1])])
    trace = run(target, dictionary, Harmonic(), T1, max_steps=3000)
    c = CoherenceEstimate(1 / math.sqrt(d), samples=1, seed=0)
    eps = 0.2
    # harmonic: c_n < eps for n >= 6 and c_n < eps/c = 0.2*sqrt(3) from n >= 3
    report = verify_descent_inequality(trace, c, epsilon=eps, from_step=6, tol=1e-10)
    assert report.all_passed
    assert report.checks[0].applicable_steps > 50


def test_descent_inequality_skips_small_residual_steps():
    trace = run(dense([0.3, 0.1]), make_finite([dense([1, 0]), dense([0, 1])]),
                Harmonic(), T1, max_steps=100)
    c = CoherenceEstimate(1 / math.sqrt(2), samples=1, seed=0)
    # epsilon so large every step has residual below epsilon/c: vacuous pass
    report = verify_descent_inequality(trace, c, epsilon=0.9, from_step=5)
    assert report.all_passed
    assert report.checks[0].applicable_steps == 0


def test_descent_inequality_window_violation_raises():
    trace = onb_run(4, steps=50)
    c = CoherenceEstimate(0.9, samples=1, seed=0)
    with pytest.raises(PreconditionUnmetError):
        # at from_step=1 the harmonic coefficient 1.0 violates c_n/t_n < eps
        verify_descent_inequality(trace, c, epsilon=0.5, from_step=1)
    with pytest.raises(PreconditionUnmetError):
        verify_descent_inequality(trace, c, epsilon=0.5, from_step=100)


def test_block_partition_on_direct_sum_trace():
    d = direct_sum([make_finite([dense([1])]), make_symmetrized_onb()])
    target = SparseVector({(1, 1): 0.5, (2, 2): -0.25})
    trace = run(target, d, Harmonic(), T1, max_steps=60)
    assert verify_block_partition(trace).all_passed


def test_block_partition_rejects_mislabeled_step():
    trace = run(SparseVector({(1, 1): 0.5}),
                direct_sum([make_symmetrized_onb()]), Harmonic(), T1, max_steps=5)
    bad = dataclasses.replace(trace.steps[0], block=2)
    report = verify_block_partition(Trace([bad] + trace.steps[1:]))
    assert not report.all_passed


def test_residual_extrema_prefix_min_max():
    trace = onb_run(5, steps=400)
    running_min, running_max = residual_extrema(trace, burn_in=0)
    norms = trace.residual_norms()
    assert running_min == [min(norms[:i + 1]) for i in range(len(norms))]
    assert running_max == [max(norms[:i + 1]) for i in range(len(norms))]
    assert all(a >= b for a, b in zip(running_min, running_min[1:]))


def test_residual_extrema_burn_in_and_validation():
    trace = onb_run(6, steps=50)
    running_min, running_max = residual_extrema(trace, burn_in=30)
    assert len(running_min) == len(running_max) == 20
    with pytest.raises(PreconditionUnmetError):
        residual_extrema(trace, burn_in=50)
    with pytest.raises(PreconditionUnmetError):
        residual_extrema(trace, burn_in=-1)


def test_residual_extrema_stuck_incomplete_dictionary():
    # residual converges to 1 from above; late-window extrema pin to 1
    trace = run(dense([1, 1]), make_finite([dense([1])]), Harmonic(), T1, max_steps=2000)
    running_min, running_max = residual_extrema(trace, burn_in=1800)
    assert running_min[-1] == pytest.approx(1.0, abs=1e-5)
    assert running_max[-1] == pytest.approx(1.0, abs=1e-5)


def test_reports_are_pure_functions_of_the_trace():
    trace = onb_run(7)
    first = verify_energy_identity(trace).to_json_obj()
    second = verify_energy_identity(trace).to_json_obj()
    assert first == second


def test_report_json_shape():
    obj = verify_greedy_condition(onb_run(8)).to_json_obj()
    assert set(obj) == {"all_passed", "checks"}
    assert set(obj["checks"][0]) == {"name", "passed", "worst_violation", "step",
                                     "applicable_steps"}
