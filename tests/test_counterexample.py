import math

import pytest

from greedyexp.analysis import residual_extrema, verify_greedy_condition
from greedyexp.core import SparseVector
from greedyexp.counterexample import (
    K_CEILING,
    CounterexampleConfig,
    build_plan,
    build_target,
    choose_k,
    default_config,
    flip_passes,
    group_ranges,
    run_counterexample,
)
from greedyexp.errors import ConfigInvalidError


def scan_k(t):
    """Brute-force oracle for the smallest admissible group parameter."""
    k = 2
    while not (t ** k < 1 / math.sqrt(k) and k > t * t / (1 - t * t)):
        k += 1
    return k


@pytest.mark.parametrize("t,expected", [(0.5, 2), (0.1, 2), (0.9, 12)])
def test_choose_k_matches_scan(t, expected):
    assert choose_k(t) == scan_k(t) == expected


def test_choose_k_conditions_hold_generally():
    for t in (0.2, 0.35, 0.6, 0.75, 0.95):
        k = choose_k(t)
        assert k > 1
        assert t ** k < 1 / math.sqrt(k)
        assert k > t * t / (1 - t * t)
        # minimality
        for smaller in range(2, k):
            assert not (t ** smaller < 1 / math.sqrt(smaller)
                        and smaller > t * t / (1 - t * t))


def test_choose_k_stops_at_its_ceiling():
    assert choose_k(0.9995) == scan_k(0.9995) <= K_CEILING
    with pytest.raises(ConfigInvalidError,
                       match=r"^t=0\.9999999999 needs a group parameter k > 10000; give k"):
        choose_k(0.9999999999)


def test_config_needs_k_above_the_sup_bound():
    # k = 2 meets t^k < 1/sqrt(k) at t = 0.83, but not k > t^2/(1-t^2) = 2.214...
    with pytest.raises(ConfigInvalidError, match=r"later groups never dominate the sup; "
                                                 r"k=2 <= 2\.2144$"):
        CounterexampleConfig(t=0.83, k=2, num_groups=1)


def test_config_validation():
    with pytest.raises(ConfigInvalidError):
        CounterexampleConfig(t=1.0, k=2, num_groups=1)
    with pytest.raises(ConfigInvalidError):
        CounterexampleConfig(t=0.5, k=1, num_groups=1)
    with pytest.raises(ConfigInvalidError):
        CounterexampleConfig(t=0.9, k=2, num_groups=1)   # 0.81 > 1/sqrt(2)
    with pytest.raises(ConfigInvalidError):
        CounterexampleConfig(t=0.5, k=2, num_groups=0)


def test_build_target_first_group():
    cfg = CounterexampleConfig(t=0.5, k=2, num_groups=1)
    assert build_target(cfg) == SparseVector({1: 0.25, 2: 0.25})
    assert build_target(cfg).norm() ** 2 == pytest.approx(0.125, rel=1e-15)


def test_build_target_two_groups():
    cfg = CounterexampleConfig(t=0.5, k=2, num_groups=2)
    assert build_target(cfg) == SparseVector(
        {1: 0.25, 2: 0.25, 3: 0.125, 4: 0.125, 5: 0.125})
    assert [list(r) for r in group_ranges(cfg)] == [[1, 2], [3, 4, 5]]


def test_flip_pass_counts_for_half():
    # t=0.5: moduli double per pass until they land in [t/sqrt(h), 1/sqrt(h)]
    assert [flip_passes(0.5, h) for h in range(2, 8)] == [1, 2, 2, 3, 4, 5]


def test_first_flip_matches_formula():
    """The first flip uses c = |v|(1 + 1/t) up to the builder's few-ulp tuning."""
    plan = build_plan(CounterexampleConfig(t=0.5, k=2, num_groups=1))
    c = plan.coefficients.eval(1)
    assert c == pytest.approx(0.25 * (1 + 1 / 0.5), abs=1e-15)
    assert plan.selections[0] == ("e", 0, 1)
    # after the flip the component sits at -0.5 (modulus within the bracket)
    t, h = 0.5, 2
    assert t / math.sqrt(h) <= abs(0.25 - c) <= 1 / math.sqrt(h)


def test_zeroing_coefficients_exactly_unit_over_sqrt_h():
    plan = build_plan(default_config(0.5, 6))
    for gm in plan.marks:
        assert gm.unit_coefficient_exact
        q = 1 / math.sqrt(gm.h)
        zero_cs = plan.coefficients.values[gm.zeroed_step - gm.h:gm.zeroed_step]
        assert all(c == q for c in zero_cs)
        assert len(zero_cs) == gm.h


def test_group_coefficients_bounded_by_two_over_sqrt_h():
    plan = build_plan(default_config(0.5, 6))
    for gm in plan.marks:
        cs = plan.coefficients.values[gm.first_step - 1:gm.zeroed_step]
        assert max(cs) <= 2 / math.sqrt(gm.h) + 1e-12
        assert min(cs) > 0


def test_coefficient_sum_grows_like_sqrt_h():
    # the zeroing steps alone contribute h * (1/sqrt(h)) = sqrt(h) per group
    cfg = default_config(0.5, 5)
    plan = build_plan(cfg)
    total = sum(plan.coefficients.values)
    assert total >= sum(math.sqrt(cfg.k + j) for j in range(cfg.num_groups))


def test_run_counterexample_marks_and_tails():
    cfg = default_config(0.5, 4)
    plan = build_plan(cfg)
    trace = run_counterexample(cfg)
    assert trace.status.kind == "stopped"        # exact annihilation of the last group
    norms = trace.residual_norms()
    t, k, J = cfg.t, cfg.k, cfg.num_groups
    running_min, _ = residual_extrema(trace)
    for j, gm in enumerate(plan.marks):
        assert norms[gm.subnorm_one_step - 1] >= 1.0 - 1e-9
        tail = math.sqrt(sum((k + jp) * t ** (2 * (k + jp)) for jp in range(j + 1, J)))
        assert norms[gm.zeroed_step - 1] == pytest.approx(tail, abs=1e-9)
        assert running_min[gm.zeroed_step - 1] == pytest.approx(tail, abs=1e-9)


def test_subnorm_one_at_marks():
    cfg = default_config(0.5, 3)
    plan = build_plan(cfg)
    trace = run_counterexample(cfg)
    target = build_target(cfg)
    ranges = group_ranges(cfg)
    remainder = target
    from greedyexp.core import subtract_scaled
    by_step = {}
    for r in trace.steps:
        remainder = subtract_scaled(remainder, r.c, r.atom.vector)
        by_step[r.m] = remainder
    for gm in plan.marks:
        group_rest = by_step[gm.subnorm_one_step]
        sub = math.sqrt(sum(group_rest.get(i) ** 2 for i in ranges[gm.group]))
        assert sub == pytest.approx(1.0, abs=1e-9)
        zeroed = by_step[gm.zeroed_step]
        assert all(zeroed.get(i) == 0.0 for i in ranges[gm.group])


def test_every_scripted_step_admissible_at_equality_tolerance():
    trace = run_counterexample(default_config(0.5, 5))
    report = verify_greedy_condition(trace, tol=1e-12)
    assert report.all_passed
    # flip passes hit the boundary: the worst violation is tiny but nonzero
    assert report.checks[0].worst_violation <= 1e-12


def test_limsup_proxy_reaches_one_and_liminf_proxy_decreases():
    cfg = default_config(0.5, 5)
    plan = build_plan(cfg)
    trace = run_counterexample(cfg)
    running_min, running_max = residual_extrema(trace)
    first_mark = plan.marks[0].subnorm_one_step
    assert max(running_max[first_mark - 1:]) >= 1.0 - 1e-9
    mins_at_marks = [running_min[gm.zeroed_step - 1] for gm in plan.marks]
    assert all(a > b for a, b in zip(mins_at_marks, mins_at_marks[1:]))
    assert mins_at_marks[-1] == 0.0


def test_other_weakening_parameters_run_clean():
    # k chosen by scan; plans stay admissible and zero out exactly
    for t in (0.3, 0.7, 0.9):
        cfg = default_config(t, 3)
        trace = run_counterexample(cfg)
        assert trace.status.kind == "stopped", (t, trace.status)
        plan = build_plan(cfg)
        norms = trace.residual_norms()
        for gm in plan.marks:
            assert norms[gm.subnorm_one_step - 1] >= 1.0 - 1e-9
            q = 1 / math.sqrt(gm.h)
            zero_cs = plan.coefficients.values[gm.zeroed_step - gm.h:gm.zeroed_step]
            # bit-exact 1/sqrt(h) where the tuner found a landing; never further
            # than a couple of ulps away
            assert all(abs(c - q) <= 4 * math.ulp(q) for c in zero_cs)
            if gm.unit_coefficient_exact:
                assert all(c == q for c in zero_cs)


def test_truncated_run_is_exhausted():
    trace = run_counterexample(default_config(0.5, 4), max_steps=10)
    assert trace.status.kind == "exhausted"
    assert len(trace.steps) == 10
