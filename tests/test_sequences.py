import math
import re

import numpy as np
import pytest

from greedyexp.errors import ConfigInvalidError, IndexPastEndError
from greedyexp.sequences import (
    ConstantWeakening,
    Explicit,
    ExplicitWeakening,
    Harmonic,
    Power,
    check_conditions,
    coefficients_from_config,
    weakening_from_config,
)


def test_check_conditions_needs_a_horizon():
    with pytest.raises(ConfigInvalidError, match="horizon must be >= 1"):
        check_conditions(Harmonic(), ConstantWeakening(1.0), 0)


@pytest.mark.parametrize("parse", [coefficients_from_config, weakening_from_config])
def test_explicit_spec_needs_values_or_file(parse):
    with pytest.raises(ConfigInvalidError, match="needs 'values' or 'file'"):
        parse({"kind": "explicit"})


def test_harmonic_eval():
    assert Harmonic().eval(4) == 0.25
    assert Harmonic(scale=2.0).eval(4) == 0.5


def test_power_eval():
    # 32^(-0.6) = 2^(-3) exactly
    assert Power(alpha=0.6).eval(32) == pytest.approx(0.125, rel=1e-12)
    assert Power(alpha=0.5, scale=3.0).eval(4) == pytest.approx(1.5, rel=1e-12)


def test_explicit_eval_and_exhaustion():
    seq = Explicit([0.5])
    assert seq.eval(1) == 0.5
    with pytest.raises(IndexPastEndError):
        seq.eval(2)


def test_sequences_reject_bad_terms():
    with pytest.raises(ConfigInvalidError):
        Explicit([0.5, 0.0])
    with pytest.raises(ConfigInvalidError):
        Harmonic(scale=-1.0)
    with pytest.raises(ConfigInvalidError):
        Power(alpha=0.0)
    with pytest.raises(ConfigInvalidError):
        ConstantWeakening(0.0)
    with pytest.raises(ConfigInvalidError):
        ConstantWeakening(1.5)
    with pytest.raises(ConfigInvalidError):
        ExplicitWeakening([0.5, 1.2])
    with pytest.raises(ConfigInvalidError):
        Harmonic().eval(0)


@pytest.mark.parametrize("build", [
    lambda: Harmonic(math.nan),
    lambda: Harmonic(math.inf),
    lambda: Power(alpha=math.inf),
    lambda: Power(alpha=math.nan),
    lambda: Power(alpha=0.8, scale=math.inf),
    lambda: Explicit([math.nan]),
    lambda: Explicit([0.5, math.inf]),
])
def test_sequences_reject_non_finite(build):
    with pytest.raises(ConfigInvalidError):
        build()


EVERY_SEQUENCE = [Harmonic(), Power(0.8), Explicit([1.0, 0.5]), ConstantWeakening(0.5),
                  ExplicitWeakening([1.0, 0.5])]


@pytest.mark.parametrize("n", [0, -1, 0.5, 2.0, True, False])
@pytest.mark.parametrize("seq", EVERY_SEQUENCE)
def test_every_sequence_rejects_an_index_that_is_no_integer_from_1(seq, n):
    # as run's max_steps: a float, even 2.0, and a bool are no index; before,
    # Harmonic().eval(2.0) gave 0.5, Explicit([1.0, 0.5]).eval(2.0) raised a
    # raw TypeError and every sequence took True as index 1
    with pytest.raises(ConfigInvalidError) as info:
        seq.eval(n)
    assert str(info.value) == f"sequence index must be >= 1 and an integer, got {n!r}"


@pytest.mark.parametrize("seq", EVERY_SEQUENCE)
def test_every_sequence_takes_integer_indices_numpy_ones_too(seq):
    assert [seq.eval(np.int64(n)) for n in (1, 2)] == [seq.eval(1), seq.eval(2)]


@pytest.mark.parametrize("seq", [Explicit([1.0, 0.5]), ExplicitWeakening([1.0, 0.5])])
@pytest.mark.parametrize("n", [3, np.int64(3), 10 ** 30])
def test_explicit_sequences_end_one_past_their_last_term(seq, n):
    with pytest.raises(IndexPastEndError) as info:
        seq.eval(n)
    assert str(info.value) == f"explicit sequence has 2 terms, asked for term {n}"


@pytest.mark.parametrize("seq", [Harmonic(), Harmonic(0.3), Power(0.4), Power(0.8, 2.0)])
def test_positive_and_non_increasing(seq):
    values = [seq.eval(n) for n in range(1, 200)]
    assert all(v > 0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_power_ratio_tail_decreases_under_doubling():
    # c_n / t_n -> 0 for power coefficients and constant weakening
    seq, tau = Power(0.7), ConstantWeakening(0.9)
    tails = []
    for horizon in (100, 200, 400, 800):
        start = math.ceil(0.9 * horizon)
        tails.append(max(seq.eval(n) / tau.eval(n) for n in range(start, horizon + 1)))
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_check_conditions_harmonic():
    report = check_conditions(Harmonic(), ConstantWeakening(1.0), 10**5)
    # partial sum of 1/n to 1e5 is ln(1e5) + gamma + o(1)
    assert report.partial_sum == pytest.approx(math.log(10**5) + 0.5772156649, abs=1e-3)
    assert report.divergence_plausible is True
    assert report.ratio_vanishing is True
    assert "heuristic" in report.note


def test_check_conditions_power_small_alpha():
    report = check_conditions(Power(0.4), ConstantWeakening(1.0), 10**4)
    assert report.divergence_plausible is True
    assert report.ratio_vanishing is True


def test_check_conditions_tiny_horizon_indeterminate():
    report = check_conditions(Explicit([1.0, 1.0, 1.0]), ConstantWeakening(1.0), 3)
    assert report.partial_sum == 3.0
    assert report.divergence_plausible is None
    assert report.ratio_vanishing is None


def test_check_conditions_geometric_not_divergent():
    geo = Explicit([2.0 ** -n for n in range(1, 201)])
    report = check_conditions(geo, ConstantWeakening(1.0), 200)
    assert report.divergence_plausible is False


def test_check_conditions_constant_ratio_not_vanishing():
    report = check_conditions(Explicit([0.5] * 64), ConstantWeakening(1.0), 64)
    assert report.ratio_vanishing is False
    assert report.divergence_plausible is True


def test_coefficients_from_config():
    assert coefficients_from_config({"kind": "harmonic"}).eval(2) == 0.5
    assert coefficients_from_config({"kind": "power", "alpha": 0.6}).eval(32) == pytest.approx(0.125)
    assert coefficients_from_config({"kind": "explicit", "values": [1.0, 0.5]}).eval(2) == 0.5
    # an int is a real number, stored as a float
    assert coefficients_from_config({"kind": "harmonic", "scale": 2}) == Harmonic(2.0)
    assert type(coefficients_from_config({"kind": "power", "alpha": 1}).alpha) is float
    assert coefficients_from_config({"kind": "explicit", "values": [1, 0.5]}).values == [1.0, 0.5]
    with pytest.raises(ConfigInvalidError):
        coefficients_from_config({"kind": "fibonacci"})
    with pytest.raises(ConfigInvalidError):
        coefficients_from_config({"kind": "power"})
    with pytest.raises(ConfigInvalidError):
        coefficients_from_config({})


@pytest.mark.parametrize("parse,spec,message", [
    (weakening_from_config, {"kind": "constant_t", "t": True}, "t must be a real number, got True"),
    (coefficients_from_config, {"kind": "harmonic", "scale": True},
     "scale must be a real number, got True"),
    (coefficients_from_config, {"kind": "harmonic", "scale": "2"},
     "scale must be a real number, got '2'"),
    (coefficients_from_config, {"kind": "power", "alpha": "0.75"},
     "alpha must be a real number, got '0.75'"),
    (coefficients_from_config, {"kind": "power", "alpha": 0.75, "scale": False},
     "scale must be a real number, got False"),
    (coefficients_from_config, {"kind": "explicit", "values": [True, "0.5", 0.25]},
     "values[0] must be a real number, got True"),
    (coefficients_from_config, {"kind": "explicit", "values": [0.5, "0.5"]},
     "values[1] must be a real number, got '0.5'"),
    (weakening_from_config, {"kind": "explicit", "values": [1.0, None]},
     "values[1] must be a real number, got None"),
    (coefficients_from_config, {"kind": "harmonic", "scale": 10 ** 400},
     "scale is an integer too large for a float"),
    (weakening_from_config, {"kind": "explicit", "values": [10 ** 400]},
     "values[0] is an integer too large for a float"),
], ids=["constant_t_bool", "harmonic_bool", "harmonic_str", "power_str", "power_scale_bool",
        "explicit_bool", "explicit_str", "explicit_none", "harmonic_huge_int", "explicit_huge_int"])
def test_spec_numbers_are_real_numbers_not_bools_or_strings(parse, spec, message):
    with pytest.raises(ConfigInvalidError, match=f"^{re.escape(message)}$"):
        parse(spec)


def test_explicit_from_csv(tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("0.5\n0.25\n0.125\n")
    seq = coefficients_from_config({"kind": "explicit", "file": str(path)})
    assert [seq.eval(n) for n in (1, 2, 3)] == [0.5, 0.25, 0.125]


def test_weakening_from_config():
    assert weakening_from_config({"kind": "constant_t", "t": 0.7}).eval(9) == 0.7
    assert weakening_from_config({"kind": "explicit", "values": [1.0, 0.5]}).eval(2) == 0.5
    assert type(weakening_from_config({"kind": "constant_t", "t": 1}).eval(1)) is float
    with pytest.raises(ConfigInvalidError):
        weakening_from_config({"kind": "constant_t", "t": 0.0})
    with pytest.raises(ConfigInvalidError):
        weakening_from_config({"kind": "linear"})
