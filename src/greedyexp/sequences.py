"""Coefficient and weakening sequences, with finite-horizon condition diagnostics.

The classical sufficient conditions for convergence are sum(c_n t_n) = infinity
and c_n/t_n -> 0; both are asymptotic statements that no finite prefix can
decide, so check_conditions reports doubling-checkpoint heuristics and says so
explicitly.
"""

from __future__ import annotations

import csv
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigInvalidError, IndexPastEndError, is_number, number, parse_tagged

HEURISTIC_NOTE = (
    "divergence/vanishing flags are doubling-checkpoint heuristics over a finite "
    "horizon, not proofs; None means the horizon is too short to attempt one"
)


def _check_step(n):
    """Raise ConfigInvalidError unless n is an integer >= 1, a bool being none,
    as run's max_steps is checked. Each eval tests a plain int inline and calls
    this for any other index, so a valid int costs no call."""
    if not is_number(n, numbers.Integral) or n < 1:
        raise ConfigInvalidError(f"sequence index must be >= 1 and an integer, got {n!r}")


class CoefficientSequence(ABC):
    """Evaluator n -> c_n > 0 for n >= 1. Each sequence stores its parameters
    as floats by errors.number, so a bool or a string is refused and 1 and 1.0
    give the same trace bytes, whether the sequence comes from a config or a
    library call."""

    @abstractmethod
    def eval(self, n: int) -> float: ...


@dataclass(frozen=True)
class Harmonic(CoefficientSequence):
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "scale", number(self.scale, "scale"))
        if not 0.0 < self.scale < math.inf:
            raise ConfigInvalidError(f"harmonic scale must be positive and finite, got {self.scale}")

    def eval(self, n: int) -> float:
        if type(n) is not int or n < 1:
            _check_step(n)
        return self.scale / n


@dataclass(frozen=True)
class Power(CoefficientSequence):
    """c_n = scale * n**(-alpha); alpha in (1/2, 1] stays below the 1/sqrt(n)
    envelope that guarantees convergence over every dictionary, alpha in
    (0, 1/2] deliberately does not, for boundary experiments."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", number(self.alpha, "alpha"))
        object.__setattr__(self, "scale", number(self.scale, "scale"))
        if not (0.0 < self.alpha < math.inf and 0.0 < self.scale < math.inf):
            raise ConfigInvalidError("power sequence needs finite alpha > 0 and scale > 0")

    def eval(self, n: int) -> float:
        if type(n) is not int or n < 1:
            _check_step(n)
        return self.scale * n ** (-self.alpha)


class _Listed:
    """A sequence given by its list of values, term n at values[n - 1], each
    a float by errors.number (a float is taken as it is: a plan's list holds
    thousands). A subclass sets its range rule _admits and the message of a
    value outside it, and binds eval in its own body: the benchmark's tracer
    wraps each class's own eval."""

    def __init__(self, values: Sequence[float]):
        self.values = [v if type(v) is float else number(v, f"values[{j}]")
                       for j, v in enumerate(values)]
        if not all(map(self._admits, self.values)):
            raise ConfigInvalidError(self._out_of_range)

    def eval(self, n: int) -> float:
        values = self.values
        if type(n) is not int or not 0 < n <= len(values):
            _check_step(n)
            if n > len(values):
                raise IndexPastEndError(f"explicit sequence has {len(values)} terms, asked for term {n}")
        return values[n - 1]


class Explicit(_Listed, CoefficientSequence):
    _admits = staticmethod(lambda v: 0.0 < v < math.inf)
    _out_of_range = "explicit coefficients must all be positive and finite"
    eval = _Listed.eval

    def __len__(self):
        return len(self.values)


class WeakeningSequence(ABC):
    """Evaluator n -> t_n in (0, 1]."""

    @abstractmethod
    def eval(self, n: int) -> float: ...


@dataclass(frozen=True)
class ConstantWeakening(WeakeningSequence):
    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", number(self.t, "t"))
        if not 0.0 < self.t <= 1.0:
            raise ConfigInvalidError(f"weakening parameter must lie in (0, 1], got {self.t}")

    def eval(self, n: int) -> float:
        if type(n) is not int or n < 1:
            _check_step(n)
        return self.t


class ExplicitWeakening(_Listed, WeakeningSequence):
    _admits = staticmethod(lambda v: 0.0 < v <= 1.0)
    _out_of_range = "weakening factors must lie in (0, 1]"
    eval = _Listed.eval


@dataclass(frozen=True)
class ConditionReport:
    horizon: int
    partial_sum: float
    tail_ratio_max: float
    divergence_plausible: Optional[bool]
    ratio_vanishing: Optional[bool]
    note: str = HEURISTIC_NOTE


def _tail_max(ratios: Sequence[float], horizon: int) -> float:
    start = max(1, math.ceil(0.9 * horizon))
    return max(ratios[start - 1:horizon])


def check_conditions(coefficients: CoefficientSequence, weakening: WeakeningSequence,
                     horizon: int) -> ConditionReport:
    """Partial sum of c_n t_n, tail max of c_n/t_n, and heuristic flags.

    divergence_plausible: the last doubling of the horizon added at least half
    as much to the sum as the previous doubling. ratio_vanishing: the tail max
    of c_n/t_n dropped strictly between the half horizon and the full horizon.
    Both are None when the horizon is shorter than 8. horizon must be an
    integer, by the number rule.
    """
    if number(horizon, "horizon", integer=True) < 1:
        raise ConfigInvalidError("horizon must be >= 1")
    ratios = []
    partial = 0.0
    checkpoints = {}
    quarter, half = horizon // 4, horizon // 2
    for n in range(1, horizon + 1):
        c, t = coefficients.eval(n), weakening.eval(n)
        partial += c * t
        ratios.append(c / t)
        if n == quarter or n == half:
            checkpoints[n] = partial
    tail_ratio = _tail_max(ratios, horizon)
    if horizon < 8:
        return ConditionReport(horizon, partial, tail_ratio, None, None)
    inc_prev = checkpoints[half] - checkpoints[quarter]
    inc_last = partial - checkpoints[half]
    divergence = inc_last > 0 and inc_last >= 0.5 * inc_prev
    vanishing = tail_ratio < _tail_max(ratios, half)
    return ConditionReport(horizon, partial, tail_ratio, divergence, vanishing)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _explicit_values(spec: dict):
    if "values" in spec:
        return spec["values"]
    if "file" in spec:
        path = spec["file"]
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                return [float(row[0]) for row in reader if row]
            except csv.Error as exc:
                raise ConfigInvalidError(f"{path}: line {reader.line_num}: {exc}") from exc
    raise ConfigInvalidError("explicit sequence spec needs 'values' or 'file'")


_COEFFICIENT_BUILDERS = {
    "harmonic": lambda spec: Harmonic(spec.get("scale", 1.0)),
    "power": lambda spec: Power(spec["alpha"], spec.get("scale", 1.0)),
    "explicit": lambda spec: Explicit(_explicit_values(spec)),
}

_WEAKENING_BUILDERS = {
    "constant_t": lambda spec: ConstantWeakening(spec["t"]),
    "explicit": lambda spec: ExplicitWeakening(_explicit_values(spec)),
}


def coefficients_from_config(spec: dict) -> CoefficientSequence:
    return parse_tagged(spec, _COEFFICIENT_BUILDERS, "coefficient")


def weakening_from_config(spec: dict) -> WeakeningSequence:
    return parse_tagged(spec, _WEAKENING_BUILDERS, "weakening")
