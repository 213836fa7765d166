"""Constructive divergence example for weakening parameter t < 1 on a symmetrized basis.

The target is a sequence of coordinate groups, group j holding k+j entries all
equal to t^(k+j). The scripted schedule processes one group at a time:

  flip passes   each component is selected with its aligned sign atom and
                coefficient |v|*(1 + 1/t), which flips its sign and divides its
                modulus by t; passes repeat until every modulus lies in
                [t/sqrt(h), 1/sqrt(h)] for h = k+j;
  saturation    one step per component lands it on -sign(v)/sqrt(h), after
                which the group alone has norm one;
  zeroing       one step per component with coefficient 1/sqrt(h) cancels it
                exactly, emptying the group.

Every selection meets the weak inequality with equality at worst, every
coefficient in group h stays at or below 2/sqrt(h), and the zeroing steps each
contribute a coefficient of exactly 1/sqrt(h), so the residual norm returns to
one infinitely often while the coefficients still vanish and their sum diverges.

Floating point footnote: the builder simulates the engine's arithmetic verbatim
and nudges the last flip pass and the saturation coefficients by a few ulps so
that saturation lands bit-exactly on 1/sqrt(h). That makes the zeroing
coefficients literal floats of 1/sqrt(h) and the cancellations exact. For a few
(t, h) pairs no such nudge exists (a parity obstruction when the group needs no
flip passes); those groups zero out exactly all the same, with coefficients
within a couple of ulps of 1/sqrt(h) and the marks flag cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import SparseVector
from .dictionaries import Scripted, SymmetrizedOnb
from .engine import Trace, run
from .errors import ConfigInvalidError, PlanConstructionError
from .sequences import ConstantWeakening, Explicit

_TUNE_ULPS = 8


@dataclass(frozen=True)
class CounterexampleConfig:
    t: float
    k: int
    num_groups: int

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ConfigInvalidError(f"weakening parameter must lie in (0, 1), got {self.t}")
        if self.k <= 1:
            raise ConfigInvalidError(f"group parameter k must exceed 1, got {self.k}")
        if not self.t ** self.k < 1.0 / math.sqrt(self.k):
            raise ConfigInvalidError(
                f"need t^k < 1/sqrt(k); t={self.t}, k={self.k} gives "
                f"{self.t ** self.k:g} >= {1.0 / math.sqrt(self.k):g}")
        if not self.k > self.t ** 2 / (1.0 - self.t ** 2):
            raise ConfigInvalidError(
                f"need k > t^2/(1-t^2) so later groups never dominate the sup; "
                f"k={self.k} <= {self.t ** 2 / (1.0 - self.t ** 2):g}")
        if self.num_groups < 1:
            raise ConfigInvalidError("num_groups must be >= 1")


@dataclass(frozen=True)
class GroupMarks:
    group: int                    # 0-based group number j
    h: int                        # group size and exponent, h = k + j
    first_step: int
    subnorm_one_step: int
    zeroed_step: int
    unit_coefficient_exact: bool  # zeroing coefficients are bit-exact 1/sqrt(h)


@dataclass(frozen=True)
class AdversarialPlan:
    config: CounterexampleConfig
    coefficients: Explicit
    selections: list
    marks: list

    def __len__(self):
        return len(self.selections)


def choose_k(t: float) -> int:
    """Smallest k > 1 with t^k < 1/sqrt(k) and k > t^2/(1-t^2)."""
    if not 0.0 < t < 1.0:
        raise ConfigInvalidError(f"weakening parameter must lie in (0, 1), got {t}")
    k = 2
    while not (t ** k < 1.0 / math.sqrt(k) and k > t ** 2 / (1.0 - t ** 2)):
        k += 1
    return k


def default_config(t: float, num_groups: int, k: Optional[int] = None) -> CounterexampleConfig:
    """The config for t and num_groups, with k = choose_k(t) unless k is given."""
    return CounterexampleConfig(t=t, k=choose_k(t) if k is None else k, num_groups=num_groups)


def group_ranges(cfg: CounterexampleConfig) -> list:
    """Coordinate index range of each group, consecutive from 1."""
    out = []
    start = 1
    for j in range(cfg.num_groups):
        size = cfg.k + j
        out.append(range(start, start + size))
        start += size
    return out


def build_target(cfg: CounterexampleConfig) -> SparseVector:
    entries = {}
    for j, idxs in enumerate(group_ranges(cfg)):
        value = cfg.t ** (cfg.k + j)
        for i in idxs:
            entries[i] = value
    return SparseVector(entries)


def flip_passes(t: float, h: int) -> int:
    """Number of sign-flip passes before the modulus enters [t/sqrt(h), 1/sqrt(h)]."""
    lo = t / math.sqrt(h)
    r = 0
    while t ** (h - r) < lo:
        r += 1
    if t ** (h - r) > 1.0 / math.sqrt(h) * (1.0 + 1e-12):
        raise PlanConstructionError(f"flip bracket failed for t={t}, h={h}")
    return r


def _ulp_candidates(x: float):
    """x and its neighbors, nearest first: x, x+1ulp, x-1ulp, ..."""
    yield x
    up = dn = x
    for _ in range(_TUNE_ULPS):
        up = math.nextafter(up, math.inf)
        dn = math.nextafter(dn, -math.inf)
        yield up
        yield dn


def _exact_saturation(m: float, q: float) -> Optional[float]:
    """Positive coefficient c with fl(m - c) == -q, if one exists near m + q."""
    for c in _ulp_candidates(m + q):
        if c > 0.0 and m - c == -q:
            return c
    return None


def _nearest_saturation(m: float, q: float) -> float:
    """Fallback: the c whose landing point is closest to -q (ties to smaller c)."""
    best = None
    for c in _ulp_candidates(m + q):
        if c <= 0.0:
            continue
        gap = abs((m - c) + q)
        if best is None or gap < best[0] or (gap == best[0] and c < best[1]):
            best = (gap, c)
    return best[1]


def _atom(sign: float, i: int) -> tuple:
    return ("e", 0 if sign > 0 else 1, i)


def build_plan(cfg: CounterexampleConfig) -> AdversarialPlan:
    """Coefficients, scripted selections and phase marks for the whole target.

    Simulates the engine's remainder arithmetic expression for expression, so
    the planned coefficients land the remainder exactly where the plan claims.
    """
    t = cfg.t
    coeffs = []
    selections = []
    marks = []
    step = 0
    for j, idxs in enumerate(group_ranges(cfg)):
        h = cfg.k + j
        q = 1.0 / math.sqrt(h)
        cap = 2.0 / math.sqrt(h) + 1e-12
        first_step = step + 1
        passes = flip_passes(t, h)
        # All components of a group start equal and receive identical updates,
        # so one simulated value stands for the whole group.
        value = t ** h

        def flip_coefficient(v: float) -> float:
            return abs(v) * (1.0 + 1.0 / t)

        # Tune the last pass so saturation can land bit-exactly on 1/sqrt(h).
        last_flip: Optional[float] = None
        sat_c: Optional[float] = None
        if passes > 0:
            pre_last = value
            for _ in range(passes - 1):
                s = math.copysign(1.0, pre_last)
                pre_last = pre_last - flip_coefficient(pre_last) * s
            s_last = math.copysign(1.0, pre_last)
            for cand in _ulp_candidates(flip_coefficient(pre_last)):
                if cand <= 0.0:
                    continue
                landed = pre_last - cand * s_last
                c_exact = _exact_saturation(abs(landed), q)
                if c_exact is not None:
                    last_flip, sat_c = cand, c_exact
                    break
        else:
            sat_c = _exact_saturation(abs(value), q)
        exact = sat_c is not None

        # flip passes
        for p in range(passes):
            s = math.copysign(1.0, value)
            c = flip_coefficient(value)
            if p == passes - 1 and last_flip is not None:
                c = last_flip
            for i in idxs:
                coeffs.append(c)
                selections.append(_atom(s, i))
            value = value - c * s
            step += len(idxs)
        modulus = abs(value)
        lo, hi = t / math.sqrt(h), 1.0 / math.sqrt(h)
        if not lo - 1e-12 <= modulus <= hi + 1e-12:
            raise PlanConstructionError(
                f"group h={h}: modulus {modulus:.17g} left the bracket [{lo:.17g}, {hi:.17g}]")

        # saturation
        s = math.copysign(1.0, value)
        c = sat_c if sat_c is not None else _nearest_saturation(modulus, q)
        for i in idxs:
            coeffs.append(c)
            selections.append(_atom(s, i))
        value = value - c * s
        step += len(idxs)
        subnorm_one_step = step

        # zeroing: coefficient equals the current modulus, so cancellation is exact
        s = math.copysign(1.0, value)
        c = abs(value)
        if exact and c != q:
            raise PlanConstructionError(f"group h={h}: saturation missed 1/sqrt(h)")
        for i in idxs:
            coeffs.append(c)
            selections.append(_atom(s, i))
        value = value - c * s
        step += len(idxs)
        if value != 0.0:
            raise PlanConstructionError(f"group h={h}: zeroing left {value:.17g}")

        group_coeffs = coeffs[first_step - 1:step]
        worst = max(group_coeffs)
        if worst > cap:
            raise PlanConstructionError(
                f"group h={h}: coefficient {worst:.17g} exceeds 2/sqrt(h)={cap:.17g}")
        marks.append(GroupMarks(j, h, first_step, subnorm_one_step, step, exact))

    return AdversarialPlan(cfg, Explicit(coeffs), selections, marks)


def run_plan(plan: AdversarialPlan, max_steps: Optional[int] = None) -> Trace:
    """Execute a built schedule; an Aborted status means a construction bug."""
    if max_steps is None:
        max_steps = len(plan) + 1   # one extra step so the stop rule is observed
    return run(
        build_target(plan.config),
        SymmetrizedOnb(),
        plan.coefficients,
        ConstantWeakening(plan.config.t),
        policy=Scripted(plan.selections),
        max_steps=max_steps,
    )


def run_counterexample(cfg: CounterexampleConfig, max_steps: Optional[int] = None) -> Trace:
    """Build and execute the scripted schedule for cfg."""
    return run_plan(build_plan(cfg), max_steps)
