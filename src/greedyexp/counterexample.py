"""Constructive divergence example for weakening parameter t < 1 on a symmetrized basis.

The target is a sequence of coordinate groups, group j holding h = k+j entries
all equal to t^h. The scripted schedule processes one group at a time as a list
of rounds; a round is one step per component, in index order, each with the
round's coefficient and the basis atom aligned with the component's sign:

  flip passes   coefficient |v|*(1 + 1/t) flips the sign and divides the
                modulus by t; passes repeat until every modulus lies in
                [t/sqrt(h), 1/sqrt(h)];
  saturation    one round lands every component on -sign(v)/sqrt(h), after
                which the group alone has norm one;
  zeroing       one round with coefficient 1/sqrt(h) cancels it exactly,
                emptying the group.

Every selection meets the weak inequality with equality at worst, every
coefficient in group h stays at or below 2/sqrt(h), and the zeroing steps each
contribute a coefficient of exactly 1/sqrt(h), so the residual norm returns to
one infinitely often while the coefficients still vanish and their sum diverges.

Floating point footnote: all components of a group stay equal, so the builder
simulates one value per group with the engine's own arithmetic, once, and
nudges the last flip pass and the saturation coefficient by a few ulps so that
saturation lands bit-exactly on 1/sqrt(h). That makes the zeroing coefficients
literal floats of 1/sqrt(h) and the cancellations exact. For some (t, h) pairs
no such nudge exists: over t = 0.005, 0.010, ..., 0.995 with 6 groups each,
274 of the 1 194 groups (in 129 of the 199 plans), none below t = 0.21 and 27
of the 54 above t = 0.95. Those groups zero out exactly all the same, with
coefficients within a couple of ulps of 1/sqrt(h) and the marks flag cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import SparseVector
from .dictionaries import Scripted, SymmetrizedOnb
from .engine import Trace, run
from .errors import ConfigInvalidError, PlanConstructionError, number
from .sequences import ConstantWeakening, Explicit

_TUNE_ULPS = 8

# the largest group parameter choose_k searches, reached at t = 0.99954: the
# smallest k grows like log(k)/(2(1-t)), so without a ceiling a t near 1 would
# count up for hours and then build groups of k or more coordinates each
K_CEILING = 10_000


def _check_t(t) -> float:
    """t as a float by errors.number, if it lies in (0, 1)."""
    t = number(t, "weakening parameter")
    if not 0.0 < t < 1.0:
        raise ConfigInvalidError(f"weakening parameter must lie in (0, 1), got {t}")
    return t


@dataclass(frozen=True)
class CounterexampleConfig:
    """t a real number in (0, 1), stored as a float; k and num_groups
    integers, not bools, that a float can hold."""

    t: float
    k: int
    num_groups: int

    def __post_init__(self):
        object.__setattr__(self, "t", _check_t(self.t))
        number(self.k, "group parameter k", integer=True)
        number(self.num_groups, "num_groups", integer=True)
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
    """Smallest k > 1 with t^k < 1/sqrt(k) and k > t^2/(1-t^2). A t that
    needs k > K_CEILING raises ConfigInvalidError, as does a t that is no
    real number in (0, 1)."""
    t = _check_t(t)
    k = 2
    while not (t ** k < 1.0 / math.sqrt(k) and k > t ** 2 / (1.0 - t ** 2)):
        k += 1
        if k > K_CEILING:
            raise ConfigInvalidError(
                f"t={t} needs a group parameter k > {K_CEILING}; give k or a t further from 1")
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
    """The positive ones among x and its neighbors, nearest first: x, x+1ulp, x-1ulp, ..."""
    if x > 0.0:
        yield x
    up = dn = x
    for _ in range(_TUNE_ULPS):
        up = math.nextafter(up, math.inf)
        dn = math.nextafter(dn, -math.inf)
        yield from (c for c in (up, dn) if c > 0.0)


def _saturation(m: float, q: float) -> tuple:
    """(c, exact): the positive coefficient c near m + q whose landing point
    fl(m - c) is closest to -q (ties to the smaller c), and whether it is -q
    exactly. A float sum is 0.0 only when it is exactly 0, so the first
    candidate with a zero gap lands on -q and ends the search."""
    best = None
    for c in _ulp_candidates(m + q):
        gap = abs((m - c) + q)
        if gap == 0.0:
            return c, True
        if best is None or gap < best[0] or (gap == best[0] and c < best[1]):
            best = (gap, c)
    return best[1], False


def _group_rounds(t: float, h: int):
    """Rounds of one group of size h as (coefficient, sign) pairs, and whether
    its zeroing coefficient is bit-exact 1/sqrt(h).

    Every component of the group starts at t^h and receives identical updates,
    so one value stands for the whole group and is updated with the engine's
    own expression value - c * sign. The flip passes come first; the last two
    rounds are saturation and zeroing.
    """
    q = 1.0 / math.sqrt(h)
    passes = flip_passes(t, h)
    value = t ** h
    rounds = []
    for p in range(passes):
        s = math.copysign(1.0, value)
        c = abs(value) * (1.0 + 1.0 / t)
        if p == passes - 1:
            # Tune the last pass so saturation can land bit-exactly on 1/sqrt(h).
            c = next((cand for cand in _ulp_candidates(c)
                      if _saturation(abs(value - cand * s), q)[1]), c)
        rounds.append((c, s))
        value = value - c * s
    modulus = abs(value)
    lo = t / math.sqrt(h)
    if not lo - 1e-12 <= modulus <= q + 1e-12:
        raise PlanConstructionError(
            f"group h={h}: modulus {modulus:.17g} left the bracket [{lo:.17g}, {q:.17g}]")

    # saturation
    c, exact = _saturation(modulus, q)
    s = math.copysign(1.0, value)
    rounds.append((c, s))
    value = value - c * s

    # zeroing: coefficient equals the current modulus, so cancellation is exact
    s, c = math.copysign(1.0, value), abs(value)
    if exact and c != q:
        raise PlanConstructionError(f"group h={h}: saturation missed 1/sqrt(h)")
    rounds.append((c, s))
    value = value - c * s
    if value != 0.0:
        raise PlanConstructionError(f"group h={h}: zeroing left {value:.17g}")

    worst, cap = max(c for c, _ in rounds), 2.0 / math.sqrt(h) + 1e-12
    if worst > cap:
        raise PlanConstructionError(
            f"group h={h}: coefficient {worst:.17g} exceeds 2/sqrt(h)={cap:.17g}")
    return rounds, exact


def build_plan(cfg: CounterexampleConfig) -> AdversarialPlan:
    """Coefficients, scripted selections and phase marks for the whole target.

    Each group's rounds are laid over its indices in order, one step per
    index, selecting the basis atom aligned with the round's sign.
    """
    coeffs, selections, marks = [], [], []
    for j, idxs in enumerate(group_ranges(cfg)):
        h = cfg.k + j
        rounds, exact = _group_rounds(cfg.t, h)
        first_step = len(selections) + 1
        for c, s in rounds:
            for i in idxs:
                coeffs.append(c)
                selections.append(("e", 0 if s > 0 else 1, i))
        # the last round zeroes the group; the one before saturates it
        marks.append(GroupMarks(j, h, first_step, len(selections) - len(idxs),
                                len(selections), exact))
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
