"""Post-hoc verification of traces: the identities a sound run must satisfy.

All checks are pure functions of the trace. Each computes one violation per
step it applies to and hands them to the one scan, ``_worst_step``: the first
largest violation is the worst, a NaN violation is worse than any number (the
check fails and reports the step of the first one), and the report carries
the worst also on pass, so near-misses are visible. Squares are products, so
a value whose square overflows yields an inf or NaN violation, never an
OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .dictionaries import CoherenceEstimate
from .engine import Trace
from .errors import ConfigInvalidError, PreconditionUnmetError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    step: Optional[int] = None      # step of the worst violation
    applicable_steps: Optional[int] = None


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json_obj(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [asdict(c) for c in self.checks]}

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.checks + other.checks)


def _worst_step(name: str, trace: Trace, steps: list, violations: list,
                tol: float) -> VerificationReport:
    """The one-check report of violations[i], observed at step steps[i]: the
    first largest violation is the worst, a NaN is worse than any number, and
    the check passes when the worst is at most tol. A tol that is not finite
    and >= 0 raises ConfigInvalidError; an empty trace raises
    PreconditionUnmetError."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigInvalidError(
            f"{name.replace('_', ' ')} tolerance must be finite and >= 0, got {tol}")
    if not trace.steps:
        raise PreconditionUnmetError(f"{name.replace('_', ' ')} needs a nonempty trace")
    worst, at = 0.0, None
    for m, violation in zip(steps, violations):
        # a NaN fails `violation <= worst`; once worst is NaN, it stays
        if not violation <= worst and worst == worst:
            worst, at = violation, m
    return VerificationReport([CheckResult(name, worst <= tol, worst, at, len(violations))])


def verify_energy_identity(trace: Trace, tol: float = 1e-10) -> VerificationReport:
    """||f_m||^2 == ||f_{m-1}||^2 - 2 c_m <f_{m-1}, phi_m> + c_m^2, relative to
    the magnitude of the terms. Step 1 is skipped when the initial norm was
    not recorded (CSV traces)."""
    steps, violations = [], []
    prev = trace.initial_norm
    for r in trace.steps:
        if prev is not None:
            c = r.c
            rhs = prev * prev - 2.0 * c * r.ip + c * c
            scale = max(prev * prev + 2.0 * abs(c * r.ip) + c * c, 1e-300)
            steps.append(r.m)
            violations.append(abs(r.residual_norm * r.residual_norm - rhs) / scale)
        prev = r.residual_norm
    return _worst_step("energy_identity", trace, steps, violations, tol)


def verify_greedy_condition(trace: Trace, tol: float = 1e-12) -> VerificationReport:
    """ip >= t*sup - tol at every recorded step."""
    return _worst_step("greedy_condition", trace, [r.m for r in trace.steps],
                       [r.t * r.sup - r.ip for r in trace.steps], tol)


def verify_descent_inequality(trace: Trace, c_est: CoherenceEstimate, epsilon: float,
                              from_step: int, tol: float = 1e-10) -> VerificationReport:
    """Per-step descent bound for finite dictionaries.

    On steps m >= from_step whose entering residual is at least epsilon/c, the
    squared norm must drop by at least c_m * t_m * epsilon. Requires the window
    condition t_m > 0, c_m/t_m < epsilon and c_m < epsilon/c beyond from_step.
    With the true coherence constant the bound cannot fail on a sound trace; a
    sampled estimate only upper-bounds that constant, so failures under an
    estimate are advisory. An epsilon that is not finite and > 0 raises
    ConfigInvalidError.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ConfigInvalidError(f"epsilon must be finite and > 0, got {epsilon}")
    threshold = epsilon / c_est.value
    prev = trace.initial_norm
    steps, violations, seen = [], [], 0
    for r in trace.steps:
        if r.m >= from_step:
            seen += 1
            if not (r.t > 0.0 and r.c / r.t < epsilon and r.c < threshold):
                raise PreconditionUnmetError(
                    f"step {r.m}: c={r.c:g}, t={r.t:g} violate the window condition "
                    f"(need c/t < {epsilon:g} and c < {threshold:g}); raise from_step")
            if prev is not None and prev >= threshold:
                steps.append(r.m)
                violations.append(r.residual_norm * r.residual_norm
                                  - (prev * prev - r.c * r.t * epsilon))
        prev = r.residual_norm
    if seen == 0:
        raise PreconditionUnmetError(
            f"no steps at or beyond from_step={from_step} in a {len(trace.steps)}-step trace")
    return _worst_step("descent_inequality", trace, steps, violations, tol)


def verify_block_partition(trace: Trace) -> VerificationReport:
    """Direct-sum bookkeeping: every step carries a block label consistent with
    its atom id. Disjointness and coverage of the per-block step sets then hold
    by construction; a mixed trace (some rows labeled, some not) fails, with
    violation 1.0 at its first bad step."""
    unlabeled = all(r.block is None for r in trace.steps)
    violations = []
    for r in trace.steps:
        expected = r.atom.id[1] if r.atom.id and r.atom.id[0] == "b" else None
        violations.append(0.0 if r.block == expected and (r.block is None) == unlabeled else 1.0)
    return _worst_step("block_partition", trace, [r.m for r in trace.steps], violations, 0.0)


def residual_extrema(trace: Trace, burn_in: int = 0):
    """Prefix minima and maxima of the residual norm beyond burn_in steps:
    finite-horizon stand-ins for liminf and limsup."""
    if burn_in < 0 or burn_in >= len(trace.steps):
        raise PreconditionUnmetError(
            f"burn_in must lie in [0, {len(trace.steps)}), got {burn_in}")
    running_min, running_max = [], []
    lo, hi = math.inf, -math.inf
    for r in trace.steps[burn_in:]:
        lo = min(lo, r.residual_norm)
        hi = max(hi, r.residual_norm)
        running_min.append(lo)
        running_max.append(hi)
    return running_min, running_max
