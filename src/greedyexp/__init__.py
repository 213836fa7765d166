"""Greedy expansions with prescribed coefficients in real Hilbert spaces."""

from .core import SparseVector, inner, norm, subtract_scaled
from .dictionaries import (
    Atom,
    CoherenceEstimate,
    Dictionary,
    MaxGreedy,
    Scripted,
    atom_id_str,
    direct_sum,
    dictionary_from_config,
    estimate_coherence,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
    parse_atom_id,
    pushforward,
    spans_ambient,
)
from .engine import StepRecord, Status, Trace, reconstruct, run
from .sequences import (
    ConditionReport,
    ConstantWeakening,
    Explicit,
    ExplicitWeakening,
    Harmonic,
    Power,
    check_conditions,
)

# counterexample and analysis load on first use (PEP 562), so a command that
# runs an expansion never builds their dataclasses: each name below, and each
# of the two modules, resolves through __getattr__ from this table of the
# submodule that defines it
_LAZY = {
    **dict.fromkeys(["counterexample", "AdversarialPlan", "CounterexampleConfig", "build_plan",
                     "build_target", "choose_k", "default_config", "run_counterexample",
                     "run_plan"], "counterexample"),
    **dict.fromkeys(["analysis", "VerificationReport", "residual_extrema",
                     "verify_block_partition", "verify_descent_inequality",
                     "verify_energy_identity", "verify_greedy_condition"], "analysis"),
}
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    """Import the submodule that defines name, cache name here and return it."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
