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
from .counterexample import (
    AdversarialPlan,
    CounterexampleConfig,
    build_plan,
    build_target,
    choose_k,
    default_config,
    run_counterexample,
    run_plan,
)
from .analysis import (
    VerificationReport,
    residual_extrema,
    verify_block_partition,
    verify_descent_inequality,
    verify_energy_identity,
    verify_greedy_condition,
)

__version__ = "0.1.0"
