"""The names the benchmark's tracer (bench/tracer.py) wraps must stay where it
looks them up: it reads ``owner.__dict__[attr]`` for every layer and replaces
it, so a refactor that moves one of them breaks ``bench/run.py --trace 1``,
which the tier-1 suite does not run."""

import importlib.util
import os

import pytest

import greedyexp
from greedyexp import analysis, cli, core, counterexample, dictionaries, engine, sequences
from greedyexp.core import SparseVector

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")

PATCHED = [
    (core.SparseVector, "__init__"),
    (core.SparseVector, "norm"),
    (engine, "inner"),
    (dictionaries, "inner"),
    (engine, "subtract_scaled"),
    *[(cls, attr) for cls in (dictionaries.SymmetrizedOnb, dictionaries.FiniteDictionary,
                              dictionaries.AugmentedOnb, dictionaries.PushforwardDictionary,
                              dictionaries.DirectSumDictionary)
      for attr in ("sup_inner", "realize")],
    (dictionaries.MaxGreedy, "choose"),
    (dictionaries.Scripted, "choose"),
    (dictionaries, "make_symmetrized_onb"),
    (dictionaries, "dictionary_from_config"),
    (cli, "dictionary_from_config"),
    *[(cls, "eval") for cls in (sequences.Harmonic, sequences.Power, sequences.Explicit,
                                sequences.ConstantWeakening, sequences.ExplicitWeakening)],
    (engine, "run"),
    (counterexample, "run"),
    (engine, "write_trace_csv"),
    (engine, "read_trace_csv"),
    (counterexample, "build_plan"),
    (counterexample, "build_target"),
    (analysis, "verify_energy_identity"),
    (analysis, "verify_greedy_condition"),
    (analysis, "verify_block_partition"),
    (cli, "main"),
]


@pytest.mark.parametrize("owner,attr", PATCHED,
                         ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in PATCHED])
def test_traced_attribute_is_owned_where_the_tracer_looks(owner, attr):
    assert callable(owner.__dict__[attr])


def test_dictionary_kinds_are_the_tracer_span_names():
    kinds = {cls.kind for cls in (dictionaries.SymmetrizedOnb, dictionaries.FiniteDictionary,
                                  dictionaries.AugmentedOnb, dictionaries.PushforwardDictionary,
                                  dictionaries.DirectSumDictionary)}
    assert kinds == {"symmetrized_onb", "finite", "augmented_onb", "pushforward", "direct_sum"}


@pytest.mark.skipif(not os.path.exists(TRACER_PATH), reason="bench/ is not in this checkout")
def test_tracer_installs_traces_a_run_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [owner.__dict__[attr] for owner, attr in PATCHED]
    tracer = tracing.Tracer()
    tracer.install(greedyexp)
    try:
        target = SparseVector({i: 1.0 / i for i in range(1, 30)})
        trace = engine.run(target, dictionaries.make_symmetrized_onb(), sequences.Harmonic(),
                           sequences.ConstantWeakening(1.0), max_steps=20)
    finally:
        tracer.restore()
    assert [owner.__dict__[attr] for owner, attr in PATCHED] == originals
    totals = tracer.totals()
    assert totals["engine.run"][0] == 1
    assert totals["core.subtract_scaled"][0] == len(trace.steps) == 20
    assert totals["dictionaries.sup_inner.symmetrized_onb"][0] == 20
    assert tracer.counts["engine.run.steps"] == 20
    assert tracer.counts["core.remainder_support.peak"] == 29


@pytest.mark.skipif(not os.path.exists(TRACER_PATH), reason="bench/ is not in this checkout")
def test_tracer_names_each_kind_whose_methods_are_shared():
    # the headed kinds bind the same sup_inner and realize functions; the
    # tracer must still wrap each class alone and name each span by its kind
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [owner.__dict__[attr] for owner, attr in PATCHED]
    atoms = [SparseVector({1: 0.6, 2: 0.8}), SparseVector({2: 1.0, 3: 1.0})]
    dictionary = dictionaries.direct_sum([
        dictionaries.make_finite(atoms),
        dictionaries.make_augmented_onb(atoms, [1, 2, 3]),
        dictionaries.pushforward(dictionaries.make_finite(atoms), [[0.0, 1.0, 0.0],
                                                                   [0.0, 0.0, 1.0],
                                                                   [1.0, 0.0, 0.0]]),
        dictionaries.make_symmetrized_onb(),
    ])
    target = SparseVector({(l, i): 1.0 / (l + i) for l in range(1, 5) for i in range(1, 6)})
    tracer = tracing.Tracer()
    tracer.install(greedyexp)
    try:
        engine.run(target, dictionary, sequences.Harmonic(), sequences.ConstantWeakening(1.0),
                   max_steps=12)
    finally:
        tracer.restore()
    assert [owner.__dict__[attr] for owner, attr in PATCHED] == originals
    totals = tracer.totals()
    spans = {name for name in totals if name.startswith("dictionaries.sup_inner.")}
    assert spans == {f"dictionaries.sup_inner.{kind}" for kind in tracing.DICTIONARY_KINDS}
    assert all(totals[name][0] > 0 for name in spans)
