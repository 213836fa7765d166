"""Golden traces and plans: seeded runs whose trace CSV bytes and final status
are pinned, and counterexample plans pinned bit for bit.

Each trace case builds its inputs from a seeded ``random.Random`` (whose
``random()`` stream is reproducible across Python versions) and runs through
the CLI, so config parsing, selection and serialization are all covered. The
scripted replays take their plan from a max-greedy library run of the same
inputs, so their pins also cover that run. The expected SHA-256 of every trace
CSV and the final status live in ``tests/golden/traces.json``; a refactor that
changes a single byte fails here.

``tests/golden/plans.json`` pins ``build_plan`` at 30 groups for a grid of t:
the SHA-256 over every coefficient's ``float.hex``, every selection and every
group's marks, plus the step count and the number of groups whose zeroing
coefficient is not bit-exact 1/sqrt(h).

Regenerate the pins only for an intended change of trace bytes or plans:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import hashlib
import json
import math
import os
import random
import sys

import pytest

from greedyexp import engine
from greedyexp.cli import main
from greedyexp.core import SparseVector
from greedyexp.counterexample import build_plan, default_config, run_counterexample
from greedyexp.dictionaries import atom_id_str, dictionary_from_config
from greedyexp.engine import trace_to_json_obj, write_trace_csv
from greedyexp.sequences import coefficients_from_config, weakening_from_config

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "traces.json")
PLANS_PATH = os.path.join(os.path.dirname(__file__), "golden", "plans.json")
PLAN_GROUPS = 30
PLAN_TS = [i / 100 for i in range(5, 100, 5)] + [0.48, 0.49, 0.51, 0.52]


def _dense_row(rng, dim):
    return [[i, rng.uniform(-1.0, 1.0)] for i in range(1, dim + 1)]


def _orthogonal(rng, dim):
    """Product of Givens rotations in plain floats, as nested lists."""
    q = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            for row in q:
                row[a], row[b] = c * row[a] - s * row[b], s * row[a] + c * row[b]
    return q


def _finite_spec(rng, count, dim):
    return {"kind": "finite", "atoms": [_dense_row(rng, dim) for _ in range(count)]}


def _augmented_spec(rng, count, dim):
    return {"kind": "augmented_onb", "e_prime": list(range(1, dim + 1)),
            "extra": [_dense_row(rng, dim) for _ in range(count)]}


def _harmonic_target(size):
    return {"inline": [[i, 1.0 / i] for i in range(1, size + 1)]}


def _random_target(rng, size, offset=0):
    return {"inline": [[offset + i, rng.uniform(-1.0, 1.0)] for i in range(1, size + 1)]}


def _block_target(rng, sizes):
    return {"inline": [[[block, i], rng.uniform(-1.0, 1.0)]
                       for block, size in enumerate(sizes, start=1)
                       for i in range(1, size + 1)]}


def _t(value):
    return {"kind": "constant_t", "t": value}


def _tied_target(rng, size):
    """Runs of equal dyadic magnitudes k/64 with mixed signs, interleaved with
    pairs whose magnitudes lie 1e-13 apart (inside WITNESS_BAND), over
    1..size. Steps of exactly 1/64 keep the runs tied as they descend."""
    values = []
    while len(values) < size:
        magnitude = rng.randint(8, 64) / 64
        if rng.random() < 0.6:
            values.extend(magnitude * rng.choice((1.0, -1.0))
                          for _ in range(rng.randint(2, 7)))
        else:
            values.extend((magnitude * rng.choice((1.0, -1.0)),
                           (magnitude + 1e-13) * rng.choice((1.0, -1.0))))
    rng.shuffle(values)
    return {"inline": [[i, v] for i, v in enumerate(values[:size], start=1)]}


def _flat_target(rng, size):
    return {"inline": [[i, rng.uniform(0.5, 1.0) * rng.choice((1.0, -1.0))]
                       for i in range(1, size + 1)]}


def _near_duplicate_spec(rng, count, copies, dim):
    """A finite dictionary of count Gaussian atoms in dim coordinates plus
    copies of some of them, each copy nudged in one coordinate by 1 ulp or by
    1e-13, shuffled so that a copy may precede its original. A copy's inner
    products trail or lead its original's by far less than WITNESS_BAND."""
    atoms = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(count)]
    for _ in range(copies):
        row = list(rng.choice(atoms[:count]))
        k = rng.randrange(dim)
        if rng.random() < 0.5:
            row[k] = math.nextafter(row[k], rng.choice((math.inf, -math.inf)))
        else:
            row[k] += rng.choice((1e-13, -1e-13))
        atoms.append(row)
    rng.shuffle(atoms)
    return {"kind": "finite",
            "atoms": [[[i, x] for i, x in enumerate(row, start=1)] for row in atoms]}


def head_tie_configs():
    """A dense head with planted near-duplicate atoms at t = 1: the witness
    band, not plain argmax, decides between a copy and its original."""
    rng = random.Random(20261019)
    return {
        "finite_head_ties": dict(
            target={"inline": [[i, rng.gauss(0.0, 1.0)] for i in range(1, 51)]},
            dictionary=_near_duplicate_spec(rng, 160, 40, 50),
            coefficients={"kind": "harmonic"}, weakening=_t(1.0), max_steps=400),
    }


def wide_configs():
    """The wide basis cases: a tie-heavy ONB target and a long augmented run
    whose head competes with the tail, both far wider than the other cases.
    The dense head-tie case has its own seed."""
    rng = random.Random(20261018)
    return {
        **head_tie_configs(),
        "onb_wide_ties": dict(target=_tied_target(rng, 600),
                              dictionary={"kind": "symmetrized_onb"},
                              coefficients={"kind": "explicit", "values": [1 / 64] * 1500},
                              weakening=_t(1.0), max_steps=1500),
        "augmented_wide_t07": dict(target=_flat_target(rng, 300),
                                   dictionary=_augmented_spec(rng, 6, 12),
                                   coefficients={"kind": "power", "alpha": 0.75,
                                                 "scale": 0.5},
                                   weakening=_t(0.7), max_steps=800),
    }


def _max_greedy_plan(config, coefficients):
    """The atom ids, as text, that a max-greedy run of config picks when it
    runs under the given coefficients instead of its own."""
    trace = engine.run(SparseVector.from_json(config["target"]["inline"]),
                       dictionary_from_config(config["dictionary"]),
                       coefficients_from_config(coefficients),
                       weakening_from_config(config["weakening"]),
                       max_steps=config["max_steps"])
    return [atom_id_str(r.atom.id) for r in trace.steps]


def _scripted(config, plan_coefficients=None):
    """config replayed by a scripted policy whose plan is a max-greedy run's atoms."""
    plan = _max_greedy_plan(config, plan_coefficients or config["coefficients"])
    return {**config, "policy": {"kind": "scripted", "atoms": plan}}


# cached: each plan is a whole max-greedy run; produce() copies a config
# before it adds the outputs
@functools.lru_cache(maxsize=None)
def _scripted_configs():
    """Scripted replays at t = 0.7 over a direct sum of pushforward, finite
    and augmented blocks and over a finite dictionary: the whole max-greedy
    plan, and over the direct sum also the plan of a harmonic run replayed
    under power coefficients, which aborts once an atom falls below t*sup."""
    rng = random.Random(20261020)
    power = {"kind": "power", "alpha": 0.75, "scale": 0.5}
    blocks = dict(target=_block_target(rng, [6, 8, 7]),
                  dictionary={"kind": "direct_sum", "components": [
                      {"kind": "pushforward", "base": _augmented_spec(rng, 3, 4),
                       "matrix": _orthogonal(rng, 5)},
                      _finite_spec(rng, 6, 6), _augmented_spec(rng, 3, 5)]},
                  coefficients=power, weakening=_t(0.7), max_steps=300)
    finite = dict(target=_random_target(rng, 6), dictionary=_finite_spec(rng, 10, 6),
                  coefficients={"kind": "power", "alpha": 0.8}, weakening=_t(0.7),
                  max_steps=250)
    return {
        "scripted_direct_sum_t07": _scripted(blocks),
        "scripted_direct_sum_abort": _scripted(blocks, {"kind": "harmonic"}),
        "scripted_finite_t07": _scripted(finite),
    }


def run_configs():
    """name -> run config (without outputs), every input seeded."""
    return {**_small_configs(), **wide_configs(), **_scripted_configs()}


def _small_configs():
    rng = random.Random(20220907)
    harmonic = {"kind": "harmonic"}
    return {
        "onb_t1": dict(target=_harmonic_target(40), dictionary={"kind": "symmetrized_onb"},
                       coefficients=harmonic, weakening=_t(1.0), max_steps=300),
        "onb_t07_power": dict(target=_random_target(rng, 25),
                              dictionary={"kind": "symmetrized_onb"},
                              coefficients={"kind": "power", "alpha": 0.75},
                              weakening=_t(0.7), max_steps=300),
        "finite_t1": dict(target=_random_target(rng, 6), dictionary=_finite_spec(rng, 9, 6),
                          coefficients=harmonic, weakening=_t(1.0), max_steps=250),
        "finite_t07": dict(target=_random_target(rng, 5), dictionary=_finite_spec(rng, 7, 5),
                           coefficients={"kind": "power", "alpha": 0.8}, weakening=_t(0.7),
                           max_steps=250),
        "augmented_t1": dict(target=_random_target(rng, 12),
                             dictionary=_augmented_spec(rng, 4, 5),
                             coefficients=harmonic, weakening=_t(1.0), max_steps=250),
        "augmented_ties": dict(
            target={"inline": [[i, 0.25] for i in range(1, 9)]},
            dictionary={"kind": "augmented_onb", "e_prime": [1, 2, 3, 4],
                        "extra": [[[1, 1.0], [2, 1.0]], [[3, 1.0], [4, -1.0]],
                                  [[1, 1.0], [2, 1.0], [3, 1.0], [4, 1.0]]]},
            coefficients={"kind": "harmonic", "scale": 0.25},
            weakening=_t(1.0), max_steps=120),
        "direct_sum_t07": dict(
            target=_block_target(rng, [4, 6, 5]),
            dictionary={"kind": "direct_sum", "components": [
                _finite_spec(rng, 5, 4), {"kind": "symmetrized_onb"},
                _augmented_spec(rng, 3, 3)]},
            coefficients=harmonic, weakening=_t(0.7), max_steps=250),
        "pushforward_finite": dict(
            target=_random_target(rng, 5),
            dictionary={"kind": "pushforward", "base": _finite_spec(rng, 6, 5),
                        "matrix": _orthogonal(rng, 5)},
            coefficients=harmonic, weakening=_t(1.0), max_steps=250),
        "pushforward_augmented": dict(
            target=_random_target(rng, 10),
            dictionary={"kind": "pushforward", "base": _augmented_spec(rng, 3, 4),
                        "matrix": _orthogonal(rng, 4)},
            coefficients=harmonic, weakening=_t(0.7), max_steps=250),
        "scripted_t07": dict(
            target={"inline": [[1, 1.0], [2, 0.8], [3, -0.75], [4, 0.5]]},
            dictionary={"kind": "augmented_onb", "e_prime": [1, 2],
                        "extra": [[[1, 1.0], [2, 1.0]]]},
            policy={"kind": "scripted",
                    "atoms": ["+e1", "-e3", "+e2", "y0", "+e4", "+e1", "-e2"]},
            coefficients={"kind": "explicit",
                          "values": [0.6, 0.75, 0.5, 0.3, 0.5, 0.1, 0.05]},
            weakening=_t(0.7), max_steps=7),
        "counterexample_target": dict(
            target={"counterexample": {"t": 0.7, "groups": 3}},
            dictionary={"kind": "symmetrized_onb"},
            coefficients=harmonic, weakening={"kind": "explicit", "values": [1.0, 0.7] * 60},
            max_steps=120),
    }


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def produce(name, workdir):
    """(sha256 of the trace CSV, [kind, step, reason]) for one golden case."""
    trace_path = os.path.join(workdir, f"{name}.csv")
    if name in COUNTEREXAMPLE_GROUPS:
        trace = run_counterexample(default_config(0.5, COUNTEREXAMPLE_GROUPS[name]))
        write_trace_csv(trace, trace_path)
        status = trace_to_json_obj(trace)["status"]
    else:
        config = dict(run_configs()[name])
        meta_path = os.path.join(workdir, f"{name}.meta.json")
        config["outputs"] = {"trace": trace_path, "metadata": meta_path}
        config_path = os.path.join(workdir, f"{name}.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        assert main(["run", "--config", config_path]) in (0, 2)
        with open(meta_path) as fh:
            status = json.load(fh)["status"]
    return _digest(trace_path), [status["kind"], status["step"], status["reason"]]


COUNTEREXAMPLE_GROUPS = {"counterexample_6_groups": 6, "counterexample_20_groups": 20}
CASES = sorted(run_configs()) + sorted(COUNTEREXAMPLE_GROUPS)


def plan_pin(t):
    """{"sha256", "steps", "inexact_groups"} of build_plan at PLAN_GROUPS groups."""
    plan = build_plan(default_config(t, PLAN_GROUPS))
    doc = {"coefficients": [c.hex() for c in plan.coefficients.values],
           "selections": [list(atom) for atom in plan.selections],
           "marks": [[m.group, m.h, m.first_step, m.subnorm_one_step, m.zeroed_step,
                      m.unit_coefficient_exact] for m in plan.marks]}
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    return {"sha256": digest, "steps": len(plan),
            "inexact_groups": sum(not m.unit_coefficient_exact for m in plan.marks)}


def _pinned(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)


def test_golden_cases_are_all_pinned():
    assert sorted(_pinned()) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_golden_trace_bytes(name, tmp_path, capsys):
    digest, status = produce(name, str(tmp_path))
    expected = _pinned()[name]
    assert status == expected["status"]
    assert digest == expected["sha256"]


def test_plan_pins_cover_the_grid():
    assert sorted(_pinned(PLANS_PATH)) == sorted(repr(t) for t in PLAN_TS)


@pytest.mark.parametrize("t", PLAN_TS)
def test_golden_plan(t):
    assert plan_pin(t) == _pinned(PLANS_PATH)[repr(t)]


def _write_pins(path, pins):
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(f" {json.dumps(key)}: {json.dumps(pins[key])}"
                                    for key in sorted(pins)) + "\n}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {}
        for case in CASES:
            digest, status = produce(case, tmp)
            pins[case] = {"sha256": digest, "status": status}
            print(f"{case}: {status} {digest}", file=sys.stderr)
    plans = {repr(t): plan_pin(t) for t in PLAN_TS}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    _write_pins(GOLDEN_PATH, pins)
    _write_pins(PLANS_PATH, plans)
