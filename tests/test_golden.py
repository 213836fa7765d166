"""Golden traces: seeded runs whose trace CSV bytes and final status are pinned.

Each case builds its inputs from a seeded ``random.Random`` (whose ``random()``
stream is reproducible across Python versions) and runs through the CLI, so
config parsing, selection and serialization are all covered. The expected
SHA-256 of every trace CSV and the final status live in
``tests/golden/traces.json``; a refactor that changes a single byte fails here.

Regenerate the pins only for an intended change of trace bytes:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import os
import random
import sys

import pytest

from greedyexp.cli import main
from greedyexp.counterexample import default_config, run_counterexample
from greedyexp.engine import trace_to_json_obj, write_trace_csv

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "traces.json")


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


def run_configs():
    """name -> run config (without outputs), every input seeded."""
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
    if name == "counterexample_6_groups":
        trace = run_counterexample(default_config(0.5, 6))
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


CASES = sorted(run_configs()) + ["counterexample_6_groups"]


def _pinned():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_cases_are_all_pinned():
    assert sorted(_pinned()) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_golden_trace_bytes(name, tmp_path, capsys):
    digest, status = produce(name, str(tmp_path))
    expected = _pinned()[name]
    assert status == expected["status"]
    assert digest == expected["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {}
        for case in CASES:
            digest, status = produce(case, tmp)
            pins[case] = {"sha256": digest, "status": status}
            print(f"{case}: {status} {digest}", file=sys.stderr)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(f" {json.dumps(case)}: {json.dumps(pins[case])}"
                                    for case in sorted(pins)) + "\n}\n")
