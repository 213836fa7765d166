"""Cold start: what a fresh interpreter loads.

The test modules import numpy themselves, so each check runs its code in a
fresh interpreter and reads sys.modules there. numpy loads only where a dense
array is built (a nonempty head, a pushforward matrix, the coherence tools) and
the process pool only in sweep: the empty heads of the symmetrized basis and
of an augmented basis without extra atoms load nothing.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap

from greedyexp import (SparseVector, atom_id_str, cli, dictionary_from_config, estimate_coherence,
                       make_finite)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ROTATION = [[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]]
PUSHED_FINITE = {"kind": "pushforward", "matrix": ROTATION,
                 "base": {"kind": "finite",
                          "atoms": [[[1, 1.0]], [[2, 1.0], [3, 0.5]], [[1, 0.3], [3, -1.0]]]}}


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports greedyexp from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def last_json(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_neither_numpy_nor_a_process_pool():
    loaded = last_json(fresh("""
        import json, sys
        import greedyexp.cli
        print(json.dumps([m in sys.modules for m in ("numpy", "concurrent.futures.process")]))
    """))
    assert loaded == [False, False]


def test_basis_run_and_counterexample_run_without_numpy(tmp_path):
    out = tmp_path / "ce.csv"
    result = last_json(fresh("""
        import json, sys
        from greedyexp import (ConstantWeakening, Harmonic, SparseVector, cli, make_augmented_onb,
                               make_symmetrized_onb, run)
        target = SparseVector({1: 0.9, 2: -0.4, 3: 0.2})
        steps = [len(run(target, d, Harmonic(), ConstantWeakening(1.0), max_steps=50).steps)
                 for d in (make_symmetrized_onb(), make_augmented_onb([], []))]
        code = cli.main(["counterexample", "--t", "0.5", "--groups", "2", "--out", sys.argv[1]])
        print(json.dumps([steps, code, "numpy" in sys.modules]))
    """, str(out)))
    steps, code, numpy_loaded = result
    assert steps[0] > 0 and steps[0] == steps[1] and code == 0 and not numpy_loaded
    assert out.stat().st_size > 0


def test_pushforward_run_from_a_cold_start_matches_the_same_run_in_process(tmp_path):
    def config(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "target": {"inline": [[1, 0.9], [2, -0.4], [3, 0.2]]},
            "dictionary": PUSHED_FINITE,
            "coefficients": {"kind": "harmonic"},
            "weakening": {"kind": "constant_t", "t": 1.0},
            "max_steps": 50,
            "outputs": {"trace": str(tmp_path / f"{name}.csv"),
                        "metadata": str(tmp_path / f"{name}.meta.json")}}))
        return str(path)

    proc = fresh("""
        import json, sys
        from greedyexp import cli, dictionary_from_config, estimate_coherence
        code = cli.main(["run", "--config", sys.argv[1]])
        estimate = estimate_coherence(dictionary_from_config(json.loads(sys.argv[2])), 64, 7)
        print(json.dumps([code, estimate.value]))
    """, config("cold"), json.dumps(PUSHED_FINITE))
    code, value = last_json(proc)
    assert code == 0
    assert cli.main(["run", "--config", config("warm")]) == 0
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
    assert value == estimate_coherence(dictionary_from_config(PUSHED_FINITE), 64, 7).value


def test_dictionary_pickled_here_answers_in_a_fresh_process():
    dictionary = make_finite([SparseVector({1: 1.0, 2: 0.5}), SparseVector({2: -1.0, 3: 0.25})])
    f = SparseVector({1: 0.3, 2: -0.7, 3: 0.1})
    value, atom = dictionary.sup_inner(f)
    answer = last_json(fresh("""
        import json, pickle, sys
        from greedyexp import SparseVector, atom_id_str
        dictionary = pickle.loads(bytes.fromhex(sys.argv[1]))
        value, atom = dictionary.sup_inner(SparseVector({1: 0.3, 2: -0.7, 3: 0.1}))
        print(json.dumps([value, atom_id_str(atom.id)]))
    """, pickle.dumps(dictionary).hex()))
    assert answer == [value, atom_id_str(atom.id)]


def test_deep_pushforward_chains_load_numpy_at_their_top():
    # a chain of pushforwards reads its matrix before its base, so numpy
    # loads at the top of the chain: a chain close to the recursion limit
    # builds, and one past it raises ConfigInvalidError and leaves numpy whole
    result = last_json(fresh("""
        import json
        from greedyexp import SparseVector, dictionary_from_config, make_finite
        from greedyexp.errors import ConfigInvalidError

        def chain(depth):
            spec = {"kind": "symmetrized_onb"}
            for _ in range(depth):
                spec = {"kind": "pushforward", "base": spec, "matrix": [[1.0]]}
            return spec

        value, atom = dictionary_from_config(chain(300)).sup_inner(SparseVector({2: -3.0}))
        try:
            dictionary_from_config(chain(500))
            deep = None
        except ConfigInvalidError as exc:
            deep = str(exc)
        finite = make_finite([SparseVector({1: 1.0})]).sup_inner(SparseVector({1: 2.0}))[0]
        print(json.dumps([value, atom.id[1:], deep, finite]))
    """))
    assert result == [3.0, [1, 2], "dictionary spec nested too deeply", 2.0]
