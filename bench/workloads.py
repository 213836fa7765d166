"""Seeded inputs and timed bodies of the benchmark workloads.

Each workload turns a seed into input files under its work directory; the
program only ever sees those files (or the values read back from them). A
workload offers these things:

- ``setup(gx)``: what a fresh process does before its first step, given the
  imported ``greedyexp`` package (used by ``probe.py`` to time set-up);
- ``expand(gx)`` and ``verify(gx, rep)``: the two timed phases of one
  repetition, through the public library or CLI. ``expand`` returns a
  ``Rep`` with its timings and the path of the trace CSV, ``verify`` adds
  its own; ``body(gx)`` runs both back to back;
- ``reference()``: the inputs the dense replay in ``replay.py`` needs, built
  from the generated data alone.

Why these three workloads, and which layer each one loads, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("onb_wide", "heads_blocks", "counterexample_roundtrip")

# Sizes per workload: "full" is what the benchmark measures, "tiny" what the
# smoke test runs. Trace digests are pinned for "full" at the default seed.
# A full repetition takes about half a second, so that a run holds dozens of
# them and each one is short next to the host's changes of speed (see
# reference.py).
SIZES = {
    "onb_wide": {"full": {"coords": 1000, "steps": 1000},
                 "tiny": {"coords": 40, "steps": 60}},
    "heads_blocks": {"full": {"tail": 270, "finite_atoms": 60, "finite_dim": 30,
                              "extras": 20, "aug_coords": 30, "steps": 250},
                     "tiny": {"tail": 12, "finite_atoms": 8, "finite_dim": 5,
                              "extras": 4, "aug_coords": 8, "steps": 60}},
    "counterexample_roundtrip": {"full": {"groups": 24}, "tiny": {"groups": 4}},
}

# counterexample_roundtrip draws its weakening parameter from this list.
COUNTEREXAMPLE_TS = (0.48, 0.49, 0.5, 0.51, 0.52)

# heads_blocks: the pushforward acts on the first PUSH_DIM coordinates of
# block 1, its augmented base has extras inside E' = {1..PUSH_E_PRIME}; block 3
# is a plain augmented basis with E' = {1..AUG_E_PRIME}.
PUSH_DIM = 40
PUSH_E_PRIME = 8
AUG_E_PRIME = 6
POWER_ALPHA = 0.75
# Verification passes per repetition. One pass of onb_wide (1 000 rows in
# memory, about 1.5 ms), of heads_blocks (`check` on 250 rows, about 5 ms) or
# of counterexample_roundtrip (`check` on about 5 300 rows, 70 ms) is too
# short to time steadily alone on a shared machine, so each repetition
# verifies the same trace several times; verify_s is the time of one pass.
VERIFY_PASSES = {"onb_wide": 20, "heads_blocks": 10, "counterexample_roundtrip": 3}
HEADS_T = 0.7


@dataclass
class Rep:
    """One repetition: timings of its two phases and what it produced.
    expand_wall_s is the whole expansion phase (for onb_wide also building the
    inputs), expand_s the expanding call alone; verify_wall_s is every
    verification pass, verify_s one of them. A trace kept in memory
    (``trace``) is written to ``trace_csv`` after timing. ``expand_scale``
    and ``verify_scale`` turn each phase's measured times into times at the
    reference speed (reference.py)."""

    expand_wall_s: float
    expand_s: float
    trace_csv: str
    problems: list = field(default_factory=list)
    trace: object = None
    verify_wall_s: float = 0.0
    verify_s: float = 0.0
    expand_scale: float = 1.0
    verify_scale: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.expand_wall_s + self.verify_wall_s

    @property
    def scaled_wall_s(self) -> float:
        return self.expand_wall_s * self.expand_scale + self.verify_wall_s * self.verify_scale


class Workload:
    def body(self, gx) -> Rep:
        """One repetition, its phases back to back."""
        rep = self.expand(gx)
        self.verify(gx, rep)
        return rep


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _cli(gx, argv: list) -> int:
    """greedyexp.cli.main in-process, with its console output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return gx.cli.main(argv)


def _check_passes(gx, name: str, rep: Rep) -> None:
    """VERIFY_PASSES[name] CLI checks of the repetition's trace."""
    t0 = time.perf_counter()
    codes = {_cli(gx, ["check", "--trace", rep.trace_csv]) for _ in range(VERIFY_PASSES[name])}
    rep.verify_wall_s = time.perf_counter() - t0
    rep.verify_s = rep.verify_wall_s / VERIFY_PASSES[name]
    if codes != {0}:
        rep.problems.append(f"exit codes check={codes}, want {{0}}")


def orthogonal_matrix(rng: np.random.Generator, dim: int) -> list:
    """Q of the QR factorization of a seeded Gaussian, by modified Gram-Schmidt
    run twice in plain Python floats, so the matrix is the same on every
    machine (LAPACK results may differ in the last bits between builds)."""
    cols = [[float(x) for x in col] for col in rng.standard_normal((dim, dim)).T]
    basis = []
    for v in cols:
        for _ in range(2):
            for q in basis:
                proj = sum(a * b for a, b in zip(q, v))
                v = [a - proj * b for a, b in zip(v, q)]
        n = math.sqrt(sum(a * a for a in v))
        basis.append([a / n for a in v])
    # basis holds the columns; the config wants rows
    return [[basis[j][i] for j in range(dim)] for i in range(dim)]


def _dense_atoms(rng: np.random.Generator, count: int, dim: int) -> list:
    return [[[i + 1, float(x)] for i, x in enumerate(row)]
            for row in rng.standard_normal((count, dim))]


class OnbWide(Workload):
    """Library ``run`` on the symmetrized basis with a wide seeded target."""

    name = "onb_wide"
    via_cli = False

    def __init__(self, seed: int, size: str, work_dir: str):
        p = SIZES[self.name][size]
        rng = _rng(seed, self.name)
        n = p["coords"]
        values = rng.uniform(0.5, 1.5, n) / np.arange(1, n + 1)
        self.pairs = [[i + 1, float(v)] for i, v in enumerate(values)]
        self.max_steps = p["steps"]
        self.target_path = _write_json(os.path.join(work_dir, "target.json"), self.pairs)
        self.trace_path = os.path.join(work_dir, "trace.csv")

    def setup(self, gx):
        with open(self.target_path) as fh:
            target = gx.SparseVector.from_json(json.load(fh))
        return target, gx.dictionaries.make_symmetrized_onb()

    def expand(self, gx) -> Rep:
        t0 = time.perf_counter()
        target = gx.SparseVector.from_json(self.pairs)
        dictionary = gx.dictionaries.make_symmetrized_onb()
        t1 = time.perf_counter()
        trace = gx.engine.run(target, dictionary, gx.sequences.Harmonic(),
                              gx.sequences.ConstantWeakening(1.0),
                              max_steps=self.max_steps)
        t2 = time.perf_counter()
        problems = []
        if trace.status.kind != "exhausted" or len(trace.steps) != self.max_steps:
            problems.append(f"run ended {trace.status} after {len(trace.steps)} steps")
        return Rep(t2 - t0, t2 - t1, self.trace_path, problems, trace)

    def verify(self, gx, rep: Rep) -> None:
        t0 = time.perf_counter()
        for _ in range(VERIFY_PASSES[self.name]):
            report = gx.analysis.verify_energy_identity(rep.trace)
            report = report.merged(gx.analysis.verify_greedy_condition(rep.trace))
        rep.verify_wall_s = time.perf_counter() - t0
        rep.verify_s = rep.verify_wall_s / VERIFY_PASSES[self.name]
        rep.problems.extend(f"{c.name} failed at step {c.step}" for c in report.failed())

    def reference(self) -> dict:
        return {"kind": "onb", "target": self.pairs, "t": 1.0, "policy": "max_greedy",
                "coefficients": ("harmonic", 1.0), "expect": ("exhausted", self.max_steps)}


class HeadsBlocks(Workload):
    """CLI ``run`` then ``check`` on a direct sum of materialized-head blocks."""

    name = "heads_blocks"
    via_cli = True

    def __init__(self, seed: int, size: str, work_dir: str):
        p = SIZES[self.name][size]
        rng = _rng(seed, self.name)
        self.matrix = orthogonal_matrix(rng, PUSH_DIM)
        self.push_extras = _dense_atoms(rng, p["extras"], PUSH_E_PRIME)
        self.finite_atoms = _dense_atoms(rng, p["finite_atoms"], p["finite_dim"])
        self.aug_extras = _dense_atoms(rng, max(2, p["extras"] // 2), AUG_E_PRIME)
        sizes = (PUSH_DIM + p["tail"], p["finite_dim"], p["aug_coords"])
        target = []
        for block, n in enumerate(sizes, start=1):
            values = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
            values /= np.sqrt(np.arange(1, n + 1))
            target.extend([[block, i + 1], float(v)] for i, v in enumerate(values))
        self.target = target
        self.max_steps = p["steps"]
        self.trace_path = os.path.join(work_dir, "trace.csv")
        self.meta_path = os.path.join(work_dir, "meta.json")
        config = {
            "target": {"inline": target},
            "dictionary": {"kind": "direct_sum", "components": [
                {"kind": "pushforward", "matrix": self.matrix,
                 "base": {"kind": "augmented_onb", "e_prime": list(range(1, PUSH_E_PRIME + 1)),
                          "extra": self.push_extras}},
                {"kind": "finite", "atoms": self.finite_atoms},
                {"kind": "augmented_onb", "e_prime": list(range(1, AUG_E_PRIME + 1)),
                 "extra": self.aug_extras},
            ]},
            "coefficients": {"kind": "power", "alpha": POWER_ALPHA},
            "weakening": {"kind": "constant_t", "t": HEADS_T},
            "policy": {"kind": "max_greedy"},
            "max_steps": self.max_steps,
            "outputs": {"trace": self.trace_path, "metadata": self.meta_path},
        }
        self.config_path = _write_json(os.path.join(work_dir, "config.json"), config)

    def setup(self, gx):
        with open(self.config_path) as fh:
            config = json.load(fh)
        return (gx.SparseVector.from_json(config["target"]["inline"]),
                gx.dictionaries.dictionary_from_config(config["dictionary"]),
                gx.sequences.coefficients_from_config(config["coefficients"]),
                gx.sequences.weakening_from_config(config["weakening"]))

    def expand(self, gx) -> Rep:
        t0 = time.perf_counter()
        run_code = _cli(gx, ["run", "--config", self.config_path])
        t1 = time.perf_counter()
        problems = [] if run_code == 0 else [f"exit code run={run_code}, want 0"]
        with open(self.meta_path) as fh:
            status = json.load(fh)["status"]
        if status["kind"] != "exhausted" or status["step"] != self.max_steps:
            problems.append(f"run ended {status}, want exhausted at {self.max_steps}")
        return Rep(t1 - t0, t1 - t0, self.trace_path, problems)

    def verify(self, gx, rep: Rep) -> None:
        _check_passes(gx, self.name, rep)

    def reference(self) -> dict:
        return {"kind": "heads", "target": self.target, "t": HEADS_T, "policy": "max_greedy",
                "coefficients": ("power", POWER_ALPHA), "matrix": self.matrix,
                "push_extras": self.push_extras, "finite_atoms": self.finite_atoms,
                "aug_extras": self.aug_extras, "expect": ("exhausted", self.max_steps)}


def counterexample_k(t: float) -> int:
    """Smallest k > 1 with t^k < 1/sqrt(k) and k > t^2/(1-t^2) (the paper's
    group parameter), written out here so the replay does not borrow it."""
    k = 2
    while not (t ** k < 1.0 / math.sqrt(k) and k > t * t / (1.0 - t * t)):
        k += 1
    return k


class CounterexampleRoundtrip(Workload):
    """CLI ``counterexample`` then ``check`` on the t < 1 divergence schedule."""

    name = "counterexample_roundtrip"
    via_cli = True

    def __init__(self, seed: int, size: str, work_dir: str):
        rng = _rng(seed, self.name)
        self.t = COUNTEREXAMPLE_TS[int(rng.integers(len(COUNTEREXAMPLE_TS)))]
        self.groups = SIZES[self.name][size]["groups"]
        self.trace_path = os.path.join(work_dir, "trace.csv")
        self.marks_path = os.path.join(work_dir, "marks.json")

    def setup(self, gx):
        ce = gx.counterexample
        cfg = ce.CounterexampleConfig(t=self.t, k=ce.choose_k(self.t), num_groups=self.groups)
        return ce.build_target(cfg), ce.build_plan(cfg)

    def expand(self, gx) -> Rep:
        t0 = time.perf_counter()
        ce_code = _cli(gx, ["counterexample", "--t", repr(self.t), "--groups", str(self.groups),
                            "--out", self.trace_path, "--marks", self.marks_path])
        t1 = time.perf_counter()
        problems = [] if ce_code == 0 else [f"exit code counterexample={ce_code}, want 0"]
        return Rep(t1 - t0, t1 - t0, self.trace_path, problems)

    def verify(self, gx, rep: Rep) -> None:
        _check_passes(gx, self.name, rep)

    def reference(self) -> dict:
        k = counterexample_k(self.t)
        target = []
        for j in range(self.groups):
            start = len(target) + 1
            target.extend([i, self.t ** (k + j)] for i in range(start, start + k + j))
        return {"kind": "onb", "target": target, "t": self.t, "policy": "scripted",
                "coefficients": None, "expect": ("stopped", None)}


CLASSES = {cls.name: cls for cls in (OnbWide, HeadsBlocks, CounterexampleRoundtrip)}


def make(name: str, seed: int, size: str, work_dir: str):
    os.makedirs(work_dir, exist_ok=True)
    return CLASSES[name](seed, size, work_dir)
