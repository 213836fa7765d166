"""Whole runs of `engine.run` against the naive oracle in `tests/oracle.py`.

Each example builds one of the five dictionary kinds and a target from drawn
dyadic values, planted exact ties and near-ties (1 ulp, and 1e-13 to 4e-13
apart, inside `WITNESS_BAND`), and runs it with `engine.run` and with the
oracle. The two must agree bit for bit: every record's atom id, c, t, ip, sup,
residual norm and block, the final status, the exception class that aborted
the run, and every remainder the policy was handed, read back after the run.
`Scripted` replays of a `MaxGreedy` plan at t < 1 must reproduce the plan, and
plans with a planted inadmissible or unknown id, or cut short, must abort at
the same step for the same reason in both. A trace's CSV must read back and
rewrite to the same bytes.
"""

import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from greedyexp.core import SparseVector
from greedyexp.dictionaries import (
    MaxGreedy,
    Scripted,
    direct_sum,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
    pushforward,
)
from greedyexp.engine import read_trace_csv, run, write_trace_csv
from greedyexp.sequences import ConstantWeakening, Explicit, Harmonic, Power

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# head atoms live on 1..HEAD_DIM; targets also reach the basis tail beyond it
HEAD_DIM = 4
TARGET_DIM = 7
MAX_STEPS = 40

DYADIC = st.builds(lambda k, e: k * 2.0 ** e, st.integers(-12, 12).filter(bool),
                   st.integers(-4, 1))
# 1 ulp either way, and gaps inside WITNESS_BAND (5e-13)
NUDGES = st.sampled_from(["up", "down", 1e-13, -1e-13, 4e-13, -4e-13])


def nudge(x: float, how) -> float:
    if how == "up":
        return math.nextafter(x, math.inf)
    if how == "down":
        return math.nextafter(x, -math.inf)
    return x + how


@st.composite
def plain_targets(draw, dim=TARGET_DIM):
    """A plain-index target of dyadic entries, some of them copied with a sign
    flip or nudged by at most 4e-13, so that ties and near-ties arise. Scaled
    up, a head score's rounding error outgrows WITNESS_BAND."""
    scale = draw(st.sampled_from([1.0, 1.0, 2.0 ** 12, 2.0 ** 24]))
    entries = draw(st.dictionaries(st.integers(1, dim), DYADIC.map(lambda x: x * scale),
                                   min_size=1, max_size=dim))
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.sampled_from(sorted(entries))), draw(st.integers(1, dim))
        value = entries[src] * draw(st.sampled_from([1.0, -1.0]))
        entries[dst] = draw(st.one_of(st.just(value), NUDGES.map(lambda h: nudge(value, h))))
    return entries


def vectors(draw, count):
    """count nonzero dyadic vectors on 1..HEAD_DIM, the last one possibly a
    copy of the first with one entry nudged, so that head rows nearly tie."""
    out = [draw(st.dictionaries(st.integers(1, HEAD_DIM), DYADIC, min_size=1))
           for _ in range(count)]
    if count > 1 and draw(st.booleans()):
        i = draw(st.sampled_from(sorted(out[0])))
        out[-1] = {**out[0], i: nudge(out[0][i], draw(NUDGES))}
    return [SparseVector(v) for v in out]


# orthogonal maps on 1..HEAD_DIM: a signed permutation is exact, a 3-4-5
# rotation makes every rotated atom inexact
SIGNED_PERMUTATION = [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                      [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0]]
ROTATION = [[0.6, -0.8, 0.0, 0.0], [0.8, 0.6, 0.0, 0.0],
            [0.0, 0.0, 0.8, 0.6], [0.0, 0.0, -0.6, 0.8]]


@st.composite
def headed(draw, kinds=("symmetrized_onb", "finite", "augmented_onb", "pushforward")):
    kind = draw(st.sampled_from(kinds))
    if kind == "symmetrized_onb":
        return make_symmetrized_onb()
    if kind == "finite":
        return make_finite(vectors(draw, draw(st.integers(1, 4))))
    if kind == "augmented_onb":
        return make_augmented_onb(vectors(draw, draw(st.integers(0, 3))), range(1, HEAD_DIM + 1))
    base = draw(headed(kinds=("symmetrized_onb", "finite", "augmented_onb")))
    return pushforward(base, draw(st.sampled_from([SIGNED_PERMUTATION, ROTATION])))


KINDS = ("symmetrized_onb", "finite", "augmented_onb", "pushforward", "direct_sum")


@st.composite
def cases(draw):
    """(target, dictionary, coefficients) over one of the five kinds."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "direct_sum":
        components = [draw(headed()) for _ in range(draw(st.integers(1, 3)))]
        entries = {}
        for l in draw(st.sets(st.integers(1, len(components)), min_size=1)):
            entries.update({(l, i): x for i, x in draw(plain_targets()).items()})
        dictionary = direct_sum(components)
    else:
        entries, dictionary = draw(plain_targets()), draw(headed(kinds=(kind,)))
        if dictionary.head and draw(st.booleans()):
            # a large multiple of the first head atom, slightly off: the atom
            # and its near-copy tie within the rounding of their dense-head scores
            row = dictionary.head[0].vector
            scale = draw(st.sampled_from([1.0, 2.0 ** 12, 2.0 ** 24]))
            entries = {i: scale * (row.get(i) + draw(DYADIC) * 2.0 ** -20)
                       for i in range(1, HEAD_DIM + 1)}
    # dyadic coefficients cancel dyadic entries exactly, and a list may run
    # out; the entries' magnitudes in falling order take a basis to the stop rule
    coefficients = draw(st.one_of(
        st.just(Harmonic()),
        st.just(Power(0.5)),
        st.lists(DYADIC.map(abs), min_size=1, max_size=MAX_STEPS).map(Explicit),
        st.just(Explicit(sorted(map(abs, entries.values()), reverse=True) + [1.0] * MAX_STEPS)),
    ))
    return SparseVector(entries), dictionary, coefficients


class Keeper:
    """A policy that keeps every remainder it is handed and reads the previous
    one at every step, so that kept remainders are rebuilt along the chain."""

    def __init__(self, policy):
        self.policy = policy
        self.needs_witness = policy.needs_witness
        self.kept = []

    def choose(self, step, dictionary, f, t, sup, witness):
        if self.kept:
            dict(self.kept[-1].items())
        self.kept.append(f)
        return self.policy.choose(step, dictionary, f, t, sup, witness)


def assert_same_run(target, dictionary, coefficients, t, policy, max_steps=MAX_STEPS):
    """Run both and compare them; returns the engine's trace."""
    keeper = Keeper(policy)
    trace = run(target, dictionary, coefficients, ConstantWeakening(t), policy=keeper,
                max_steps=max_steps)
    steps, status = oracle.run(target, dictionary, coefficients, ConstantWeakening(t),
                               policy, max_steps)
    got = [(r.m, r.atom.id, r.c.hex(), r.t.hex(), r.ip.hex(), r.sup.hex(),
            r.residual_norm.hex(), r.block) for r in trace.steps]
    want = [(m, aid, c.hex(), tt.hex(), ip.hex(), sup.hex(), residual.hex(), block)
            for m, aid, c, tt, ip, sup, residual, block, _ in steps]
    assert got == want
    reason = trace.status.reason
    raised = reason.split(": ", 1)[0] if reason and ": " in reason else None
    assert (trace.status.kind, trace.status.step, raised) == status
    handed = [r for *_, r in steps]
    assert [dict(f.items()) for f in keeper.kept[:len(handed)]] == handed
    assert keeper.kept[:len(handed)] == [SparseVector(r) for r in handed]
    return trace


def negation(aid):
    """The id of the negated atom: the other sign of a basis atom, the other
    half of a materialized pair."""
    if aid[0] == "e":
        return ("e", 1 - aid[1], aid[2])
    if aid[0] == "y":
        return ("y", aid[1] ^ 1)
    return ("b", aid[1], negation(aid[2]))


@PROPERTY
@given(cases(), st.sampled_from([1.0, 0.75]))
def test_max_greedy_runs_match_the_oracle(case, t):
    target, dictionary, coefficients = case
    assert_same_run(target, dictionary, coefficients, t, MaxGreedy())


@PROPERTY
@given(cases(), st.sampled_from([0.5, 0.25]), st.data())
def test_scripted_replays_and_planted_ids_match_the_oracle(case, t, data):
    target, dictionary, coefficients = case
    trace = run(target, dictionary, coefficients, ConstantWeakening(1.0), max_steps=MAX_STEPS)
    plan = [r.atom.id for r in trace.steps]
    replay = assert_same_run(target, dictionary, coefficients, t, Scripted(plan),
                             max_steps=len(plan))
    assert [r.atom.id for r in replay.steps] == plan
    if not plan:
        return
    k = data.draw(st.integers(0, len(plan) - 1))
    how = data.draw(st.sampled_from(["negated", "unknown", "cut"]))
    if how == "negated":
        # inadmissible whenever the sup at step k + 1 is positive
        planted = plan[:k] + [negation(plan[k])] + plan[k + 1:]
    elif how == "unknown":
        planted = plan[:k] + [("b", 99, ("y", 0)) if plan[k][0] == "b" else ("y", 99)]
    else:
        planted = plan[:k]
    bad = assert_same_run(target, dictionary, coefficients, t, Scripted(planted))
    if how == "unknown":
        assert (bad.status.kind, bad.status.step) == ("aborted", k + 1)
    if how == "negated" and trace.steps[k].sup > 0:
        assert bad.status.step == k + 1 and "NoAdmissibleAtomError" in bad.status.reason


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cases())
def test_trace_csv_rewrites_the_same_bytes(case):
    target, dictionary, coefficients = case
    trace = assert_same_run(target, dictionary, coefficients, 1.0, MaxGreedy())
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        write_trace_csv(trace, first)
        write_trace_csv(read_trace_csv(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def test_runs_reach_the_stop_rule_and_cancel_exactly():
    # entries equal to the coefficients: every step cancels one entry exactly
    target = SparseVector({1: 0.5, 2: 0.25, 6: 0.125})
    trace = assert_same_run(target, make_symmetrized_onb(), Explicit([0.5, 0.25, 0.125]), 1.0,
                            MaxGreedy())
    assert (trace.status.kind, trace.status.step) == ("stopped", 4)
