"""Block restrictions carried across steps, and the direct sum's per-block memo.

A block-indexed remainder splits into its block restrictions once; a step
updates only the blocks its atom touches and shares the others, memo
included. These tests pin that carried restrictions and memoized `sup_inner`
answers equal what a fresh vector with the same entries gives, value bits and
witness id alike, and that a step re-selects in one block only.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyexp.core import SparseVector, subtract_scaled
from greedyexp.dictionaries import (
    MaxGreedy,
    direct_sum,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
    pushforward,
)
from greedyexp.engine import run
from greedyexp.errors import GreedyExpansionError
from greedyexp.sequences import ConstantWeakening, Power

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

DIM = 5
_rng = np.random.default_rng(7)


def _vectors(count, dim):
    return [SparseVector({k + 1: float(x) for k, x in enumerate(row)})
            for row in _rng.standard_normal((count, dim))]


def _orthogonal(dim):
    q, r = np.linalg.qr(_rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


FINITE = make_finite(_vectors(4, DIM))
AUGMENTED = make_augmented_onb(_vectors(2, 3), range(1, 4))
PUSHED = pushforward(make_augmented_onb(_vectors(2, 3), range(1, 4)), _orthogonal(DIM))
COMPONENTS = [FINITE, AUGMENTED, PUSHED]
# the same blocks in another order: a memo keyed by block alone would mix them up
SUMS = [direct_sum(COMPONENTS), direct_sum(COMPONENTS[::-1]),
        direct_sum([make_symmetrized_onb()] + COMPONENTS[:2])]
BLOCKS = range(1, len(COMPONENTS) + 2)   # one block beyond every sum
INNER = range(1, DIM + 4)                # past the pushforward range into its tail

VALUES = st.one_of(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                   st.sampled_from([0.5, -0.5, 1.0, 0.25]))
SCALES = st.sampled_from([1.0, 0.5, -0.75, 1.0 / 3, 2.0])
TARGETS = st.dictionaries(st.tuples(st.sampled_from(BLOCKS), st.sampled_from(INNER)), VALUES,
                          max_size=16)
# (kind, block, pick, c, query_first)
STEPS = st.lists(st.tuples(st.sampled_from(["atom", "basis", "plain", "spread", "clear"]),
                           st.sampled_from(BLOCKS), st.integers(0, 40), SCALES,
                           st.booleans()), max_size=25)


def lifted(block, vector):
    return SparseVector({(block, i): x for i, x in vector.items()})


def atom_of(kind, block, pick, f):
    """The vector one step subtracts: a component atom or basis vector lifted
    into `block`, a plain-index vector, one spread over two blocks and a plain
    index, or `block`'s whole restriction, which empties it exactly."""
    if kind == "atom":
        head = COMPONENTS[(block - 1) % len(COMPONENTS)].head
        return lifted(block, head[pick % len(head)].vector)
    if kind == "basis":
        return SparseVector({(block, 1 + pick % len(INNER)): 1.0})
    if kind == "plain":
        return SparseVector({1 + pick % 4: 0.5})
    if kind == "spread":
        other = 1 + block % len(BLOCKS)
        return SparseVector({(block, 1 + pick % DIM): 0.6, (other, 2): -0.8, 3: 0.1})
    return lifted(block, f.block_restriction(block))


def outcome(dictionary, f):
    """(value as hex, witness id) of a sup query, or the exception type it raises."""
    try:
        value, witness = dictionary.sup_inner(f)
    except GreedyExpansionError as exc:
        return type(exc)
    return value.hex(), witness.id


def assert_carried_equals_fresh(f):
    fresh = SparseVector(dict(f.items()))
    for l in BLOCKS:
        assert f.block_restriction(l) == fresh.block_restriction(l)
    for dictionary in SUMS:
        # a new fresh vector each time: the previous one holds memos of its own
        assert outcome(dictionary, f) == outcome(dictionary, SparseVector(dict(f.items())))


@PROPERTY
@given(TARGETS, STEPS)
def test_carried_restrictions_and_memos_equal_a_fresh_query(target, steps):
    f = SparseVector(target)
    kept = [f]
    for kind, block, pick, c, query_first in steps:
        if query_first:
            assert_carried_equals_fresh(f)
        a = atom_of(kind, block, pick, f)
        f = subtract_scaled(f, 1.0 if kind == "clear" else c, a)
        if kind == "clear":
            assert f.block_restriction(block).is_zero()
        kept.append(f)
    assert_carried_equals_fresh(f)
    # parents asked again after their children exist: their memos still hold,
    # their handed-over heaps are rebuilt
    for g in kept[::3]:
        assert_carried_equals_fresh(g)


def _count_calls(components):
    calls = []
    for comp in components:
        def counted(fl, _inner=comp.sup_inner):
            calls.append(1)
            return _inner(fl)
        comp.sup_inner = counted
    return calls


class Keeper(MaxGreedy):
    """Max-greedy that keeps every remainder and how many component queries
    the run had made when it was handed over."""

    def __init__(self, calls):
        self.calls, self.seen = calls, []

    def choose(self, step, dictionary, f, t, sup, witness):
        self.seen.append((f, len(self.calls)))
        return witness


def test_a_step_selects_again_in_one_block_only():
    components = [make_finite(_vectors(6, DIM)), make_augmented_onb(_vectors(2, 3), range(1, 4)),
                  pushforward(make_augmented_onb(_vectors(2, 3), range(1, 4)), _orthogonal(DIM))]
    dictionary = direct_sum(components)
    calls = _count_calls(components)
    target = SparseVector({(l, i): 1.0 / (i + l) for l in (1, 2, 3) for i in range(1, 9)})
    keeper = Keeper(calls)
    trace = run(target, dictionary, Power(0.75, scale=0.5), ConstantWeakening(1.0),
                policy=keeper, max_steps=120)
    assert len(trace.steps) == 120
    counts = [n for _, n in keeper.seen]
    assert counts[0] == 3
    assert all(0 <= b - a <= 1 for a, b in zip(counts, counts[1:]))
    # a kept remainder answers from its memo, and the answer is a fresh one's
    for f, _ in keeper.seen[::10]:
        before = len(calls)
        answer = dictionary.sup_inner(f)
        assert len(calls) == before
        assert answer == dictionary.sup_inner(SparseVector(dict(f.items())))
