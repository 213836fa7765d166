"""The incremental remainder: its exact square sum, its magnitude heap and the
trusted construction behind them.

A step v - c*a carries v's square sum and magnitude heap to its result and
updates them on a's coordinates only. These tests pin that the carried state
gives what recomputing from the entries gives, bit for bit, and that the
vectors a policy is handed stay as they were, though each step takes their
entry dict over.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyexp.cli import main
from greedyexp.core import (
    SparseVector,
    _units,
    block_parts,
    index_key,
    inner,
    lifted,
    subtract_scaled,
    tail_peak,
)
from greedyexp.dictionaries import (
    WITNESS_BAND,
    MaxGreedy,
    _select,
    basis_atom,
    dictionary_from_config,
    direct_sum,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
)
from greedyexp.engine import Trace, reconstruct, run, write_trace_csv
from greedyexp.errors import ConfigInvalidError, EmptyVectorError
from greedyexp.sequences import ConstantWeakening, Explicit, Power

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# exact running square sum
# ---------------------------------------------------------------------------

# finite squares, including subnormal ones (|x| ~ 1e-160) and ones near the
# top of the range (|x| ~ 1e150); at most 12 of them cannot overflow a sum
MAGNITUDES = st.one_of(
    st.floats(min_value=-1e152, max_value=1e152, allow_nan=False, allow_subnormal=True),
    st.builds(lambda m, e, s: s * m * 10.0 ** e,
              st.floats(min_value=1.0, max_value=9.99),
              st.sampled_from([-170, -160, -155, -150, -20, 0, 20, 150]),
              st.sampled_from([1.0, -1.0])),
)
INDICES = st.integers(min_value=1, max_value=12)
SCALES = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
# (index, c, x): an add or replace, v - c*x*e_i; c None removes entry i exactly
STEPS = st.lists(st.tuples(INDICES, st.one_of(st.none(), SCALES), MAGNITUDES), max_size=40)


def apply_step(v, index, c, x):
    if c is None:   # exact cancellation: v_i - v_i * 1.0 == 0
        return subtract_scaled(v, v.get(index), SparseVector({index: 1.0}))
    return subtract_scaled(v, c, SparseVector({index: x} if x != 0.0 else {}))


def outcome(norm):
    """norm() of a vector, or the type of the exception it raises."""
    try:
        return norm()
    except OverflowError as exc:
        return type(exc)


@PROPERTY
@given(st.dictionaries(INDICES, MAGNITUDES, max_size=12), STEPS)
def test_running_square_sum_is_fsum_bit_for_bit(start, steps):
    v = SparseVector(start)
    for index, c, x in steps:
        v = apply_step(v, index, c, x)
        squares = [y * y for _, y in v.items()]
        if all(math.isfinite(q) for q in squares):
            assert v._square_sum == sum(_units(q) for q in squares)
        else:
            assert v._square_sum is None
        assert outcome(v.norm) == outcome(lambda: math.sqrt(math.fsum(squares)))


def test_square_sum_survives_huge_and_tiny_cancellation():
    v = SparseVector({1: 1e150, 2: 3e-160, 3: -2.5})
    v = subtract_scaled(v, 1.0, SparseVector({1: 1e150, 3: -2.5}))
    assert v == SparseVector({2: 3e-160})
    assert v.norm() == math.sqrt((3e-160) ** 2) > 0.0


@pytest.mark.parametrize("huge", [1e200, math.inf])
def test_non_finite_square_falls_back_to_fsum(huge):
    v = subtract_scaled(SparseVector({1: 0.5, 2: huge}), 1.0, SparseVector({1: 0.25}))
    assert v._square_sum is None
    assert v.norm() == math.inf
    if huge < math.inf:
        back = subtract_scaled(v, huge, SparseVector({2: 1.0}))
        assert back == SparseVector({1: 0.25}) and back.norm() == 0.25


def test_square_sum_overflow_behaves_as_fsum():
    v = subtract_scaled(SparseVector({1: 1e154, 2: 1e154}), 1.0, SparseVector({3: 1.0}))
    with pytest.raises(OverflowError):
        math.fsum(x * x for _, x in v.items())
    with pytest.raises(OverflowError):
        v.norm()


def exact_square_sum(values):
    """The exact square sum in units of 2**-1074, None if a square is not finite."""
    squares = [x * x for x in values]
    if not all(math.isfinite(q) for q in squares):
        return None
    return sum(_units(q) for q in squares)


def bits(norm):
    """norm() as hex, or the type of the exception it raises."""
    result = outcome(norm)
    return result.hex() if isinstance(result, float) else result


# values whose squares are subnormal (1e-160 and below), near 1e+-150, finite
# near 1e308 but overflowing a float sum when two of them meet (1e154), or
# infinite (1e160 and up), besides dyadic values that cancel exactly
DELTA_VALUES = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_subnormal=True),
    st.builds(lambda m, e, s: s * m * 10.0 ** e,
              st.floats(min_value=1.0, max_value=9.99),
              st.sampled_from([-320, -310, -170, -160, -150, 150, 153, 154, 160, 200]),
              st.sampled_from([1.0, -1.0])),
    st.sampled_from([5e-324, -5e-324, 0.5, -0.5, 0.25, 1.0]),
)
DELTA_SCALES = st.sampled_from([1.0, -1.0, 0.5, 3.0, 1.0 / 3, 0.0])
WIDTHS = st.sampled_from([1, 2, 3, 40])
DELTA_COORDS = {
    "plain": list(range(1, 49)),
    "blocks": [(b, i) for b in (1, 2, 3) for i in range(1, 17)],
}


def delta_atom(data, coords, v):
    """(c, atom) of one step over `width` coordinates: drawn values, an exact
    cancellation of present entries, a negation of them (the square sum moves
    by exactly 0) or a step scaled by 0.0."""
    width = data.draw(WIDTHS)
    kind = data.draw(st.sampled_from(["drawn", "drawn", "cancel", "negate"]))
    entries = dict(v.items())
    if kind != "drawn" and entries:
        chosen = data.draw(st.permutations(sorted(entries, key=index_key)))[:width]
        scale = 1.0 if kind == "cancel" else 2.0
        return 1.0, SparseVector({i: scale * entries[i] for i in chosen})
    chosen = data.draw(st.permutations(coords))[:width]
    values = data.draw(st.lists(DELTA_VALUES, min_size=width, max_size=width))
    return data.draw(DELTA_SCALES), SparseVector(dict(zip(chosen, values)))


@settings(PROPERTY, max_examples=150)
@given(st.sampled_from(sorted(DELTA_COORDS)), st.data())
def test_square_sum_delta_is_exact_over_steps_of_any_width(kind, data):
    """Chains of 1-, 2-, 3- and 40-coordinate steps: the carried square sum is
    the exact one whenever every square is finite before and after the step,
    and norm() reads as the fsum over a fresh copy, an OverflowError included."""
    coords = DELTA_COORDS[kind]
    v = SparseVector(data.draw(st.dictionaries(st.sampled_from(coords), DELTA_VALUES,
                                               max_size=12)))
    if kind == "blocks":
        block_parts(v)   # from here on the steps go block by block
    exact = exact_square_sum(x for _, x in v.items())
    for _ in range(data.draw(st.integers(1, 8))):
        c, atom = delta_atom(data, coords, v)
        v = subtract_scaled(v, c, atom)
        values = [x for _, x in v.items()]
        # a non-finite square before or after the step may leave no square sum
        before, exact = exact, exact_square_sum(values)
        if before is None or exact is None:
            assert v._square_sum in (None, exact)
        else:
            assert v._square_sum == exact
        fresh = SparseVector(dict(v.items()))
        assert bits(v.norm) == bits(fresh.norm)
        assert bits(fresh.norm) == bits(lambda: math.sqrt(math.fsum(x * x for x in values)))
        if kind == "blocks" and v._square_sum is not None:
            assert sum(part._square_sum for part, _ in block_parts(v).values()) == exact


def test_norm_reads_as_fsum_over_the_same_entries():
    for values in ([1e154, 1e154], [1.1e154, -5e-324, 3.0], [1e-170, 1e-160, 2.0 ** -1074]):
        v = SparseVector(dict(enumerate(values, start=1)))
        want = outcome(lambda: math.sqrt(math.fsum(x * x for x in values)))
        assert outcome(v.norm) == want
        w = subtract_scaled(SparseVector({}), -1.0, v)
        assert outcome(w.norm) == want


def test_finite_squares_whose_fsum_overflows_keep_the_exact_sum():
    step = SparseVector({1: 1.2e154, 2: -1.3e154, 3: 0.5})
    with pytest.raises(OverflowError):
        math.fsum([1.2e154 ** 2, 1.3e154 ** 2, 0.25])
    v = subtract_scaled(SparseVector({4: 2.0}), -1.0, step)
    assert v._square_sum == exact_square_sum([1.2e154, -1.3e154, 0.5, 2.0]) is not None
    with pytest.raises(OverflowError):
        v.norm()
    # the huge entries cancel exactly, and the carried sum comes back down
    back = subtract_scaled(v, 1.0, SparseVector({1: 1.2e154, 2: -1.3e154}))
    assert back == SparseVector({3: 0.5, 4: 2.0})
    assert back.norm() == math.sqrt(4.25)


def test_a_step_that_moves_the_square_sum_by_zero_keeps_it():
    v = SparseVector({1: 0.75, 2: -1e-160, 3: 1e150})
    before = v.norm()
    w = subtract_scaled(v, 1.0, SparseVector({1: 1.5, 2: -2e-160, 3: 2e150}))
    assert dict(w.items()) == {1: -0.75, 2: 1e-160, 3: -1e150}
    assert w._square_sum == exact_square_sum([0.75, 1e-160, 1e150])
    assert w.norm() == before


# ---------------------------------------------------------------------------
# magnitude heap: the tail's top and band witness
# ---------------------------------------------------------------------------

def scan_select(f, start):
    """The plain two-pass scan the heap replaces."""
    tail = [(i, x) for i, x in f.items() if i >= start]
    if not tail:
        return None
    top = max(abs(x) for _, x in tail)
    return top, min((0 if x > 0 else 1, i) for i, x in tail if abs(x) >= top - WITNESS_BAND)


def heap_select(f, start):
    peak = tail_peak(f, start, WITNESS_BAND)
    if peak is None:
        return None
    top, near = peak
    return top, min((0 if x > 0 else 1, i) for i, x in near)


# planted near-ties: a base magnitude plus offsets just below and just above
# WITNESS_BAND, and the same magnitude with the opposite sign
GAPS = st.sampled_from([0.0, 1e-13, 4.9e-13, 5e-13, 5.1e-13, 1e-12, -1e-13, -5.1e-13])
TIED = st.lists(
    st.tuples(st.integers(1, 60), st.integers(0, 2), GAPS, st.sampled_from([1.0, -1.0])),
    min_size=1, max_size=30)


def tied_vector(base, draws):
    """draws of (index, level, gap, sign) -> sign * (level_value + gap)."""
    levels = (base, base / 2, base / 3)
    return SparseVector({i: sign * (levels[level] + gap) for i, level, gap, sign in draws})


def assert_selects_like_scan(f, start):
    found = scan_select(f, start)
    assert heap_select(f, start) == found
    if found is None:
        with pytest.raises(EmptyVectorError):
            _select(f, (), start)
    else:
        top, (rank, i) = found
        assert _select(f, (), start) == (top, basis_atom(i, 1.0 if rank == 0 else -1.0))


@PROPERTY
@given(st.floats(min_value=1e-3, max_value=10.0), TIED, st.sampled_from([1, 2, 17, 40]), TIED)
def test_heap_selection_equals_two_pass_scan(base, draws, start, updates):
    f = tied_vector(base, draws)
    assert_selects_like_scan(f, start)
    # carry the heap through steps that add, replace and remove entries
    for i, level, gap, sign in updates[:12]:
        new = tied_vector(base, [(i, level, gap, sign)]).get(i) if level else 0.0
        f = subtract_scaled(f, 1.0, SparseVector({i: f.get(i) - new}))
        assert_selects_like_scan(f, start)


def test_heap_finds_band_witness_below_top():
    f = SparseVector({9: 0.75 + 1e-13, 3: -0.75, 5: 0.75, 2: 0.75 - 1e-12})
    assert heap_select(f, 1) == (0.75 + 1e-13, (0, 5))
    assert heap_select(f, 6) == (0.75 + 1e-13, (0, 9))
    assert heap_select(f, 10) is None


def test_stale_heap_nodes_are_rebuilt_past_twice_the_support():
    f = SparseVector({1: 1.0, 2: 0.5})
    tail_peak(f, 1, WITNESS_BAND)
    for _ in range(100):   # each step leaves a stale node for index 2
        f = subtract_scaled(f, 1e-6, SparseVector({2: 1.0}))
        assert heap_select(f, 1) == (1.0, (0, 1))
    assert len(f._heap[1]) <= 2 * f.support_size() + 16 + 1


# ---------------------------------------------------------------------------
# a policy sees immutable remainders
# ---------------------------------------------------------------------------

class Keeper(MaxGreedy):
    """Max-greedy that keeps every remainder it is handed, with a snapshot of
    its entries at the time."""

    def __init__(self):
        self.kept = []

    def choose(self, step, dictionary, f, t, sup, witness):
        self.kept.append((f, dict(f.items())))
        return witness


@pytest.mark.parametrize("dictionary", [
    make_symmetrized_onb(),
    make_augmented_onb([SparseVector({1: 0.6, 2: 0.8}), SparseVector({2: 1.0, 3: -1.0})],
                       [1, 2, 3]),
], ids=["onb", "augmented"])
def test_kept_remainders_stay_unchanged(dictionary):
    target = SparseVector({i: (0.5 if i % 3 else -0.5) + (1e-13 if i % 7 == 0 else 0.0)
                           for i in range(1, 80)})
    keeper = Keeper()
    trace = run(target, dictionary, Power(0.75, scale=0.25), ConstantWeakening(1.0),
                policy=keeper, max_steps=400)
    assert len(keeper.kept) == len(trace.steps) == 400
    norms = [trace.initial_norm] + trace.residual_norms()
    for m, (f, snapshot) in enumerate(keeper.kept):
        assert dict(f.items()) == snapshot
        assert f.norm() == norms[m]
    for f, _ in keeper.kept[::37]:
        fresh = SparseVector(dict(f.items()))
        assert dictionary.sup_inner(f) == dictionary.sup_inner(fresh)


def test_handed_over_heap_is_rebuilt_for_the_parent():
    onb = make_symmetrized_onb()
    f = SparseVector({1: 0.5, 2: -0.5, 3: 0.25})
    assert onb.sup_inner(f)[1].id == ("e", 0, 1)
    g = subtract_scaled(f, 0.5, onb.sup_inner(f)[1].vector)
    assert g._heap is not None and f._heap is None
    assert onb.sup_inner(g)[1].id == ("e", 1, 2)
    assert onb.sup_inner(f)[1].id == ("e", 0, 1)


class Reader(MaxGreedy):
    """Max-greedy that reads the witness and every `every`-th remainder (none
    if every is 0) through each public reader, and keeps every remainder with
    a snapshot of its entries taken from its block restrictions, which leaves
    its flat entries unbuilt."""

    def __init__(self, every=0):
        self.every, self.kept = every, []

    def choose(self, step, dictionary, f, t, sup, witness):
        assert inner(f, witness.vector) >= sup - 2 * WITNESS_BAND
        snapshot = {i: f.block_restriction(i[0]).get(i[1]) for i in SPACE_COORDS}
        snapshot = {i: x for i, x in snapshot.items() if x != 0.0}
        if self.every and step % self.every == 0:
            assert dict(f.items()) == snapshot
            assert set(f.support()) == set(snapshot)
            assert f.support_size() == len(snapshot)
            assert f == SparseVector(snapshot) and hash(f) == hash(SparseVector(snapshot))
            assert f.to_pairs() == SparseVector(snapshot).to_pairs()
        self.kept.append((f, snapshot))
        return witness


SPACE_COORDS = [(b, i) for b in (1, 2, 3) for i in range(1, 13)]


@pytest.mark.parametrize("every", [1, 3])
def test_readers_of_block_remainders_see_them_as_made(tmp_path, every):
    dictionary = direct_sum([
        make_symmetrized_onb(),
        make_finite([SparseVector({1: 0.6, 2: 0.8}), SparseVector({2: 1.0, 3: -1.0})]),
        make_augmented_onb([SparseVector({1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5})], [1, 2, 3, 4]),
    ])
    target = SparseVector({(b, i): (0.5 if (b + i) % 3 else -0.75) / i
                           for b in (1, 2, 3) for i in range(1, 13) if b > 1 or i % 4})
    reader = Reader(every)
    coefficients, weakening = Power(0.75, scale=0.25), ConstantWeakening(1.0)
    traces = {}
    for name, policy in (("reader", reader), ("max_greedy", MaxGreedy())):
        trace = run(target, dictionary, coefficients, weakening, policy=policy, max_steps=150)
        path = tmp_path / f"{name}.csv"
        write_trace_csv(trace, str(path))
        traces[name] = (trace, path.read_bytes())
    trace, data = traces["reader"]
    assert data == traces["max_greedy"][1]
    assert len(reader.kept) == len(trace.steps) == 150
    # remainders left unread are still held as their blocks alone
    assert (every == 1) == all(type(f) is SparseVector for f, _ in reader.kept)
    norms = [trace.initial_norm] + trace.residual_norms()
    for m, (f, snapshot) in enumerate(reader.kept):
        fresh = SparseVector(snapshot)
        assert f.support_size() == len(snapshot)
        assert dict(f.items()) == snapshot and set(f.support()) == set(snapshot)
        assert f == fresh and hash(f) == hash(fresh) and f.to_pairs() == fresh.to_pairs()
        assert f.norm() == norms[m] == fresh.norm()


def test_reconstruct_of_a_direct_sum_trace_is_the_target_minus_the_remainder():
    """Dyadic inputs, so both sides are exact and must agree entry for entry."""
    half = [SparseVector({1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}),
            SparseVector({1: 0.5, 2: -0.5, 3: 0.5, 4: -0.5})]
    dictionary = direct_sum([make_finite(half), make_symmetrized_onb(),
                             make_augmented_onb(half, [1, 2, 3, 4])])
    target = SparseVector({(b, i): (i % 5 - 2) * 0.375 + b * 0.0625
                           for b in (1, 2, 3) for i in range(1, 9)})
    keeper = Reader()
    steps = 40
    trace = run(target, dictionary, Explicit([0.5, 0.25, 0.125, 0.75] * 11),
                ConstantWeakening(1.0), policy=keeper, max_steps=steps + 1)
    assert len(trace.steps) == steps + 1
    final = keeper.kept[steps][0]        # the remainder after `steps` steps
    truncated = Trace(steps=trace.steps[:steps])
    approximant = reconstruct(truncated)
    expected = subtract_scaled(SparseVector(dict(target.items())), 1.0, final)
    assert dict(approximant.items()) == dict(expected.items())
    assert {i[0] for i in approximant.support()} == {1, 2, 3}


# ---------------------------------------------------------------------------
# a step takes the entry dict over; the parent rebuilds its own on a read
# ---------------------------------------------------------------------------

def test_views_taken_before_a_step_read_unchanged():
    v = SparseVector({1: 0.5, 2: 0.25})
    support, items = v.support(), v.items()
    w = subtract_scaled(v, 1.0, SparseVector({1: 0.5}))
    subtract_scaled(w, 1.0, SparseVector({3: 1.0}))
    assert list(support) == [1, 2]
    assert list(items) == [(1, 0.5), (2, 0.25)]


def test_step_by_itself_reads_the_atom_first():
    v = SparseVector({1: 0.5, 2: -0.25})
    assert subtract_scaled(v, 0.5, v) == SparseVector({1: 0.25, 2: -0.125})
    assert subtract_scaled(v, 1.0, v).is_zero()
    assert dict(v.items()) == {1: 0.5, 2: -0.25}


def test_handed_over_vector_gives_its_size_without_a_rebuild():
    assert "__getattr__" not in SparseVector.__dict__
    v = SparseVector({1: 0.5, 2: 0.25})
    w = subtract_scaled(v, 1.0, SparseVector({1: 0.5}))
    assert type(v) is not SparseVector
    assert v.support_size() == 2 and w.support_size() == 1
    assert type(v) is not SparseVector
    assert dict(v.items()) == {1: 0.5, 2: 0.25}
    assert type(v) is SparseVector


HANDOVER_ATOMS = [SparseVector({1: 0.6, 2: 0.8}), SparseVector({2: 1.0, 3: -1.0})]
# per kind of remainder: the coordinates it uses and the dictionary that reads it
SPACES = {
    "basis": (list(range(1, 9)), make_symmetrized_onb()),
    "dense": (list(range(1, 9)), make_augmented_onb(HANDOVER_ATOMS, [1, 2, 3])),
    "blocks": ([(b, i) for b in (1, 2, 3) for i in (1, 2, 3, 4)],
               direct_sum([make_symmetrized_onb(), make_finite(HANDOVER_ATOMS),
                           make_augmented_onb(HANDOVER_ATOMS, [1, 2, 3])])),
}
# dyadic values that cancel and tie, and floats that mostly do neither
VALUES = st.one_of(st.sampled_from([0.5, -0.5, 1.0, -0.25, 0.75]),
                   st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))


def sup_outcome(dictionary, v):
    """(sup as hex, witness id) of v, or the type of the exception it raises."""
    try:
        value, witness = dictionary.sup_inner(v)
    except EmptyVectorError as exc:
        return type(exc)
    return value.hex(), witness.id


class Kept:
    """A remainder and what it read when it was made. The snapshot is read
    through a fresh copy, so the remainder's own caches stay as steps left
    them; its support() and items() are taken now and read only later."""

    def __init__(self, v, dictionary):
        self.v = v
        self.entries = dict(v.items())
        fresh = SparseVector(self.entries)
        self.norm = fresh.norm().hex()
        self.sup = sup_outcome(dictionary, fresh)
        self.early_support = v.support()
        self.early_items = v.items()

    def check(self, data, kind, dictionary):
        v = self.v
        handed = type(v) is not SparseVector
        assert v.support_size() == len(self.entries)
        assert (type(v) is not SparseVector) == handed
        reads = [
            lambda: dict(v.items()) == self.entries,
            lambda: sorted(v.support(), key=index_key) == sorted(self.entries, key=index_key),
            lambda: v.norm().hex() == self.norm,
            lambda: sup_outcome(dictionary, v) == self.sup,
            lambda: set(self.early_support) == set(self.entries),
        ]
        if self.early_items is not None:
            items, self.early_items = self.early_items, None
            reads.append(lambda: dict(items) == self.entries)
        if kind == "blocks":
            reads += [lambda l=l: dict(v.block_restriction(l).items())
                      == {i: x for (b, i), x in self.entries.items() if b == l}
                      for l in (1, 2, 3)]
        for read in data.draw(st.permutations(reads)):
            assert read()


@PROPERTY
@given(st.sampled_from(sorted(SPACES)), st.data())
def test_kept_remainders_read_as_made(kind, data):
    """Random chains of steps, branching from any kept remainder, with reads of
    kept remainders in between and of all of them, in random order, at the end."""
    coords, dictionary = SPACES[kind]
    start = data.draw(st.dictionaries(st.sampled_from(coords), VALUES, max_size=len(coords)))
    kept = [Kept(SparseVector(start), dictionary)]
    for _ in range(data.draw(st.integers(1, 25))):
        k = data.draw(st.one_of(st.just(len(kept) - 1), st.integers(0, len(kept) - 1)))
        old = kept[k]
        op = data.draw(st.sampled_from(["step", "step", "cancel", "self", "read"]))
        if op == "read":
            old.check(data, kind, dictionary)
            continue
        if op == "step":
            size = 1 if kind == "basis" else 4
            atom = SparseVector(data.draw(st.dictionaries(
                st.sampled_from(coords), VALUES, min_size=1, max_size=size)))
            c = data.draw(VALUES)
        elif op == "cancel":
            # exact cancellation of some entries, or of a whole block
            present = sorted(old.entries, key=index_key)
            if kind == "blocks" and data.draw(st.booleans()):
                block = data.draw(st.integers(1, 3))
                chosen = [i for i in present if i[0] == block]
            else:
                chosen = data.draw(st.lists(st.sampled_from(present), max_size=3)) if present else []
            atom, c = SparseVector({i: old.entries[i] for i in chosen}), 1.0
        else:
            atom, c = old.v, data.draw(st.one_of(st.just(1.0), VALUES))
        kept.append(Kept(subtract_scaled(old.v, c, atom), dictionary))
    for k in data.draw(st.permutations(range(len(kept)))):
        kept[k].check(data, kind, dictionary)


# ---------------------------------------------------------------------------
# outside input still goes through the validating constructor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pairs", [[[0, 1.0]], [[-2, 1.0]], [[[1, 0], 1.0]], [[True, 1.0]],
                                   [[[1, 2, 3], 1.0]], [["3", 1.0]]])
def test_json_pairs_with_bad_index_raise(pairs):
    with pytest.raises((TypeError, ValueError)):
        SparseVector.from_json(pairs)


@pytest.mark.parametrize("spec", [
    {"kind": "finite", "atoms": [[[0, 1.0]]]},
    {"kind": "augmented_onb", "e_prime": [1], "extra": [[[-1, 1.0]]]},
    {"kind": "direct_sum", "components": [{"kind": "finite", "atoms": [[[[1, 0], 1.0]]]}]},
    {"kind": "pushforward", "base": {"kind": "finite", "atoms": [[[0, 1.0]]]},
     "matrix": [[1.0]]},
])
def test_config_atoms_with_bad_index_raise(spec):
    with pytest.raises(ConfigInvalidError):
        dictionary_from_config(spec)


@pytest.mark.parametrize("inline", [[[0, 1.0]], [[[2, 0], 1.0]]])
def test_config_target_with_bad_index_exits_1(tmp_path, capsys, inline):
    config = {"target": {"inline": inline}, "dictionary": {"kind": "symmetrized_onb"},
              "coefficients": {"kind": "harmonic"},
              "weakening": {"kind": "constant_t", "t": 1.0}, "max_steps": 5,
              "outputs": {"trace": str(tmp_path / "t.csv"), "metadata": str(tmp_path / "m.json")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


BAD_PAIRS = {
    "bool": ([[True, 1.0]], "coordinate index must be an int or (block, inner) pair, got True"),
    "zero": ([[0, 1.0]], "coordinate index must be >= 1, got 0"),
    "three": ([[[1, 2, 3], 1.0]],
              "coordinate index must be an int or (block, inner) pair, got (1, 2, 3)"),
    "duplicate": ([[2, 1.0], [[1, 1], 0.5], [2, 0.5]], "duplicate coordinate index 2"),
    "duplicate_zero": ([[[1, 1], 0.0], [[1, 1], 0.5]], "duplicate coordinate index (1, 1)"),
}


@pytest.mark.parametrize("where", ["target", "atoms"])
@pytest.mark.parametrize("bad", sorted(BAD_PAIRS))
def test_config_coordinates_are_checked_once_with_the_same_messages(tmp_path, capsys, where, bad):
    pairs, message = BAD_PAIRS[bad]
    config = {"target": {"inline": [[1, 1.0]]}, "dictionary": {"kind": "symmetrized_onb"},
              "coefficients": {"kind": "harmonic"},
              "weakening": {"kind": "constant_t", "t": 1.0}, "max_steps": 5,
              "outputs": {"trace": str(tmp_path / "t.csv"), "metadata": str(tmp_path / "m.json")}}
    if where == "target":
        config["target"] = {"inline": pairs}
    else:
        config["dictionary"] = {"kind": "finite", "atoms": [[[1, 1.0]], pairs]}
        message = "bad dictionary spec: " + message
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_config_pairs_drop_zero_values():
    v = SparseVector.from_json([[1, 0.0], [[2, 3], -0.0], [4, 0.5]])
    assert dict(v.items()) == {4: 0.5} and v.support_size() == 1


def test_rescaled_atom_drops_entries_that_underflow():
    # 5e-324 / 2 rounds to 0.0 (ties to even); 2**-1073 / 2 does not
    finite = make_finite([SparseVector({1: 5e-324, 2: 2.0, 3: 2.0 ** -1073})])
    plus = finite.realize(("y", 0)).vector
    assert dict(plus.items()) == {2: 1.0, 3: 2.0 ** -1074}
    assert dict(finite.realize(("y", 1)).vector.items()) == {2: -1.0, 3: -(2.0 ** -1074)}


def test_inner_of_block_held_vectors_is_the_flat_fsum():
    rng = random.Random(5)
    coords = [(b, i) for b in (1, 2, 3) for i in range(1, 9)] + [1, 2]
    for _ in range(200):
        u, v = (SparseVector({i: rng.choice([0.1, -0.7, 1e-300, 3.0, rng.uniform(-1, 1)])
                              for i in rng.sample(coords, rng.randint(0, 12))}) for _ in "uv")
        want = inner(SparseVector(dict(u.items())), SparseVector(dict(v.items())))
        for f in (u, v):
            block_parts(f)
        # held as blocks alone after a step that changes nothing
        u, v = (subtract_scaled(f, 0.0, f) for f in (u, v))
        one = lifted(2, u.block_restriction(2))
        assert inner(u, v).hex() == want.hex()
        assert inner(v, one).hex() == inner(one, v).hex() == inner(
            SparseVector(dict(v.items())), SparseVector(dict(one.items()))).hex()


def test_a_step_into_a_block_the_remainder_lacks_starts_that_block():
    f = SparseVector({(1, 1): 0.5, (1, 2): -0.25})
    block_parts(f)
    atom = lifted(2, SparseVector({3: 0.6, 4: 0.8}))
    g = subtract_scaled(f, 0.5, atom)
    assert dict(g.items()) == {(1, 1): 0.5, (1, 2): -0.25, (2, 3): -0.3, (2, 4): -0.4}
    # the untouched block is shared, the new one is held as its own restriction
    assert g.block_restriction(1) is f.block_restriction(1)
    assert dict(g.block_restriction(2).items()) == {3: -0.3, 4: -0.4}
    assert g.norm() == SparseVector(dict(g.items())).norm()
    assert inner(g, atom) == inner(SparseVector(dict(g.items())), SparseVector(dict(atom.items())))
    assert f.block_restriction(2).is_zero()
    # stepping the new block away leaves no part for it
    h = subtract_scaled(g, -0.5, atom)
    assert h == f and 2 not in block_parts(h)
