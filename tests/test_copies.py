"""copy, deepcopy and pickle of vectors, and of the dictionaries, step records
and traces that hold them. A copied vector is a plain SparseVector of the same
entries, whatever state the original was in: one a step has taken over, or one
held as its block restrictions alone."""

import copy
import pickle

import pytest

from greedyexp.core import SparseVector, block_parts, lifted, subtract_scaled
from greedyexp.dictionaries import direct_sum, make_finite, make_symmetrized_onb
from greedyexp.engine import StepRecord, run
from greedyexp.sequences import ConstantWeakening, Harmonic

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}
# a shallow copy of a dictionary or trace shares its vectors
DEEP = ["deepcopy", "pickle"]

FINITE = make_finite([SparseVector({1: 3.0, 2: 4.0}), SparseVector({2: 1.0, 3: -2.0}),
                      SparseVector({1: -1.0, 3: 0.5})])
SUM = direct_sum([make_symmetrized_onb(), FINITE])
BLOCKS = SparseVector({(1, 1): 0.5, (1, 4): -2.0, (2, 1): 1.0, (2, 3): 0.25})


def plain():
    return SparseVector({1: 0.5, 3: -2.0, 7: 1e-300})


def kept_remainder():
    """A vector whose entry dict a step has taken over."""
    v = plain()
    w = subtract_scaled(v, 0.5, SparseVector({3: 1.0, 4: 1.0}))
    assert type(v) is not SparseVector and w.get(3) == -2.5
    return v


def direct_sum_remainder():
    """A direct-sum remainder held as its block restrictions alone."""
    f = SparseVector.from_pairs(BLOCKS.items())
    value, atom = SUM.sup_inner(f)
    r = subtract_scaled(f, value, atom.vector)
    assert type(r) is not SparseVector
    return r


VECTORS = {"plain": plain, "kept": kept_remainder, "direct_sum": direct_sum_remainder}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("case", sorted(VECTORS))
def test_a_copied_vector_is_a_plain_vector_of_the_same_entries(case, how):
    v = VECTORS[case]()
    expected = sorted(v.items(), key=repr)
    w = COPIES[how](v)
    assert type(w) is SparseVector
    assert w == v and sorted(w.items(), key=repr) == expected
    assert w.norm() == v.norm()
    # the copy shares no dict with the original: stepping one leaves the other
    subtract_scaled(w, 1.0, SparseVector({1: 1.0}))
    assert sorted(v.items(), key=repr) == expected


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copy_carries_no_cache(how):
    f = SparseVector.from_pairs(BLOCKS.items())
    SUM.sup_inner(f)
    r = subtract_scaled(f, 0.5, SUM.realize(("b", 1, ("e", 0, 1))).vector)
    assert block_parts(f)[2][1] and r._square_sum is not None
    for v in (f, r):
        w = COPIES[how](v)
        assert (w._square_sum, w._heap, w._blocks) == (None, None, None)


def test_a_copied_lifted_atom_is_its_block_restriction_as_flat_entries():
    atom = lifted(2, SparseVector({1: 0.6, 3: -0.8}))
    assert COPIES["pickle"](atom) == SparseVector({(2, 1): 0.6, (2, 3): -0.8})


@pytest.mark.parametrize("how", DEEP)
@pytest.mark.parametrize("dictionary", [FINITE, SUM], ids=["finite", "direct_sum"])
def test_a_copied_dictionary_gives_the_same_sup(dictionary, how):
    f = BLOCKS if dictionary is SUM else SparseVector({1: 0.7, 2: -0.2, 3: 0.4})
    clone = COPIES[how](dictionary)
    value, atom = dictionary.sup_inner(SparseVector.from_pairs(f.items()))
    assert clone.sup_inner(SparseVector.from_pairs(f.items())) == (value, atom)


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_step_record_equals_the_original(how):
    record = StepRecord(3, SUM.realize(("b", 1, ("e", 1, 2))), 0.5, 0.9, 0.75, 0.8, 0.25, 1)
    clone = COPIES[how](record)
    assert type(clone) is StepRecord and clone == record and hash(clone) == hash(record)
    assert clone.block == 1 and (clone.atom is record.atom) == (how == "copy")


@pytest.mark.parametrize("how", DEEP)
def test_a_copied_trace_equals_the_original(how):
    # a finite run, whose steps carry no block, and a direct-sum run, whose steps do
    for dictionary, f in [(FINITE, SparseVector({1: 1.0, 2: -0.5, 3: 0.25})), (SUM, BLOCKS)]:
        trace = run(SparseVector.from_pairs(f.items()), dictionary, Harmonic(),
                    ConstantWeakening(1.0), max_steps=20)
        assert trace.steps
        assert all((r.block is not None) == (dictionary is SUM) for r in trace.steps)
        clone = COPIES[how](trace)
        assert clone == trace
        assert all(type(r) is StepRecord for r in clone.steps)
        assert all(type(r.atom.vector) is SparseVector for r in clone.steps)
