import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedyexp.core import (
    SparseVector,
    index_key,
    inner,
    norm,
    subtract_scaled,
)


def e(i, sign=1.0):
    return SparseVector({i: sign})


def random_sparse(rng, max_index=40, max_support=12):
    support = rng.sample(range(1, max_index + 1), rng.randint(0, max_support))
    return SparseVector({i: rng.uniform(-5, 5) for i in support})


def test_inner_unit_basis():
    assert inner(e(1), e(1)) == 1.0
    assert inner(e(1), e(2)) == 0.0
    assert inner(e(7), e(7)) == 1.0


def test_inner_shared_support_only():
    u = SparseVector({1: 0.6, 2: 0.8})
    v = SparseVector({2: 0.5})
    assert inner(u, v) == 0.8 * 0.5
    assert inner(v, u) == inner(u, v)


# zeros of both signs, subnormals, an underflowing pair, infinities and NaN
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e-200, -1e-200, 1.0, -3.5, 1e308,
         float("inf"), float("-inf"), float("nan")]
EDGE_FLOATS = st.one_of(st.sampled_from(EDGES), st.floats())


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), EDGE_FLOATS, st.dictionaries(st.integers(1, 4), EDGE_FLOATS,
                                                       max_size=4))
@example(1, 1e-200, {1: -1e-200})          # the product underflows to -0.0
@example(1, -0.0, {1: 2.0})
@example(1, 0.0, {1: -2.0})
@example(1, float("inf"), {1: 0.0})
@example(1, float("nan"), {2: 1.0})        # the index is absent
@example(3, 2.0, {})
def test_one_coordinate_inner_is_the_fsum_of_the_shared_products(i, x, other):
    """inner with a one-entry operand, in either order, returns the fsum of the
    shared products bit for bit, over any float entries."""
    single = SparseVector._trusted({i: x})
    many = SparseVector._trusted(dict(other))
    expected = math.fsum([x * other[i]] if i in other else [])
    for got in (inner(single, many), inner(many, single)):
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert repr(got) == repr(expected)


def test_norm_examples():
    assert norm(SparseVector()) == 0.0
    assert norm(SparseVector({1: 3.0, 2: 4.0})) == 5.0
    assert norm(e(7)) == 1.0


def test_subtract_scaled_exact_annihilation():
    assert subtract_scaled(e(1), 1.0, e(1)).is_zero()


def test_subtract_scaled_negative_atom():
    # 0.25 - 0.5 * (-1) = 0.75
    got = subtract_scaled(SparseVector({1: 0.25}), 0.5, e(1, -1.0))
    assert got == SparseVector({1: 0.75})


def test_subtract_scaled_drops_cancelled_entry():
    got = subtract_scaled(SparseVector({1: 1.0, 2: 1.0}), 1.0, e(2))
    assert got == SparseVector({1: 1.0})
    assert got.support_size() == 1


def test_cauchy_schwarz():
    rng = random.Random(101)
    for _ in range(300):
        u, v = random_sparse(rng), random_sparse(rng)
        bound = norm(u) * norm(v)
        assert abs(inner(u, v)) <= bound + 1e-12 * max(bound, 1.0)


def test_energy_identity_for_unit_atoms():
    # ||v - c a||^2 == ||v||^2 - 2 c <v, a> + c^2 for unit a
    rng = random.Random(202)
    for _ in range(300):
        v = random_sparse(rng)
        raw = random_sparse(rng, max_support=6)
        if raw.is_zero():
            continue
        n = norm(raw)
        a = SparseVector({i: x / n for i, x in raw.items()})
        c = rng.uniform(-3, 3)
        lhs = norm(subtract_scaled(v, c, a)) ** 2
        rhs = norm(v) ** 2 - 2 * c * inner(v, a) + c * c
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_canonical_form_is_idempotent():
    v = SparseVector({1: 0.5, 3: -2.0, 9: 0.0})
    again = SparseVector(dict(v.items()))
    assert again == v
    assert 9 not in v.support()


def test_no_stored_zeros():
    v = SparseVector({1: 0.0, 2: 1.0})
    assert list(v.support()) == [2]


def test_duplicate_index_rejected():
    with pytest.raises(ValueError):
        SparseVector.from_pairs([(1, 0.5), (1, 0.25)])


@pytest.mark.parametrize("bad", [0, -3, (0, 1), (1, 0), (1,), "x", 1.5, True])
def test_bad_indices_rejected(bad):
    with pytest.raises((TypeError, ValueError)):
        SparseVector({bad: 1.0})


def test_block_indices_order_block_first():
    assert index_key((1, 9)) < index_key((2, 1))
    assert index_key((2, 1)) < index_key((2, 2))
    assert index_key(5) < index_key((1, 1))


def test_block_restriction():
    v = SparseVector({(1, 1): 0.5, (2, 1): 0.7, (2, 3): -0.1})
    assert v.block_restriction(2) == SparseVector({1: 0.7, 3: -0.1})
    assert v.block_restriction(3).is_zero()


def test_json_round_trip_with_blocks():
    v = SparseVector({2: -1.25, (1, 3): 0.5, 1: 0.125})
    data = v.to_pairs()
    assert data == [[1, 0.125], [2, -1.25], [[1, 3], 0.5]]
    assert SparseVector.from_json(data) == v


def test_immutability():
    # __slots__ refuses a new attribute, and every public name is a method
    v = e(1)
    for name in ("foo", "norm", "items"):
        with pytest.raises(AttributeError):
            setattr(v, name, 1)
    assert v == e(1)


@pytest.mark.parametrize("index", [(True, 1), (1, True)])
def test_bool_in_a_block_index_pair_rejected(index):
    with pytest.raises(TypeError):
        SparseVector({index: 1.0})
    with pytest.raises(TypeError):
        SparseVector.from_pairs([([*index], 1.0)])


def test_norm_squared_is_parseval_sum():
    rng = random.Random(303)
    for _ in range(50):
        v = random_sparse(rng)
        assert norm(v) ** 2 == pytest.approx(
            sum(x * x for _, x in v.items()), rel=1e-12, abs=1e-300)
