"""The certified screen of materialized heads.

`_Headed.sup_inner` bounds every head atom's `fsum` score with a
matrix-vector product and scores exactly only the atoms that can reach the sup
or its witness band.
These tests pin that the screened `sup_inner` gives what scoring every head
atom gives, value bit for bit and witness id alike, on planted near-ties,
extreme magnitudes and non-finite remainders.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyexp.core import SparseVector, inner
from greedyexp.dictionaries import (
    WITNESS_BAND,
    Atom,
    DirectSumDictionary,
    _best,
    basis_atom,
    direct_sum,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
    pushforward,
)
from greedyexp.errors import GreedyExpansionError

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def plain_scan(dictionary, f):
    """sup_inner with every head atom scored: the scan the screen replaces."""
    if isinstance(dictionary, DirectSumDictionary):
        candidates = []
        for l, comp in enumerate(dictionary.components, start=1):
            fl = f.block_restriction(l)
            if not fl.is_zero():
                value, atom = plain_scan(comp, fl)
                candidates.append((value, Atom(("b", l, atom.id), atom.vector)))
        return _best(candidates)
    candidates = [] if f.is_zero() else [(inner(f, a.vector), a) for a in dictionary.head]
    start = dictionary.tail_start
    tail = [(i, x) for i, x in f.items() if start is not None and i >= start]
    if tail:
        top = max(abs(x) for _, x in tail)
        rank, i = min((0 if x > 0 else 1, i) for i, x in tail if abs(x) >= top - WITNESS_BAND)
        candidates.append((top, basis_atom(i, 1.0 if rank == 0 else -1.0)))
    return _best(candidates)


def outcome(query):
    """(value as hex, witness id) of a sup query, or the exception type it raises."""
    try:
        value, witness = query()
    except (GreedyExpansionError, OverflowError, ValueError) as exc:
        return type(exc)
    return value.hex(), witness.id


def assert_screen_matches_scan(dictionary, f):
    assert outcome(lambda: dictionary.sup_inner(f)) == outcome(lambda: plain_scan(dictionary, f))


# ---------------------------------------------------------------------------
# heads with planted near-duplicates, remainders with planted near-ties
# ---------------------------------------------------------------------------

DIM = 6
COORDS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
# a copy's nudge of one coordinate: none, 1 ulp, or a gap below or above the band
NUDGES = st.sampled_from(["ulp", 0.0, 1e-16, 1e-13, 4.9e-13, 5.1e-13, 1e-12])


def nudged(row, k, nudge):
    row = list(row)
    row[k] = math.nextafter(row[k], math.inf) if nudge == "ulp" else row[k] + nudge
    return row


@st.composite
def heads(draw, dim=DIM):
    """Dense rows, unit basis rows and nudged copies of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["dense", "basis", "copy"]))
        if kind == "copy" and rows:
            rows.append(nudged(draw(st.sampled_from(rows)), draw(st.integers(0, dim - 1)),
                               draw(NUDGES)))
        elif kind == "basis":
            axis = draw(st.integers(0, dim - 1))
            rows.append([1.0 if k == axis else 0.0 for k in range(dim)])
        else:
            rows.append(draw(st.lists(COORDS, min_size=dim, max_size=dim)))
    vectors = [SparseVector({k + 1: x for k, x in enumerate(row)}) for row in rows]
    return [v for v in vectors if v.norm() > 1e-6] or [SparseVector({1: 1.0})]


# remainder values: a level plus a gap below or above the band, with a sign,
# times a common scale from subnormal products to 1e150
LEVELS = st.sampled_from([1.0, 0.5, 0.75, 1.0 / 3])
GAPS = st.sampled_from([0.0, 1e-16, 1e-13, 4.9e-13, 5e-13, 5.1e-13, 1e-12, -1e-13])
SCALES = st.sampled_from([1e-310, 1e-300, 1e-150, 1e-3, 1.0, 1e3, 1e150])


@st.composite
def remainders(draw, indices):
    scale = draw(SCALES)
    entries = {}
    for i in draw(st.lists(st.sampled_from(indices), max_size=12)):
        value = draw(st.one_of(
            st.builds(lambda level, gap, sign: sign * (level + gap), LEVELS, GAPS,
                      st.sampled_from([1.0, -1.0])),
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)))
        entries[i] = value * scale
    return SparseVector(entries)


# head columns 1..DIM; 7..9 lie outside every head (and inside the basis tail
# of the augmented basis and the pushforward, where they can beat every head row)
PLAIN = list(range(1, DIM + 4))


def orthogonal(seed, dim):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


@PROPERTY
@given(heads(), remainders(PLAIN + [(1, 1), (2, 3)]))
def test_finite_screen_equals_scan(head, f):
    assert_screen_matches_scan(make_finite(head), f)


@PROPERTY
@given(heads(), remainders(PLAIN), st.floats(min_value=1.0, max_value=4.0))
def test_augmented_screen_equals_scan(head, f, tail_boost):
    d = make_augmented_onb(head, range(1, DIM + 1))
    assert_screen_matches_scan(d, f)
    # a tail entry that beats every head row, or ties with the top one
    top = max((abs(x) for _, x in f.items()), default=1.0)
    for value in (top * tail_boost, top, top + 1e-13):
        assert_screen_matches_scan(d, SparseVector({**dict(f.items()), DIM + 2: value}))


@PROPERTY
@given(heads(), remainders(PLAIN), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_pushforward_screen_equals_scan(head, f, seed, augmented):
    base = make_augmented_onb(head, range(1, DIM + 1)) if augmented else make_finite(head)
    assert_screen_matches_scan(pushforward(base, orthogonal(seed, DIM + 1)), f)


@PROPERTY
@given(heads(), heads(), st.integers(0, 2 ** 32 - 1),
       remainders([(b, i) for b in (1, 2, 3, 4) for i in PLAIN]))
def test_direct_sum_screen_equals_scan(first, second, seed, f):
    d = direct_sum([make_finite(first), make_augmented_onb(second, range(1, DIM + 1)),
                    pushforward(make_finite(second), orthogonal(seed, DIM)),
                    make_symmetrized_onb()])
    assert_screen_matches_scan(d, f)


@PROPERTY
@given(heads(), st.sampled_from(PLAIN[DIM:]), st.floats(min_value=1e-3, max_value=10.0))
def test_remainder_off_the_head_columns(head, i, value):
    f = SparseVector({i: value})
    for d in (make_finite(head), make_augmented_onb(head, range(1, DIM + 1))):
        assert_screen_matches_scan(d, f)


@st.composite
def aligned(draw, dim=24):
    """A head and a remainder close to a multiple of one of its rows: that row
    and its nudged copies tie within rounding, at scales where the gemv's
    rounding error reaches WITNESS_BAND."""
    head = draw(heads(dim))
    row = draw(st.sampled_from(head))
    scale = draw(st.sampled_from([1e-300, 1.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e150]))
    noise = draw(st.lists(st.floats(min_value=-1e-3, max_value=1e-3), min_size=dim,
                          max_size=dim))
    return head, SparseVector({i: scale * (row.get(i) + noise[i - 1])
                               for i in range(1, dim + 1)})


@PROPERTY
@given(aligned())
def test_aligned_remainders_equal_scan(case):
    head, f = case
    for d in (make_finite(head), make_augmented_onb(head, range(1, 25))):
        assert_screen_matches_scan(d, f)


def test_near_duplicates_at_one_ulp_pick_the_smallest_id():
    rng = np.random.default_rng(7)
    rows = [rng.standard_normal(40) for _ in range(50)]
    copies = [nudged(rows[j], j % 40, "ulp") for j in range(0, 50, 5)]
    d = make_finite([SparseVector({k + 1: float(x) for k, x in enumerate(r)})
                     for r in copies + rows])
    for _ in range(20):
        f = SparseVector({k + 1: float(x) for k, x in enumerate(rng.standard_normal(40))})
        assert_screen_matches_scan(d, f)


def test_screen_scores_few_rows():
    rng = np.random.default_rng(11)
    d = make_finite([SparseVector({k + 1: float(x) for k, x in enumerate(rng.standard_normal(30))})
                     for _ in range(100)])
    for _ in range(20):
        f = SparseVector({k + 1: float(x) for k, x in enumerate(rng.standard_normal(30))})
        assert len(d._dense.rows(f, -math.inf)) <= 4


def test_empty_heads_score_the_tail_alone():
    assert make_symmetrized_onb()._dense is None
    d = make_augmented_onb([], [])
    assert d._dense is None
    assert_screen_matches_scan(d, SparseVector({3: -0.5, 1: 0.5}))


# ---------------------------------------------------------------------------
# non-finite remainders score every row
# ---------------------------------------------------------------------------

FINITE_ATOMS = [SparseVector({1: 1.0, 2: 1.0}), SparseVector({1: 0.6, 2: -0.8}),
                SparseVector({2: 1.0, 3: 0.25})]


@pytest.mark.parametrize("entries,all_rows", [
    ({1: 1e200, 2: 1e200}, False),
    ({1: 1e308, 2: 1e308}, True),
    ({1: 1.7e308, 2: 1.7e308, 3: -1.7e308}, True),
    ({1: math.inf, 2: 0.5}, True),
    ({1: math.nan, 2: 0.5}, True),
    ({2: math.nan, 7: 1.0}, True),
])
def test_non_finite_remainders_match_the_scan(entries, all_rows):
    d = make_finite(FINITE_ATOMS)
    f = SparseVector(entries)
    assert outcome(lambda: d.sup_inner(f)) == outcome(lambda: plain_scan(d, f))
    assert (d._dense.rows(f, -math.inf) == range(len(d.head))) == all_rows


def test_nan_top_raises_a_typed_error():
    d = make_finite([SparseVector({1: 1.0, 2: 1.0}), SparseVector({1: 0.6, 2: -0.8})])
    with pytest.raises(GreedyExpansionError, match="NaN"):
        d.sup_inner(SparseVector({1: math.nan, 2: 0.5}))
