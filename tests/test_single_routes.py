"""Each job done one way: the norm of a cached square sum, the list-backed
explicit sequences, from_json as from_pairs; and the typed errors of a step by
a block-indexed atom on a basis tail, of a direct sum given a vector outside
its blocks and of an empty pushforward matrix.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyexp.cli import main
from greedyexp.core import SparseVector, subtract_scaled, tail_top
from greedyexp.dictionaries import (
    Atom,
    MaxGreedy,
    direct_sum,
    make_finite,
    make_symmetrized_onb,
    pushforward,
)
from greedyexp.engine import run
from greedyexp.errors import (
    ConfigInvalidError,
    EmptyVectorError,
    IndexPastEndError,
    NotOrthogonalError,
)
from greedyexp.sequences import (
    CoefficientSequence,
    ConstantWeakening,
    Explicit,
    ExplicitWeakening,
    Harmonic,
    WeakeningSequence,
)

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# ---------------------------------------------------------------------------
# norm(): one exact route for a cached square sum, at every magnitude
# ---------------------------------------------------------------------------

# magnitudes whose squares are finite and sum across 2**1022..2**1025, where
# the largest float (just below 2**1024) lies
WIDE = st.floats(min_value=2.0 ** 509, max_value=2.0 ** 512, exclude_max=True)
# values whose squares sum to within a few ulps of the largest float, for
# 1 to 4 entries: the rounding boundary of an overflow
NEAR_MAX = st.builds(lambda n, k: math.sqrt(1.7976931348623157e308 / n) * (1 + k * 2.0 ** -52),
                     st.integers(1, 4), st.integers(-6, 6)).filter(lambda x: x * x < math.inf)
SIGN = st.sampled_from([1.0, -1.0])


def fsum_norm(values):
    """sqrt of the fsum of the squares, or OverflowError as the outcome."""
    try:
        return math.sqrt(math.fsum([x * x for x in values])).hex()
    except OverflowError:
        return OverflowError


def cached_norm(values):
    """norm() of the vector with these values, made by a step, so that it
    carries its exact square sum."""
    a = SparseVector({i: x for i, x in enumerate(values, start=1)})
    v = subtract_scaled(SparseVector(), -1.0, a)
    assert v == a and v._square_sum is not None
    try:
        return v.norm().hex()
    except OverflowError:
        return OverflowError


@PROPERTY
@given(st.lists(st.tuples(st.one_of(WIDE, NEAR_MAX), SIGN), min_size=1, max_size=6))
def test_cached_norm_is_the_fsum_of_the_squares(draws):
    values = [sign * x for x, sign in draws]
    assert cached_norm(values) == fsum_norm(values)


def test_cached_norm_overflows_where_fsum_does():
    root = math.sqrt(1.7976931348623157e308)
    assert cached_norm([root, root]) == fsum_norm([root, root]) == OverflowError
    assert cached_norm([root]) == fsum_norm([root]) != OverflowError
    assert cached_norm([9e153, 9e153]) == fsum_norm([9e153, 9e153]) != OverflowError


def test_uncached_norm_takes_the_fsum():
    v = SparseVector({1: math.inf, 2: 1.0})
    assert v._square_sum is None and v.norm() == math.inf
    w = subtract_scaled(v, 1.0, SparseVector({2: 1.0}))
    assert w._square_sum is None and w.norm() == math.inf


# ---------------------------------------------------------------------------
# explicit sequences share one list-backed body
# ---------------------------------------------------------------------------


def test_explicit_sequences_keep_their_types():
    c, t = Explicit([1.0, 0.5]), ExplicitWeakening([1.0, 0.5])
    assert isinstance(c, CoefficientSequence) and not isinstance(c, WeakeningSequence)
    assert isinstance(t, WeakeningSequence) and not isinstance(t, CoefficientSequence)
    assert len(c) == 2 and not hasattr(t, "__len__")
    assert [c.eval(n) for n in (1, 2)] == [t.eval(n) for n in (1, 2)] == [1.0, 0.5]
    # the benchmark's tracer wraps each class's own eval
    assert "eval" in vars(Explicit) and "eval" in vars(ExplicitWeakening)


@pytest.mark.parametrize("make,values,message", [
    (Explicit, [math.inf], "explicit coefficients must all be positive and finite"),
    (Explicit, [1.0, math.nan], "explicit coefficients must all be positive and finite"),
    (Explicit, [0.0], "explicit coefficients must all be positive and finite"),
    (ExplicitWeakening, [1.5], "weakening factors must lie in (0, 1]"),
    (ExplicitWeakening, [0.5, math.nan], "weakening factors must lie in (0, 1]"),
    (ExplicitWeakening, [-0.5], "weakening factors must lie in (0, 1]"),
])
def test_explicit_sequences_keep_their_range_rules(make, values, message):
    with pytest.raises(ConfigInvalidError) as info:
        make(values)
    assert str(info.value) == message


def test_explicit_sequences_keep_their_edges():
    assert Explicit([1e308]).eval(1) == 1e308
    assert ExplicitWeakening([1.0]).eval(1) == 1.0
    for seq in (Explicit([1.0]), ExplicitWeakening([1.0])):
        with pytest.raises(IndexPastEndError) as info:
            seq.eval(2)
        assert str(info.value) == "explicit sequence has 1 terms, asked for term 2"
        with pytest.raises(ConfigInvalidError, match="sequence index must be >= 1"):
            seq.eval(0)


# ---------------------------------------------------------------------------
# from_json is from_pairs
# ---------------------------------------------------------------------------


def parent_from_json(data):
    """from_json as a generator over unpacked pairs handed to from_pairs."""
    return SparseVector.from_pairs((i, v) for i, v in data)


def outcome(make, data):
    try:
        return make(data)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("data", [
    [[1]], [[1, 2.0, 3]], [5], None, 7, "ab", [[0, 1.0]], [[True, 1.0]], [[1, "x"]],
    [[1, 1.0], [1, 2.0]], [[[1, 1], 2.0], [[1, 1], 3.0]], [[[1, 0], 1.0]], [[[1, 2, 3], 1.0]],
    [[{}, 1.0]], [[1.0, 1.0]], [[1, None]], [(2, 1.0), [[1, 1], 0.5]], [],
])
def test_from_json_raises_what_the_unpacking_generator_raises(data):
    assert outcome(SparseVector.from_json, data) == outcome(parent_from_json, data)


def test_from_json_reads_pairs():
    v = SparseVector.from_json([[2, 0.5], [[1, 3], -1], [4, 0]])
    assert v == SparseVector({2: 0.5, (1, 3): -1.0})
    assert SparseVector.from_json(v.to_pairs()) == v


# ---------------------------------------------------------------------------
# a (block, inner) atom stepping a vector that holds a basis-tail heap
# ---------------------------------------------------------------------------

BLOCK_ATOM = Atom(("b", 1, ("e", 0, 1)), SparseVector({(1, 1): -1.0}))


class _Outside:
    """Plays an atom from outside the dictionary at step 1, then the witness."""

    def __init__(self, needs_witness):
        self.needs_witness = needs_witness

    def choose(self, step, dictionary, f, t, sup, witness):
        return BLOCK_ATOM if step == 1 else witness


OUTSIDE_CASES = pytest.mark.parametrize("d,needs_witness", [
    (make_symmetrized_onb(), True),
    (make_symmetrized_onb(), False),
    (pushforward(make_symmetrized_onb(), [[0.6, -0.8], [0.8, 0.6]]), True),
], ids=["onb", "onb_sup_alone", "pushforward"])


@OUTSIDE_CASES
def test_block_atom_on_a_basis_tail_ends_in_config_error(d, needs_witness):
    # the atom's ip of 0 passes the weak greedy condition only at a t this small
    f = SparseVector({1: 1.0, 3: 0.5, 4: 0.25})
    with pytest.raises(ConfigInvalidError, match="plain indices"):
        run(f, d, Harmonic(), ConstantWeakening(1e-13), policy=_Outside(needs_witness),
            max_steps=5)


@OUTSIDE_CASES
def test_block_atom_on_a_basis_tail_at_t_1_aborts_as_inadmissible(d, needs_witness):
    f = SparseVector({1: 1.0, 3: 0.5, 4: 0.25})
    trace = run(f, d, Harmonic(), ConstantWeakening(1.0), policy=_Outside(needs_witness),
                max_steps=5)
    assert trace.steps == [] and (trace.status.kind, trace.status.step) == ("aborted", 1)
    assert trace.status.reason.startswith("NoAdmissibleAtomError: step 1: atom b1:+e1 has ip=0 <")


@pytest.mark.parametrize("start", [1, 3])
def test_block_step_drops_the_heap_and_keeps_the_old_vector(start):
    v = SparseVector({1: 1.0, 3: 0.5, 4: 0.25})
    assert tail_top(v, start) == (1.0 if start == 1 else 0.5)
    w = subtract_scaled(v, 0.5, BLOCK_ATOM.vector)
    assert dict(v.items()) == {1: 1.0, 3: 0.5, 4: 0.25}
    assert dict(w.items()) == {1: 1.0, 3: 0.5, 4: 0.25, (1, 1): 0.5}
    assert w._heap is None and w.norm() == math.sqrt(1.0 + 0.25 + 0.0625 + 0.25)
    with pytest.raises(ConfigInvalidError, match="plain indices"):
        tail_top(w, start)


# ---------------------------------------------------------------------------
# a direct sum given a nonzero vector with no coordinates in its blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entries", [{(3, 1): 5.0}, {1: 1.0}, {(3, 1): 5.0, 2: -1.0}],
                         ids=["past_blocks", "plain", "both"])
def test_direct_sum_refuses_a_vector_outside_its_blocks(entries):
    d = direct_sum([make_symmetrized_onb(), make_finite([SparseVector({1: 1.0})])])
    with pytest.raises(ConfigInvalidError, match=r"blocks 1\.\.2"):
        d.sup_inner(SparseVector(entries))


@pytest.mark.parametrize("outside", [(3, 1), 4], ids=["past_blocks", "plain"])
def test_direct_sum_refuses_a_vector_outside_its_blocks_while_a_block_is_nonzero(outside):
    d = direct_sum([make_symmetrized_onb(), make_symmetrized_onb()])
    with pytest.raises(ConfigInvalidError, match=r"has coordinates outside .* blocks 1\.\.2$"):
        d.sup_inner(SparseVector({(1, 1): 1.0, outside: 5.0}))
    with pytest.raises(EmptyVectorError):
        d.sup_inner(SparseVector())


@pytest.mark.parametrize("first", [1.0, 0.7])
def test_direct_sum_run_past_its_blocks_ends_in_config_error(first):
    # at 0.7 block 1 never empties: only the first query can refuse the target
    d = direct_sum([make_symmetrized_onb(), make_symmetrized_onb()])
    f = SparseVector({(1, 1): first, (3, 1): 5.0})
    with pytest.raises(ConfigInvalidError, match=r"blocks 1\.\.2"):
        run(f, d, Harmonic(), ConstantWeakening(1.0), policy=MaxGreedy(), max_steps=10)


@pytest.mark.parametrize("first", [1.0, 0.7])
def test_cli_run_past_the_blocks_exits_1(tmp_path, capsys, first):
    config = {
        "target": {"inline": [[[1, 1], first], [[3, 1], 5.0]]},
        "dictionary": {"kind": "direct_sum", "components": [{"kind": "symmetrized_onb"},
                                                           {"kind": "symmetrized_onb"}]},
        "coefficients": {"kind": "harmonic"},
        "weakening": {"kind": "constant_t", "t": 1.0},
        "max_steps": 10,
        "outputs": {"trace": str(tmp_path / "t.csv"), "metadata": str(tmp_path / "m.json")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "blocks 1..2" in err[0]


# ---------------------------------------------------------------------------
# an empty pushforward matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("matrix", [np.zeros((0, 0)), [], [[]]], ids=["zeros", "list", "row"])
def test_empty_pushforward_matrix_is_not_orthogonal(matrix):
    with pytest.raises(NotOrthogonalError):
        pushforward(make_symmetrized_onb(), matrix)
