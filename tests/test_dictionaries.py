import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyexp.core import SparseVector, inner, norm
from greedyexp.dictionaries import (
    CoherenceEstimate,
    Dictionary,
    MaxGreedy,
    Scripted,
    atom_id_str,
    dictionary_from_config,
    direct_sum,
    estimate_coherence,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
    parse_atom_id,
    pushforward,
    spans_ambient,
)
from greedyexp.engine import run
from greedyexp.errors import (
    ConfigInvalidError,
    EmptyVectorError,
    IndexPastEndError,
    NoAdmissibleAtomError,
    NotOrthogonalError,
    SupportOutsideEPrimeError,
    UnknownAtomError,
    ZeroAtomError,
)
from greedyexp.sequences import ConstantWeakening, Harmonic


def sv(*pairs):
    return SparseVector.from_pairs(pairs)


def dense(values, offset=0):
    return SparseVector({i + 1 + offset: float(v) for i, v in enumerate(values) if v != 0})


# ---------------------------------------------------------------------------
# atom id grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("aid,text", [
    (("e", 0, 12), "+e12"),
    (("e", 1, 3), "-e3"),
    (("y", 4), "y4"),
    (("b", 2, ("e", 0, 1)), "b2:+e1"),
    (("b", 1, ("y", 3)), "b1:y3"),
])
def test_atom_id_round_trip(aid, text):
    assert atom_id_str(aid) == text
    assert parse_atom_id(text) == aid


def test_atom_id_parse_rejects_garbage():
    for bad in ("e1", "+f2", "b2", "y-1", ""):
        with pytest.raises(ValueError):
            parse_atom_id(bad)


ATOM_IDS = st.recursive(
    st.tuples(st.just("e"), st.sampled_from([0, 1]), st.integers(0, 10 ** 30))
    | st.tuples(st.just("y"), st.integers(0, 10 ** 30)),
    lambda inner_ids: st.tuples(st.just("b"), st.integers(0, 10 ** 6), inner_ids),
    max_leaves=4)
ID_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@ID_PROPERTY
@given(ATOM_IDS)
def test_atom_id_str_reads_back(aid):
    assert parse_atom_id(atom_id_str(aid)) == aid


@ID_PROPERTY
@given(st.text(alphabet="+-eyb:0123456789\u0663\n ", max_size=12))
def test_every_accepted_atom_id_text_is_the_one_the_writer_prints(text):
    try:
        aid = parse_atom_id(text)
    except ValueError:
        return
    assert atom_id_str(aid) == text


@pytest.mark.parametrize("bad", [
    "+e1\n", "b2:+e1\n", "+e\u0663", "+e01", "y01", "b02:+e1", "b\u0663:+e1", "b2:+e1 ",
    "b2:", "b2:\n+e1"])
def test_atom_id_parse_rejects_what_the_writer_never_prints(bad):
    with pytest.raises(ValueError, match="cannot parse atom id"):
        parse_atom_id(bad)


# ---------------------------------------------------------------------------
# symmetrized orthonormal basis
# ---------------------------------------------------------------------------

def test_onb_sup_picks_largest_coordinate_with_sign():
    value, atom = make_symmetrized_onb().sup_inner(sv((1, -0.3), (5, 0.2)))
    assert value == 0.3
    assert atom.id == ("e", 1, 1)
    assert atom.vector == SparseVector({1: -1.0})


def test_onb_sup_basis_vector():
    value, atom = make_symmetrized_onb().sup_inner(SparseVector({3: 1.0}))
    assert (value, atom.id) == (1.0, ("e", 0, 3))


def test_onb_contains_both_signs():
    onb = make_symmetrized_onb()
    for i in (1, 2, 17, 993):
        plus, minus = onb.realize(("e", 0, i)), onb.realize(("e", 1, i))
        assert plus.vector.get(i) == 1.0 and minus.vector.get(i) == -1.0
        assert norm(plus.vector) == 1.0


@pytest.mark.parametrize("make,aid", [
    (make_symmetrized_onb, ("e",)),
    (lambda: make_finite([dense([1, 0])]), ("y",)),
])
def test_malformed_atom_id_is_unknown(make, aid):
    with pytest.raises(UnknownAtomError):
        make().realize(aid)


def test_onb_empty_vector_errors():
    with pytest.raises(EmptyVectorError):
        make_symmetrized_onb().sup_inner(SparseVector())


def test_onb_tie_breaks_on_smallest_atom_id():
    # equal moduli: +e2 has a smaller id than -e1
    value, atom = make_symmetrized_onb().sup_inner(sv((1, -0.3), (2, 0.3)))
    assert (value, atom.id) == (0.3, ("e", 0, 2))
    value, atom = make_symmetrized_onb().sup_inner(sv((1, 0.3), (2, 0.3)))
    assert atom.id == ("e", 0, 1)


# ---------------------------------------------------------------------------
# finite dictionaries
# ---------------------------------------------------------------------------

def test_finite_sup_exhaustive():
    d = make_finite([dense([1, 0]), dense([0, 1])])
    value, atom = d.sup_inner(dense([0.6, 0.8]))
    assert value == pytest.approx(0.8, abs=1e-15)
    assert atom.vector == dense([0, 1])


def test_finite_symmetrization():
    d = make_finite([dense([0.6, 0.8])])
    atoms = [a.vector for a in d.atoms]
    assert dense([-0.6, -0.8]) in atoms
    assert len(atoms) == 2


def test_finite_ids_interleave_signs():
    d = make_finite([dense([1, 0]), dense([0, 1])])
    assert [atom_id_str(a.id) for a in d.atoms] == ["y0", "y1", "y2", "y3"]
    assert d.atoms[1].vector == dense([-1, 0])


def test_finite_rejects_zero_atom():
    with pytest.raises(ZeroAtomError):
        make_finite([SparseVector()])
    with pytest.raises(ConfigInvalidError):
        make_finite([])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_finite_rejects_non_finite_atom(value):
    with pytest.raises(ConfigInvalidError, match="not finite"):
        make_finite([SparseVector({1: value, 2: 0.5})])


def test_finite_renormalizes_on_ingest():
    d = make_finite([dense([3, 4])])
    assert norm(d.atoms[0].vector) == pytest.approx(1.0, abs=1e-12)
    assert d.atoms[0].vector.get(1) == pytest.approx(0.6, abs=1e-12)


def test_symmetry_forces_nonnegative_sup():
    rng = np.random.default_rng(7)
    d = make_finite([dense(row) for row in rng.standard_normal((5, 4))])
    for _ in range(50):
        f = dense(rng.standard_normal(4))
        value, _ = d.sup_inner(f)
        assert value >= 0.0


# ---------------------------------------------------------------------------
# selection policies
# ---------------------------------------------------------------------------

def choose(d, f, t, policy):
    """One application of the weak selection rule, as the engine makes it at step 1."""
    return policy.choose(1, d, f, t, *d.sup_inner(f))


def test_max_greedy_select():
    atom = choose(make_symmetrized_onb(), sv((2, 0.9)), 1.0, MaxGreedy())
    assert atom.id == ("e", 0, 2)


def test_scripted_boundary_admissible():
    # ip = 0.25 equals t*sup = 0.5*0.5 exactly
    atom = choose(make_symmetrized_onb(), sv((1, 0.25), (2, 0.5)), 0.5, Scripted(["+e1"]))
    assert atom.id == ("e", 0, 1)


def test_scripted_inadmissible_raises():
    with pytest.raises(NoAdmissibleAtomError):
        choose(make_symmetrized_onb(), sv((1, 0.1), (2, 0.5)), 0.5, Scripted(["+e1"]))


def test_scripted_unknown_atom():
    with pytest.raises(UnknownAtomError):
        choose(make_finite([dense([1, 0])]), dense([1, 0]), 1.0, Scripted(["y5"]))


@pytest.mark.parametrize("step", [0, -1])
def test_scripted_step_below_one_raises(step):
    # plan[step - 1] would play the last ids of the plan
    d, f = make_symmetrized_onb(), sv((1, 0.5), (2, 0.5))
    with pytest.raises(ConfigInvalidError, match=f"^selection plan step must be >= 1, got {step}$"):
        Scripted(["+e1", "+e2"]).choose(step, d, f, 1.0, *d.sup_inner(f))
    with pytest.raises(IndexPastEndError, match="^selection plan exhausted at step 3$"):
        Scripted(["+e1", "+e2"]).choose(3, d, f, 1.0, *d.sup_inner(f))


# ---------------------------------------------------------------------------
# augmented basis
# ---------------------------------------------------------------------------

def test_augmented_sup_compares_basis_and_extras():
    y = dense([1 / math.sqrt(2), 1 / math.sqrt(2)])
    d = make_augmented_onb([y], e_prime={1, 2})
    value, atom = d.sup_inner(sv((1, 1.0)))
    assert (value, atom.id) == (1.0, ("e", 0, 1))
    # along the diagonal the extra atom wins
    value, atom = d.sup_inner(sv((1, 0.5), (2, 0.5)))
    assert value == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert atom.id == ("y", 0)


def test_augmented_rejects_support_outside_eprime():
    with pytest.raises(SupportOutsideEPrimeError):
        make_augmented_onb([SparseVector({3: 1.0})], e_prime={1, 2})


# a bool, a float or an index below 1 is no coordinate index, though 1 in
# {True} and 1 in {1.0} both hold
@pytest.mark.parametrize("e_prime", [[True], [1.5, 1.0], [1.0], [0], [2, -1], [[1, 1]]])
def test_augmented_rejects_an_e_prime_entry_that_is_no_index(e_prime):
    with pytest.raises(ConfigInvalidError, match=r"e_prime\["):
        make_augmented_onb([SparseVector({1: 1.0})], e_prime=e_prime)


def test_augmented_empty_extras_is_plain_onb():
    d = make_augmented_onb([], e_prime=set())
    value, atom = d.sup_inner(sv((4, -0.7)))
    assert (value, atom.id) == (0.7, ("e", 1, 4))


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

def block_vec(block, values):
    return SparseVector({(block, i + 1): float(v) for i, v in enumerate(values) if v != 0})


def test_direct_sum_single_component_matches_component():
    comp = make_finite([dense([1, 0]), dense([0, 1])])
    d = direct_sum([comp])
    f = dense([0.6, 0.8])
    wrapped = block_vec(1, [0.6, 0.8])
    value, atom = d.sup_inner(wrapped)
    cvalue, catom = comp.sup_inner(f)
    assert value == cvalue
    assert atom.id == ("b", 1, catom.id)


def test_direct_sum_blockwise_max():
    one_d = make_finite([dense([1])])
    d = direct_sum([one_d, one_d])
    f = SparseVector({(1, 1): 0.3, (2, 1): -0.4})
    value, atom = d.sup_inner(f)
    assert value == pytest.approx(0.4, abs=1e-15)
    assert atom.id == ("b", 2, ("y", 1))
    assert atom.vector == SparseVector({(2, 1): -1.0})


def test_direct_sum_of_onbs():
    d = direct_sum([make_symmetrized_onb(), make_symmetrized_onb()])
    f = SparseVector({(1, 1): 0.5, (2, 1): 0.7})
    value, atom = d.sup_inner(f)
    assert (value, atom.id) == (0.7, ("b", 2, ("e", 0, 1)))


def test_direct_sum_symmetry():
    d = direct_sum([make_finite([dense([0.6, 0.8])]), make_symmetrized_onb()])
    a = d.realize(("b", 1, ("y", 0)))
    neg = d.realize(("b", 1, ("y", 1)))
    assert neg.vector == SparseVector({i: -v for i, v in a.vector.items()})
    assert d.realize(("b", 2, ("e", 1, 5))).vector == SparseVector({(2, 5): -1.0})


def test_direct_sum_against_flattened_finite_oracle():
    """Blockwise sup must agree with a flat finite dictionary on disjoint coordinates."""
    rng = np.random.default_rng(11)
    a1 = rng.standard_normal((3, 2))
    a2 = rng.standard_normal((4, 3))
    d = direct_sum([make_finite([dense(r) for r in a1]), make_finite([dense(r) for r in a2])])
    flat = make_finite(
        [dense(r / np.linalg.norm(r)) for r in a1]
        + [dense(r / np.linalg.norm(r), offset=2) for r in a2])
    for _ in range(40):
        x1, x2 = rng.standard_normal(2), rng.standard_normal(3)
        f_block = SparseVector({(1, i + 1): float(v) for i, v in enumerate(x1)}
                               | {(2, i + 1): float(v) for i, v in enumerate(x2)})
        f_flat = SparseVector({i + 1: float(v) for i, v in enumerate(list(x1) + list(x2))})
        assert d.sup_inner(f_block)[0] == pytest.approx(flat.sup_inner(f_flat)[0], rel=1e-12)


def test_direct_sum_rejects_nesting_and_empty():
    with pytest.raises(ConfigInvalidError):
        direct_sum([])
    with pytest.raises(ConfigInvalidError):
        direct_sum([direct_sum([make_symmetrized_onb()])])


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_identity_keeps_atoms():
    d = make_finite([dense([1, 0]), dense([0, 1])])
    pd = pushforward(d, np.eye(2))
    assert [a.vector for a in pd.head] == [a.vector for a in d.atoms]


def test_pushforward_rotation():
    d = make_finite([dense([1, 0]), dense([0, 1])])
    q = np.array([[0.0, -1.0], [1.0, 0.0]])   # rotation by pi/2
    pd = pushforward(d, q)
    assert pd.realize(("y", 0)).vector == dense([0, 1])    # Q e1 = e2
    assert pd.realize(("y", 2)).vector == dense([-1, 0])   # Q e2 = -e1
    f = dense([0.6, 0.8])
    qf = dense(q @ np.array([0.6, 0.8]))
    assert pd.sup_inner(qf)[0] == pytest.approx(d.sup_inner(f)[0], abs=1e-12)


def test_pushforward_rejects_non_orthogonal():
    d = make_finite([dense([1, 0])])
    with pytest.raises(NotOrthogonalError):
        pushforward(d, np.array([[2.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("matrix", [
    [[math.nan, 0.0], [0.0, 1.0]],
    [[math.nan, math.nan], [math.nan, math.nan]],
])
def test_pushforward_rejects_nan_matrix(matrix):
    d = make_finite([dense([1, 0])])
    with pytest.raises(NotOrthogonalError):
        pushforward(d, np.array(matrix))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("matrix,deviation", [
    ([[1e200]], "inf"),
    ([[math.inf, 0.0], [0.0, 1.0]], "nan"),
])
def test_pushforward_rejects_an_overflowing_matrix_without_a_warning(matrix, deviation):
    with pytest.raises(NotOrthogonalError, match=f"deviates from identity by {deviation} "):
        pushforward(make_symmetrized_onb(), np.array(matrix))


def test_pushforward_isometry_property():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    d = make_finite([dense(r) for r in rng.standard_normal((6, 4))])
    pd = pushforward(d, q)
    for _ in range(30):
        x = rng.standard_normal(4)
        f, qf = dense(x), dense(q @ x)
        for a, qa in zip(d.atoms, pd.head):
            assert inner(qf, qa.vector) == pytest.approx(inner(f, a.vector), abs=1e-10)


def test_pushforward_of_augmented_keeps_tail():
    y = dense([1 / math.sqrt(2), 1 / math.sqrt(2)])
    base = make_augmented_onb([y], e_prime={1, 2})
    q = np.array([[0.0, -1.0], [1.0, 0.0]])
    pd = pushforward(base, q)
    # beyond the matrix range the basis passes through untouched
    value, atom = pd.sup_inner(sv((5, -0.9)))
    assert (value, atom.id) == (0.9, ("e", 1, 5))
    assert pd.realize(("e", 0, 7)).vector == SparseVector({7: 1.0})
    # inside the range atoms are rotated
    assert pd.realize(("e", 0, 1)).vector == dense([0, 1])


def test_pushforward_of_augmented_range_must_cover_eprime():
    y = dense([1 / math.sqrt(3)] * 3)
    base = make_augmented_onb([y], e_prime={1, 2, 3})
    with pytest.raises(ConfigInvalidError):
        pushforward(base, np.eye(2))


def test_pushforward_of_symmetrized_onb_preserves_dynamics():
    rng = np.random.default_rng(11)
    d = 4
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    moved = pushforward(make_symmetrized_onb(), q)
    assert [a.id for a in moved.head] == [("e", r, i) for i in range(1, d + 1) for r in (0, 1)]
    x = rng.standard_normal(d)
    tail = {5: 0.3, 7: -0.2}
    f = SparseVector({**{i + 1: v for i, v in enumerate(x)}, **tail})
    qf = SparseVector({**{i + 1: v for i, v in enumerate(q @ x)}, **tail})
    tr_base = run(f, make_symmetrized_onb(), Harmonic(), ConstantWeakening(1.0), max_steps=2000)
    tr_moved = run(qf, moved, Harmonic(), ConstantWeakening(1.0), max_steps=2000)
    assert len(tr_base.steps) == len(tr_moved.steps) == 2000
    assert [r.atom.id for r in tr_base.steps] == [r.atom.id for r in tr_moved.steps]
    assert {r.atom.id[2] for r in tr_base.steps} >= {1, 5, 7}
    gap = max(abs(a.residual_norm - b.residual_norm)
              for a, b in zip(tr_base.steps, tr_moved.steps))
    assert gap <= 1e-9


def test_pushforward_of_pushforward_with_tail_inside_range():
    r2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    inner_pd = pushforward(make_symmetrized_onb(), r2)
    assert inner_pd.tail_start == 3
    p3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])   # e1->e2->e3->e1
    pd = pushforward(inner_pd, p3)
    assert pd.tail_start == 4
    # the in-range tail atoms +-e3 are rotated
    assert pd.realize(("e", 0, 3)).vector == dense([1, 0, 0])
    assert pd.realize(("e", 1, 3)).vector == dense([-1, 0, 0])
    # the base head is rotated again: P3 R2 e1 = P3 e2 = e3
    assert pd.realize(("e", 0, 1)).vector == dense([0, 0, 1])
    # the basis beyond the range passes through untouched
    assert pd.realize(("e", 0, 6)).vector == SparseVector({6: 1.0})
    value, atom = pd.sup_inner(sv((1, 0.5), (4, -0.9)))
    assert (value, atom.id) == (0.9, ("e", 1, 4))
    value, atom = pd.sup_inner(sv((1, 0.5)))
    assert (value, atom.id) == (0.5, ("e", 0, 3))


def test_pushforward_rejects_direct_sum_base():
    with pytest.raises(ConfigInvalidError):
        pushforward(direct_sum([make_symmetrized_onb()]), np.eye(2))
    with pytest.raises(ConfigInvalidError):
        dictionary_from_config({"kind": "pushforward", "matrix": [[1.0]],
                                "base": {"kind": "direct_sum",
                                         "components": [{"kind": "symmetrized_onb"}]}})


@pytest.mark.parametrize("matrix", [[[1.0], [1.0, 2.0]], [["a"]], "ab", [[1j]], [[10 ** 400]]],
                         ids=["ragged", "string_entry", "string", "complex", "huge_int"])
def test_pushforward_rejects_a_matrix_that_is_no_real_array(matrix):
    with pytest.raises(NotOrthogonalError, match="matrix must be a square array of reals"):
        pushforward(make_symmetrized_onb(), matrix)


def test_pushforward_rejects_a_user_dictionary_base():
    class Basis(Dictionary):
        def sup_inner(self, f):
            return make_symmetrized_onb().sup_inner(f)

        def realize(self, aid):
            return make_symmetrized_onb().realize(aid)

    with pytest.raises(ConfigInvalidError, match="head-plus-tail dictionary"):
        pushforward(Basis(), np.eye(2))


# ---------------------------------------------------------------------------
# coherence estimate and rank utility
# ---------------------------------------------------------------------------

def test_coherence_r1_is_one():
    est = estimate_coherence(make_finite([dense([1])]), samples=50, seed=1)
    assert est.value == 1.0


def test_coherence_r2_crossed_basis():
    d = make_finite([dense([1, 0]), dense([0, 1])])
    est = estimate_coherence(d, samples=10**4, seed=99)
    assert math.sqrt(2) / 2 <= est.value <= 0.72


def test_coherence_deterministic():
    d = make_finite([dense([1, 0]), dense([0, 1])])
    a = estimate_coherence(d, samples=1, seed=1234)
    b = estimate_coherence(d, samples=1, seed=1234)
    assert a.value == b.value
    assert (a.samples, a.seed) == (1, 1234)


def test_coherence_needs_a_sample():
    with pytest.raises(ConfigInvalidError, match="needs at least one sample"):
        CoherenceEstimate(0.5, samples=0, seed=0)
    with pytest.raises(ConfigInvalidError, match="needs samples >= 1"):
        estimate_coherence(make_finite([dense([1])]), samples=0, seed=0)


def test_atom_id_str_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown atom id"):
        atom_id_str(("z", 1))


def test_finite_dictionary_refuses_a_block_indexed_atom():
    with pytest.raises(ConfigInvalidError, match="finite dictionary atoms must use plain indices"):
        make_finite([dense([1]), SparseVector({(1, 2): 1.0})])


def test_coherence_requires_finite():
    with pytest.raises(ConfigInvalidError):
        estimate_coherence(make_symmetrized_onb(), samples=10, seed=0)


def test_spans_ambient():
    assert spans_ambient(make_finite([dense([1, 0]), dense([0, 1])]))
    # two parallel atoms only span a line of R^2
    assert not spans_ambient(make_finite([dense([0.6, 0.8]), dense([-0.6, -0.8])]))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_dictionary_from_config_all_kinds():
    spec = {
        "kind": "direct_sum",
        "components": [
            {"kind": "finite", "atoms": [[[1, 0.6], [2, 0.8]]]},
            {"kind": "symmetrized_onb"},
            {"kind": "augmented_onb", "e_prime": [1, 2],
             "extra": [[[1, 0.70710678118654752], [2, 0.70710678118654752]]]},
        ],
    }
    d = dictionary_from_config(spec)
    value, atom = d.sup_inner(SparseVector({(2, 3): -1.0}))
    assert (value, atom.id) == (1.0, ("b", 2, ("e", 1, 3)))

    pf = dictionary_from_config({
        "kind": "pushforward",
        "base": {"kind": "finite", "atoms": [[[1, 1.0]], [[2, 1.0]]]},
        "matrix": [[0.0, -1.0], [1.0, 0.0]],
    })
    assert pf.realize(("y", 0)).vector == dense([0, 1])


@pytest.mark.parametrize("bad", [
    {"kind": "mystery"},
    {"kind": "finite"},
    {"kind": "finite", "atoms": [[["x", 1.0]]]},
    {"atoms": []},
    [],
    {"kind": "direct_sum", "components": 5},
    {"kind": "augmented_onb", "e_prime": 3},
    {"kind": "pushforward", "base": {"kind": "finite", "atoms": [[[1, 1.0]]]},
     "matrix": [[1.0, 0.0], [0.0]]},
    {"kind": "pushforward", "base": {"kind": "finite", "atoms": [[[1, 1.0]]]},
     "matrix": [["one"]]},
])
def test_dictionary_from_config_rejects_malformed(bad):
    with pytest.raises(ConfigInvalidError):
        dictionary_from_config(bad)


def _cellwise(head):
    """A head's dense matrix built one cell at a time, as SparseVector.get reads it."""
    columns = sorted({i for a in head for i in a.vector.support()})
    return np.array([[a.vector.get(i) for i in columns] for a in head],
                    dtype=float).reshape(len(head), len(columns))


def test_dense_head_scatters_like_a_cellwise_build():
    rng = np.random.default_rng(11)

    def atoms(count, dim, step=1):
        return [SparseVector({1 + step * k: float(x) for k, x in enumerate(row) if k % 3 != j % 3})
                for j, row in enumerate(rng.standard_normal((count, dim)))]

    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    finite = make_finite(atoms(5, 4, step=2))
    augmented = make_augmented_onb(atoms(3, 4), range(1, 5))
    pushed = pushforward(make_augmented_onb(atoms(2, 3), range(1, 4)), q)
    pushed_finite = pushforward(make_finite(atoms(4, 6)), q)
    summed = direct_sum([make_symmetrized_onb(), finite, augmented, pushed])
    for dictionary in (finite, augmented, pushed, pushed_finite, *summed.components[1:]):
        dense_head = dictionary._dense
        want = _cellwise(dictionary.head)
        assert dense_head.matrix.shape == want.shape
        assert dense_head.matrix.tobytes() == want.tobytes()
        assert dense_head.magnitudes.tobytes() == np.abs(want).tobytes()


def test_direct_sum_from_config_scatters_its_heads():
    spec = {"kind": "direct_sum", "components": [
        {"kind": "finite", "atoms": [[[1, 0.6], [3, -0.8]], [[2, 1.0]], [[1, 1e-320], [3, 1.0]]]},
        {"kind": "augmented_onb", "e_prime": [1, 2], "extra": [[[2, 0.5], [1, -0.5]]]},
        {"kind": "pushforward", "matrix": [[0.0, 1.0], [1.0, 0.0]],
         "base": {"kind": "finite", "atoms": [[[1, 0.25], [2, -0.75]]]}},
    ]}
    for component in dictionary_from_config(spec).components:
        assert component._dense.matrix.tobytes() == _cellwise(component.head).tobytes()
