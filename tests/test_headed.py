"""The head-plus-tail dictionaries: one base behind the symmetrized basis, finite
dictionaries, augmented bases and pushforwards, with the `make_*` names as
their constructors, and a basis tail that refuses block-indexed vectors with a
typed error.
"""

import json
import math

import numpy as np
import pytest

import greedyexp
from greedyexp import dictionaries
from greedyexp.cli import main
from greedyexp.core import SparseVector
from greedyexp.dictionaries import (
    AugmentedOnb,
    DirectSumDictionary,
    FiniteDictionary,
    PushforwardDictionary,
    SymmetrizedOnb,
    atom_matrix,
    direct_sum,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
    pushforward,
)
from greedyexp.engine import run
from greedyexp.errors import ConfigInvalidError
from greedyexp.sequences import ConstantWeakening, Harmonic

Q = [[0.6, -0.8], [0.8, 0.6]]


def test_constructors_are_the_classes():
    assert make_symmetrized_onb is SymmetrizedOnb
    assert make_finite is FiniteDictionary
    assert make_augmented_onb is AugmentedOnb
    assert direct_sum is DirectSumDictionary
    assert pushforward is PushforwardDictionary
    for name in ("make_symmetrized_onb", "make_finite", "make_augmented_onb", "direct_sum",
                 "pushforward"):
        assert getattr(greedyexp, name) is getattr(dictionaries, name)


def test_every_kind_is_an_instance_of_its_class():
    onb = make_symmetrized_onb()
    finite = make_finite([SparseVector({1: 1.0})])
    augmented = make_augmented_onb([], [])
    rotated = pushforward(finite, [[1.0]])
    blocks = direct_sum([onb, finite])
    for d, cls in ((onb, SymmetrizedOnb), (finite, FiniteDictionary),
                   (augmented, AugmentedOnb), (rotated, PushforwardDictionary),
                   (blocks, DirectSumDictionary)):
        assert isinstance(d, cls) and isinstance(d, dictionaries.Dictionary)
        assert d.kind == cls.kind
    assert finite.atoms is finite.head and augmented.extras is augmented.head


@pytest.mark.parametrize("d,aid,what", [
    (make_symmetrized_onb(), ("y", 0), "a signed basis atom"),
    (make_finite([SparseVector({1: 1.0})]), ("e", 0, 1), "an atom of this finite dictionary"),
    (make_augmented_onb([], []), ("y", 0), "an atom of this augmented basis"),
    (pushforward(make_symmetrized_onb(), Q), ("y", 0), "an atom of this pushforward"),
])
def test_unknown_ids_name_their_dictionary(d, aid, what):
    with pytest.raises(dictionaries.UnknownAtomError, match=what):
        d.realize(aid)


def test_atom_matrix_rows_are_the_dense_atoms():
    d = make_finite([SparseVector({1: 0.6, 3: 0.8}), SparseVector({2: 1.0})])
    assert atom_matrix(d).tolist() == [[0.6, 0.0, 0.8], [-0.6, 0.0, -0.8],
                                       [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
    rotated = pushforward(d, np.eye(3)[[1, 2, 0]])
    assert atom_matrix(rotated).tolist() == [[0.0, 0.8, 0.6], [0.0, -0.8, -0.6],
                                             [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]


class _HeadOnly(dictionaries.Dictionary):
    """A user dictionary that looks like a finite one but is not one."""

    kind = "user"
    head = [dictionaries.basis_atom(1, 1.0)]
    tail_start = None

    def sup_inner(self, f):
        raise NotImplementedError

    def realize(self, aid):
        raise NotImplementedError


@pytest.mark.parametrize("d", [make_symmetrized_onb(), make_augmented_onb([], []),
                               direct_sum([make_finite([SparseVector({1: 1.0})])]), _HeadOnly()],
                         ids=["onb", "augmented", "direct_sum", "user"])
def test_finite_diagnostics_need_a_finite_head(d):
    with pytest.raises(ConfigInvalidError):
        atom_matrix(d)


# ---------------------------------------------------------------------------
# a basis tail refuses block-indexed vectors
# ---------------------------------------------------------------------------

BLOCK_VECTORS = {
    "block": {(1, 1): 0.5, (1, 2): 0.25},
    "mixed": {1: 0.5, (1, 2): 0.5},
    "inf_nan": {(1, 1): math.inf, (1, 2): math.nan},
}


def tailed():
    """Every kind with a basis tail: from 1, after a head, and after a matrix range."""
    return [make_symmetrized_onb(),
            make_augmented_onb([SparseVector({1: 0.6, 2: 0.8})], [1, 2]),
            make_augmented_onb([], []),
            pushforward(make_symmetrized_onb(), Q)]


@pytest.mark.parametrize("entries", BLOCK_VECTORS.values(), ids=BLOCK_VECTORS)
@pytest.mark.parametrize("d", tailed(), ids=["onb", "augmented", "augmented_empty", "pushforward"])
def test_basis_tail_refuses_block_indices(d, entries):
    with pytest.raises(ConfigInvalidError, match="plain indices"):
        d.sup_inner(SparseVector(entries))


@pytest.mark.parametrize("entries", BLOCK_VECTORS.values(), ids=BLOCK_VECTORS)
def test_basis_sup_alone_refuses_block_indices(entries):
    with pytest.raises(ConfigInvalidError, match="plain indices"):
        make_symmetrized_onb().sup_inner(SparseVector(entries), witness=False)


def test_augmented_basis_refuses_a_block_indexed_extra():
    # E' may hold the pair, but a head atom, like a basis tail, takes plain indices
    with pytest.raises(ConfigInvalidError,
                       match="^augmented_onb dictionary atoms must use plain indices$"):
        make_augmented_onb([SparseVector({(1, 1): 1.0})], [(1, 1)])


def test_pushforward_refuses_a_base_atom_outside_its_matrix_range():
    with pytest.raises(ConfigInvalidError,
                       match="^atom y0 has support outside the 2-dimensional matrix range$"):
        pushforward(make_finite([SparseVector({1: 0.6, 3: 0.8})]), Q)


def test_empty_augmented_basis_answers_as_the_basis():
    f = SparseVector({3: -0.5, 1: 0.5, 2: 0.25})
    value, atom = make_augmented_onb([], []).sup_inner(f)
    onb_value, onb_atom = make_symmetrized_onb().sup_inner(f)
    assert (value, atom.id) == (onb_value, onb_atom.id) == (0.5, ("e", 0, 1))
    assert make_augmented_onb([], []).realize(("e", 1, 7)).vector == SparseVector({7: -1.0})


def test_block_target_over_a_basis_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigInvalidError):
        run(SparseVector({(1, 1): 0.5}), make_symmetrized_onb(), Harmonic(),
            ConstantWeakening(1.0), max_steps=3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "target": {"inline": [[[1, 1], 0.5], [[1, 2], 0.25]]},
        "dictionary": {"kind": "symmetrized_onb"},
        "coefficients": {"kind": "harmonic"},
        "weakening": {"kind": "constant_t", "t": 1.0},
        "max_steps": 3,
        "outputs": {"trace": str(tmp_path / "t.csv"), "metadata": str(tmp_path / "m.json")},
    }))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_block_of_a_direct_sum_still_reads_its_basis_tail():
    d = direct_sum([make_symmetrized_onb(), make_augmented_onb([], [])])
    value, atom = d.sup_inner(SparseVector({(1, 1): 0.25, (2, 3): -0.5}))
    assert (value, atom.id) == (0.5, ("b", 2, ("e", 1, 3)))
