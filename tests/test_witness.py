"""Witness-free selection for policies that never read the witness.

A policy with ``needs_witness = False`` (``Scripted``) makes the engine ask a
dictionary with ``witness_optional = True`` (the symmetrized basis) for
``sup_inner(f, witness=False)``: the sup alone, with None for the atom. Every
other dictionary, a user's one-argument dictionary among them, is asked
``sup_inner(f)`` under every policy. These tests pin that the basis's
witness-free sup is its witness query's sup bit for bit, also on heaps
carried through steps and parents queried again; who is asked for what; that
a head-plus-tail dictionary keeps each atom a scripted replay realizes, and
the replay still aborts, typed, on every id it cannot realize; that scripted atom ids with bool
indices are unknown atoms; and that the trace writer's bytes are
csv.writer's.
"""

import csv
import io
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_incremental import TIED, tied_vector
from test_screen import PLAIN, orthogonal, remainders

import greedyexp.core as core
import greedyexp.dictionaries as dictionaries
from greedyexp.core import SparseVector, subtract_scaled
from greedyexp.counterexample import build_plan, build_target, default_config, run_plan
from greedyexp.dictionaries import (
    Atom,
    Dictionary,
    MaxGreedy,
    Scripted,
    atom_id_str,
    direct_sum,
    make_augmented_onb,
    make_finite,
    make_symmetrized_onb,
    pushforward,
)
from greedyexp.engine import StepRecord, Trace, run, write_trace_csv
from greedyexp.errors import GreedyExpansionError, UnknownAtomError
from greedyexp.sequences import ConstantWeakening, Harmonic, Power

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
ONB = make_symmetrized_onb()


def answer(f, witness):
    """(sup as hex, witness id or None) of one basis query, or the exception
    type it raises."""
    try:
        if witness:
            value, atom = ONB.sup_inner(f)
        else:
            value, atom = ONB.sup_inner(f, witness=False)
    except GreedyExpansionError as exc:
        return type(exc)
    return value.hex(), None if atom is None else atom.id


def assert_sup_alone_matches(f):
    """witness=False gives a fresh witness query's sup bit for bit, and None,
    on f as it stands and on copies where either mode reads the heap first."""
    expected = answer(SparseVector(dict(f.items())), True)
    alone = expected if isinstance(expected, type) else (expected[0], None)
    assert answer(f, False) == alone
    assert answer(f, True) == expected
    g = SparseVector(dict(f.items()))
    assert answer(g, False) == alone
    assert answer(g, True) == expected
    assert answer(g, False) == alone
    h = SparseVector(dict(f.items()))
    assert answer(h, True) == expected
    assert answer(h, False) == alone


def test_only_the_basis_gives_the_sup_alone():
    assert Dictionary.witness_optional is False
    assert ONB.witness_optional is True
    head = [SparseVector({1: 1.0, 2: 1.0})]
    for d in (make_finite(head), make_augmented_onb(head, [1, 2]),
              pushforward(make_finite(head), orthogonal(0, 2)), direct_sum([ONB, ONB])):
        assert d.witness_optional is False


# ---------------------------------------------------------------------------
# the basis's sup alone, on near-ties, scales and carried heaps
# ---------------------------------------------------------------------------

@PROPERTY
@given(remainders(PLAIN))
def test_sup_alone_equals_witness_sup(f):
    assert_sup_alone_matches(f)


@pytest.mark.parametrize("entries", [
    {1: 1e-320, 2: -1e-320},
    {1: 1e308, 2: 1e308},
    {1: -0.0, 2: 0.0},
    {1: float("inf"), 2: 0.5},
    {1: float("nan"), 2: 0.5},
    {7: 1.0},
    {},
])
def test_extreme_remainders_agree(entries):
    assert_sup_alone_matches(SparseVector(entries))


@PROPERTY
@given(st.floats(min_value=1e-3, max_value=10.0), TIED, TIED)
def test_carried_heaps_give_the_same_sup(base, draws, updates):
    f = tied_vector(base, draws)
    kept = [f]
    for i, level, gap, sign in updates[:12]:
        assert_sup_alone_matches(f)
        new = tied_vector(base, [(i, level, gap, sign)]).get(i) if level else 0.0
        f = subtract_scaled(f, 1.0, SparseVector({i: f.get(i) - new}))
        kept.append(f)
    # parents asked again after their heaps went to their children
    for g in kept:
        assert_sup_alone_matches(g)


# ---------------------------------------------------------------------------
# a NaN on a basis tail raises as one on a head does
# ---------------------------------------------------------------------------

NAN_MESSAGE = "^sup is nan: the vector has a NaN entry$"
NAN = float("nan")


@pytest.mark.parametrize("witness", [True, False])
def test_nan_on_the_basis_raises_in_both_witness_modes(witness):
    f = SparseVector({1: NAN, 2: 0.5, 3: 0.7})
    with pytest.raises(GreedyExpansionError, match=NAN_MESSAGE):
        ONB.sup_inner(f) if witness else ONB.sup_inner(f, witness=False)


@pytest.mark.parametrize("index", [5, 1])
def test_nan_on_an_augmented_tail_raises_as_on_its_head(index):
    # coordinate 1 is the head's, coordinate 5 the tail's
    d = make_augmented_onb([SparseVector({1: 1.0})], [1])
    with pytest.raises(GreedyExpansionError, match=NAN_MESSAGE):
        d.sup_inner(SparseVector({index: NAN, 2: 0.5}))


@pytest.mark.parametrize("basis", [ONB, make_augmented_onb([SparseVector({1: 1.0})], [1])])
def test_nan_in_a_basis_block_of_a_direct_sum_raises(basis):
    d = direct_sum([make_finite([SparseVector({1: 1.0})]), basis])
    f = SparseVector({(1, 1): 0.5, (2, 2): 0.25, (2, 5): NAN})
    with pytest.raises(GreedyExpansionError, match=NAN_MESSAGE):
        d.sup_inner(f)


@pytest.mark.parametrize("witness", [True, False])
def test_nan_that_a_step_writes_into_a_carried_heap_raises(witness):
    f = SparseVector({1: float("inf"), 2: 0.5})
    assert answer(f, witness)[0] == float("inf").hex()
    # inf - inf: the handed-over heap gets a NaN node, and is not rebuilt
    g = subtract_scaled(f, 1.0, SparseVector({1: float("inf")}))
    assert g._heap is not None
    with pytest.raises(GreedyExpansionError, match=NAN_MESSAGE):
        ONB.sup_inner(g) if witness else ONB.sup_inner(g, witness=False)


@pytest.mark.parametrize("witness", [True, False])
@pytest.mark.parametrize("entries", [{1: float("inf"), 2: NAN}, {1: NAN, 2: float("inf")}],
                         ids=["inf_then_nan", "nan_then_inf"])
def test_nan_beside_an_infinite_entry_raises_in_both_witness_modes(witness, entries):
    # the NaN's node sorts before the infinite entry's, whatever their indices
    with pytest.raises(GreedyExpansionError, match=NAN_MESSAGE):
        ONB.sup_inner(SparseVector(entries), witness=witness)


@pytest.mark.parametrize("witness", [True, False])
def test_a_query_on_overflowing_squares_takes_no_square_sum(witness, monkeypatch):
    # every square overflows, so the vector never caches a square sum; the
    # heap finds a NaN by itself and needs none
    f = SparseVector({i: 1e200 / i for i in range(1, 1001)})

    def refuse(v):
        raise AssertionError("a sup query took a square sum")
    monkeypatch.setattr(core, "_exact_square_sum", refuse)
    for _ in range(2):
        assert ONB.sup_inner(f, witness=witness)[0] == 1e200


# ---------------------------------------------------------------------------
# the engine: who is asked for what, and what a scripted replay skips
# ---------------------------------------------------------------------------

class Witnessed(Scripted):
    """A scripted replay that asks for the witness it does not use."""

    needs_witness = True


def records(trace):
    return [(r.atom.id, r.c.hex(), r.ip.hex(), r.sup.hex(), r.residual_norm.hex())
            for r in trace.steps]


def test_counterexample_replay_never_walks_the_witness_band(monkeypatch):
    calls = []
    peak = dictionaries.tail_peak

    def counted(*args):
        calls.append(args)
        return peak(*args)

    plan = build_plan(default_config(0.5, 6))
    monkeypatch.setattr(dictionaries, "tail_peak", counted)
    trace = run_plan(plan)
    assert calls == []
    assert trace.status.kind == "stopped" and len(trace.steps) == len(plan)
    # a replay that takes the witness walks the band every step and records
    # the same steps, sup bits included
    witnessed = run(build_target(plan.config), make_symmetrized_onb(), plan.coefficients,
                    ConstantWeakening(0.5), policy=Witnessed(plan.selections),
                    max_steps=len(plan) + 1)
    assert len(calls) == len(plan)
    assert witnessed.status == trace.status
    assert records(witnessed) == records(trace)


class OneArgument(Dictionary):
    """A user dictionary written to the one-argument sup_inner."""

    kind = "one_argument"

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def sup_inner(self, f):
        self.calls += 1
        return self.inner.sup_inner(f)

    def realize(self, aid):
        return self.inner.realize(aid)


class Plain:
    """A user policy with no needs_witness attribute."""

    def __init__(self):
        self.witnesses = []

    def choose(self, step, dictionary, f, t, sup, witness):
        self.witnesses.append(witness)
        return witness


def test_policy_without_needs_witness_receives_the_witness():
    target = SparseVector({1: 0.5, 2: -0.75, 3: 0.25, 4: 0.75 - 1e-13})
    policy = Plain()
    trace = run(target, make_symmetrized_onb(), Harmonic(), ConstantWeakening(1.0),
                policy=policy, max_steps=40)
    assert len(policy.witnesses) == len(trace.steps) == 40
    assert all(isinstance(w, Atom) for w in policy.witnesses)
    greedy = run(target, make_symmetrized_onb(), Harmonic(), ConstantWeakening(1.0),
                 policy=MaxGreedy(), max_steps=40)
    assert records(trace) == records(greedy)


@pytest.mark.parametrize("wrap", [
    lambda onb: OneArgument(onb),
    lambda onb: direct_sum([OneArgument(onb), make_finite([SparseVector({1: 1.0})])]),
], ids=["standalone", "direct_sum_block"])
def test_one_argument_dictionary_replays_a_script(wrap):
    """A dictionary that predates the witness flag is asked for the witness
    under Scripted too, and the replay records what the basis's does."""
    onb = make_symmetrized_onb()
    d = wrap(onb)
    user = d if isinstance(d, OneArgument) else d.components[0]
    plan = build_plan(default_config(0.5, 3))
    selections = plan.selections
    target = build_target(plan.config)
    if user is not d:
        selections = [("b", 1, aid) for aid in selections]
        target = SparseVector({(1, i): x for i, x in target.items()})
    trace = run(target, d, plan.coefficients, ConstantWeakening(0.5),
                policy=Scripted(selections), max_steps=len(plan) + 1)
    assert user.calls == len(trace.steps) == len(plan)
    replay = run_plan(plan)
    assert trace.status == replay.status
    assert [r.sup.hex() for r in trace.steps] == [r.sup.hex() for r in replay.steps]


def test_scripted_choose_is_handed_no_witness_by_the_basis_only():
    seen = []

    class Spy(Scripted):
        def choose(self, step, dictionary, f, t, sup, witness):
            seen.append(witness)
            return super().choose(step, dictionary, f, t, sup, witness)

    target = SparseVector({1: 1.0, 2: 0.5})
    run(target, make_symmetrized_onb(), Power(1.0), ConstantWeakening(0.5),
        policy=Spy(["+e1", "+e2"]), max_steps=2)
    assert seen == [None, None]
    # a head dictionary keeps finding its witness, which Scripted ignores
    run(target, make_augmented_onb([SparseVector({1: 0.6, 2: 0.8})], [1, 2]), Power(1.0),
        ConstantWeakening(0.5), policy=Spy(["+e1", "+e2"]), max_steps=2)
    assert [atom_id_str(w.id) for w in seen[2:]] == ["+e1", "+e2"]


# ---------------------------------------------------------------------------
# a head-plus-tail dictionary keeps the atoms it realizes, so a scripted
# replay builds each once
# ---------------------------------------------------------------------------

def test_counterexample_replay_realizes_each_id_once():
    plan = build_plan(default_config(0.5, 6))
    trace = run_plan(plan)
    assert trace.status.kind == "stopped" and len(trace.steps) == len(plan)
    assert len({id(r.atom) for r in trace.steps}) == len(set(plan.selections)) < len(plan)


def headed_kinds():
    """Each head-plus-tail kind with a head id and, where it has a tail, a
    tail id."""
    extra = [SparseVector({1: 0.6, 2: 0.8})]
    cases = [
        (make_symmetrized_onb(), [("e", 0, 4), ("e", 1, 1)]),
        (make_finite(extra), [("y", 0), ("y", 1)]),
        (make_augmented_onb(extra, [1, 2]), [("y", 1), ("e", 0, 1), ("e", 1, 7)]),
        (pushforward(make_symmetrized_onb(), [[0.6, -0.8], [0.8, 0.6]]),
         [("e", 0, 2), ("e", 1, 3)]),
    ]
    return [pytest.param(d, aids, id=d.kind) for d, aids in cases]


@pytest.mark.parametrize("d, aids", headed_kinds())
def test_headed_dictionary_returns_the_atom_it_keeps(d, aids):
    for aid in aids:
        assert d.realize(aid) is d.realize(aid)
        assert d.realize(aid).id == aid


@pytest.mark.parametrize("d, aids", headed_kinds())
def test_failed_realize_stores_nothing(d, aids):
    # ("e", 0, True) equals the pushforward's head id ("e", 0, 1)
    bad_ids = [("y", 9), ("e", 0, True), ("e", 0, 1.0), ("e", 0, [1]), ("b", 1, ("e", 0, 1))]
    if d.tail_start is None:
        bad_ids.append(("e", 0, 1))
    kept = dict(d._atoms)
    for bad in bad_ids:
        for _ in range(2):
            with pytest.raises(UnknownAtomError):
                d.realize(bad)
        assert d._atoms == kept


def two_bases():
    """One run on the basis and on its image under Q, where +e1 is Q·e1: the
    targets are f = 2e1 + e2 and Q·f."""
    q = [[0.6, -0.8], [0.8, 0.6]]
    return [(make_symmetrized_onb(), SparseVector({1: 2.0, 2: 1.0})),
            (pushforward(make_symmetrized_onb(), q), SparseVector({1: 0.4, 2: 2.2}))]


def replay(case, policy, steps):
    d, f = case
    return run(f, d, Power(1.0), ConstantWeakening(0.1), policy=policy, max_steps=steps)


def test_one_instance_replays_on_two_dictionaries():
    """Each dictionary realizes the shared plan with its own atoms."""
    cases = two_bases()
    plan = ["+e1", "+e2", "+e1"]
    shared = Scripted(plan)
    for case in cases + cases:
        kept, fresh = replay(case, shared, 3), replay(case, Scripted(plan), 3)
        assert len(kept.steps) == 3 and kept.status == fresh.status
        assert records(kept) == records(fresh)
        assert [r.atom.vector for r in kept.steps] == [r.atom.vector for r in fresh.steps]
    (onb, _), (moved, _) = cases
    assert moved.realize(("e", 0, 1)).vector != onb.realize(("e", 0, 1)).vector


def test_threads_sharing_one_instance_keep_their_own_atoms():
    """Threads that replay one Scripted on two dictionaries in turn, switching
    as often as the interpreter allows, each record what a fresh replay does."""
    cases = two_bases()
    plan = ["+e1", "+e2", "+e1", "-e2", "+e1"]
    expected = [records(replay(case, Scripted(plan), len(plan))) for case in cases]
    shared, wrong = Scripted(plan), []

    def worker(k):
        for j in range(k, k + 2000):
            if records(replay(cases[j % 2], shared, len(plan))) != expected[j % 2]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_unknown_id_aborts_at_its_step_on_every_replay():
    target = SparseVector({1: 1.0, 2: 0.5, 3: 0.25})
    policy = Scripted(["+e1", "+e2", "y0", "+e3"])
    for _ in range(2):
        trace = run(target, make_symmetrized_onb(), Power(1.0), ConstantWeakening(0.5),
                    policy=policy, max_steps=4)
        assert trace.status.kind == "aborted" and trace.status.step == 3
        assert trace.status.reason == "UnknownAtomError: y0 is not a signed basis atom"


@pytest.mark.parametrize("plan, step", [
    ([("b", 1, ["e", 0, 1])], 1),
    ([("e", 0, [1])], 1),
    # True == 1 and hash(True) == hash(1): a memoized +e1 must not answer for it
    ([("e", 0, 1), ("e", 0, True)], 2),
    ([("e", 0, 1), ("e", 0, 1.0)], 2),
], ids=["unhashable_block", "unhashable_index", "bool_after_int", "float_after_int"])
def test_ill_formed_ids_abort_typed(plan, step):
    target = SparseVector({1: 1.0, 3: 0.5})
    trace = run(target, make_symmetrized_onb(), Power(0.5, 0.5), ConstantWeakening(0.5),
                policy=Scripted(plan), max_steps=3)
    assert trace.status.kind == "aborted" and trace.status.step == step
    assert trace.status.reason == \
        f"UnknownAtomError: {plan[-1]!r} is not a signed basis atom"


class EqualWithoutHash(OneArgument):
    """A user dictionary that defines __eq__ and so has no __hash__."""

    def __eq__(self, other):
        return isinstance(other, EqualWithoutHash) and other.inner is self.inner


def test_unhashable_dictionary_replays_a_script():
    d = EqualWithoutHash(make_symmetrized_onb())
    assert EqualWithoutHash.__hash__ is None
    plan = build_plan(default_config(0.5, 3))
    trace = run(build_target(plan.config), d, plan.coefficients, ConstantWeakening(0.5),
                policy=Scripted(plan.selections), max_steps=len(plan) + 1)
    assert d.calls == len(trace.steps) == len(plan)
    assert records(trace) == records(run_plan(plan))


# ---------------------------------------------------------------------------
# scripted atom ids with bool indices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("aid", [("e", 0, True), ("y", True), ("e", True, 3),
                                 ("b", True, ("e", 0, 1)), ("b", 1, ("e", 0, False))])
def test_bool_indices_are_unknown_atoms(aid):
    target = SparseVector({1: 1.0, 3: 0.5})
    dictionary = make_symmetrized_onb()
    with pytest.raises(UnknownAtomError, match=r"^\("):
        dictionary.realize(aid)
    trace = run(target, dictionary, Harmonic(), ConstantWeakening(0.5),
                policy=Scripted([aid]), max_steps=3)
    assert trace.status.kind == "aborted" and trace.status.step == 1
    assert trace.status.reason == \
        f"UnknownAtomError: {aid!r} is not a signed basis atom"


def test_bool_index_in_a_direct_sum_is_unknown():
    d = direct_sum([make_symmetrized_onb(), make_symmetrized_onb()])
    with pytest.raises(UnknownAtomError, match=r"\('b', True"):
        d.realize(("b", True, ("e", 0, 1)))
    assert d.realize(("b", 1, ("e", 0, 1))).vector == SparseVector({(1, 1): 1.0})


def test_realized_basis_atoms_equal_validated_ones():
    onb = make_symmetrized_onb()
    for aid, vector in [(("e", 0, 4), {4: 1.0}), (("e", 1, 9), {9: -1.0})]:
        atom = onb.realize(aid)
        assert atom.id == aid and atom.vector == SparseVector(vector)
        assert dict(atom.vector.items()) == vector


# ---------------------------------------------------------------------------
# the trace writer writes csv.writer's bytes
# ---------------------------------------------------------------------------

EDGE_VALUES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e308,
               -1e-300, 1.0 / 3, 2.0 ** 52 + 1]


def csv_writer_bytes(trace):
    """The trace CSV as csv.writer writes it, each float as %.17g text."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["m", "atom", "c", "t", "ip", "sup", "residual_norm", "block"])
    for r in trace.steps:
        writer.writerow([r.m, dictionaries.atom_id_str(r.atom.id),
                         *(f"{x:.17g}" for x in (r.c, r.t, r.ip, r.sup, r.residual_norm)),
                         "" if r.block is None else r.block])
    return out.getvalue().encode()


@pytest.mark.parametrize("blocks", [False, True], ids=["plain", "blocks"])
def test_trace_csv_bytes_equal_csv_writer(tmp_path, blocks):
    ids = [("e", 0, 3), ("e", 1, 12), ("y", 7)]
    if blocks:
        ids = [("b", 1 + k % 2, aid) for k, aid in enumerate(ids)]
    empty = SparseVector()
    steps = []
    for m in range(1, 3 * len(EDGE_VALUES) + 1):
        aid = ids[m % len(ids)]
        values = [EDGE_VALUES[(m * k) % len(EDGE_VALUES)] for k in (1, 2, 3, 5, 7)]
        steps.append(StepRecord(m, Atom(aid, empty), *values,
                                block=aid[1] if blocks else None))
    trace = Trace(steps=steps)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert path.read_bytes() == csv_writer_bytes(trace)
    empty_path = tmp_path / "empty.csv"
    write_trace_csv(Trace(), str(empty_path))
    assert empty_path.read_bytes() == csv_writer_bytes(Trace())
