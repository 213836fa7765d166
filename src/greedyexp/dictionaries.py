"""Symmetric dictionaries: selection oracles and the standard constructors.

A dictionary answers two queries: the supremum of inner products against a
vector (with the atom attaining it), and the realization of an atom id. All
constructed dictionaries are symmetric (closed under negation). Tie-breaking
is by the smallest atom id under a fixed total order so that traces are
reproducible bit for bit. A dictionary with an empty head (below: the
symmetrized basis, or an augmented basis without extra atoms) can also give
the sup alone, for a policy that never reads the witness.

Every dictionary but a direct sum is one object, a `_Headed`: a materialized
`head` of atoms plus, unless `tail_start` is None, the untouched signed basis on
indices >= tail_start, with one `sup_inner` and one `realize` for all of them.
Its subclasses (the symmetrized basis, finite dictionaries, augmented bases and
pushforwards) only validate their input and build the head; the symmetrized
basis has an empty head and the tail from index 1. The `make_*` names,
`direct_sum` and `pushforward` are the classes themselves. Head atoms and a
basis tail take plain indices only: a block-indexed atom or vector raises
ConfigInvalidError. A nonempty head is also kept as a dense float64 matrix. A
query bounds every head atom's `fsum` score with one matrix-vector product and
a certified error bound, and scores exactly only the atoms that can reach the
sup or its witness band; the answer is the one a full scan gives, bit for bit.
numpy is imported only where a dense array is built or read: nonempty heads
(finite, augmented, pushforward, and direct sums holding one), the pushforward
matrix and the coherence tools.

Atom ids are plain tuples whose natural tuple order is the canonical order:

    ("e", sign_rank, i)      signed basis atom, sign_rank 0 for +e_i, 1 for -e_i
    ("y", k)                 k-th materialized dense atom (negations interleaved)
    ("b", block, inner_id)   component atom lifted into a direct sum

String form: "+e12", "-e3", "y4", "b2:+e1". Indices and blocks count from 1,
and a direct sum lifts only basis and dense ids: sums do not nest.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .core import (SparseVector, block_parts, index_key, inner, lifted, norm_or_inf, tail_peak,
                   tail_top, validate_index)
from .errors import (
    ConfigInvalidError,
    EmptyVectorError,
    GreedyExpansionError,
    IndexPastEndError,
    NotOrthogonalError,
    SupportOutsideEPrimeError,
    UnknownAtomError,
    ZeroAtomError,
    parse_tagged,
)

if TYPE_CHECKING:
    import numpy as np

#: slack for the weak selection inequality; the adversarial construction hits
#: the t*sup boundary exactly, so float equality must not spuriously fail.
ADMISSIBILITY_SLACK = 1e-12

#: witnesses may trail the exact sup by this much before losing to a smaller
#: atom id. Floating point blurs exact ties (the same expansion computed in
#: rotated coordinates reproduces inner products only to ~1e-15), and greedy
#: dynamics actively equalize inner products, so argmax without a band flips
#: selections between isometric copies of the same run. Direct sums resolve
#: ties in two stages, hence half of ADMISSIBILITY_SLACK each.
WITNESS_BAND = 5e-13

_ATOM_NORM_FLOOR = 1e-12
_ORTHOGONALITY_TOL = 1e-9

AtomId = tuple


@dataclass(frozen=True)
class Atom:
    """A dictionary element: its id in the canonical order and its realization."""

    id: AtomId
    vector: SparseVector


@dataclass(frozen=True)
class CoherenceEstimate:
    """Sampled upper bound for the coherence-type constant of a finite dictionary."""

    value: float
    samples: int
    seed: int

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0 + 1e-12):
            raise ConfigInvalidError(f"coherence estimate must lie in (0, 1], got {self.value}")
        if self.samples < 1:
            raise ConfigInvalidError("coherence estimate needs at least one sample")


def atom_id_str(aid: AtomId) -> str:
    kind = aid[0]
    if kind == "e":
        return f"{'+' if aid[1] == 0 else '-'}e{aid[2]}"
    if kind == "y":
        return f"y{aid[1]}"
    if kind == "b":
        return f"b{aid[1]}:{atom_id_str(aid[2])}"
    raise ValueError(f"unknown atom id {aid!r}")


# the string forms atom_id_str writes for the ids _well_formed accepts, and no
# other: one optional block prefix over a basis or dense id, numbers in ASCII
# digits without leading zeros, blocks and basis indices from 1. It is matched
# with fullmatch, since "$" also matches before a final newline
_ATOM_ID_RE = re.compile(r"(?:b([1-9][0-9]*):)?(?:([+-])e([1-9][0-9]*)|y(0|[1-9][0-9]*))")


def parse_atom_id(text: str) -> AtomId:
    """The well-formed atom id whose atom_id_str is text; raises ValueError for
    any other text."""
    m = _ATOM_ID_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse atom id {text!r}")
    block, sign, index, k = m.groups()
    aid = ("y", int(k)) if sign is None else ("e", 0 if sign == "+" else 1, int(index))
    return aid if block is None else ("b", int(block), aid)


def basis_atom(index: int, sign: float) -> Atom:
    """The signed basis atom +e_index for a positive sign, -e_index for any
    other: the one constructor of a basis atom. index must be a valid plain
    index, so it is not validated again."""
    if sign > 0:
        return Atom(("e", 0, index), SparseVector._trusted({index: 1.0}))
    return Atom(("e", 1, index), SparseVector._trusted({index: -1.0}))


def _best(candidates: list) -> tuple:
    """The exact largest value, paired with the smallest-id atom that comes
    within WITNESS_BAND of it."""
    if not candidates:
        raise EmptyVectorError("sup over a symmetric dictionary needs a nonzero vector")
    if len(candidates) == 1:
        return candidates[0]
    top = max(value for value, _ in candidates)
    winner = min((atom for value, atom in candidates if value >= top - WITNESS_BAND),
                 key=lambda a: a.id, default=None)
    if winner is None:
        # only a NaN top leaves no candidate within its band
        raise GreedyExpansionError(f"sup is {top!r}: the vector has a NaN entry")
    return top, winner


# below 2**1023 no partial sum of a head row's score overflows
_SCREEN_LIMIT = 2.0 ** 1023

_np = None


def _numpy():
    """The numpy module, imported at its first call: the symmetrized basis,
    the engine, the counterexample and the checks run without it. After that
    a call is a global read, not an import statement, so the per-step head
    query pays next to nothing for it. numpy is an optional dependency, the
    `dense` extra: without it, the call raises GreedyExpansionError."""
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError as exc:
            raise GreedyExpansionError(
                "this needs numpy, which is not installed: dense dictionaries (finite, augmented "
                "with extra atoms, pushforward) and the coherence tools take the 'dense' extra, "
                "pip install 'greedyexp[dense]'") from exc
        _np = numpy
    return _np


def _dense_rows(atoms: Sequence[Atom], columns: Sequence) -> np.ndarray:
    """The atoms' vectors as the rows of a float64 matrix, one column per
    coordinate index in columns, which must hold every atom's support."""
    np = _numpy()
    position = {i: k for k, i in enumerate(columns)}
    rows = []
    for a in atoms:
        row = [0.0] * len(position)
        for i, x in a.vector._entries.items():
            row[position[i]] = x
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(atoms), len(position))


class _DenseHead:
    """A materialized head as a dense float64 matrix, one row per atom in head
    order, over the sorted union of the atoms' supports, with its absolute
    value beside it: the input of the certified screen in _Headed.sup_inner."""

    __slots__ = ("columns", "matrix", "magnitudes", "factor", "floor")

    def __init__(self, head: Sequence[Atom]):
        np = _numpy()
        self.columns = sorted({i for a in head for i in a.vector._entries}, key=index_key)
        self.matrix = _dense_rows(head, self.columns)
        self.magnitudes = np.abs(self.matrix)
        # A row's gemv value and its fsum score differ by at most
        # (gamma_d + 2u) * S + d * 2**-1074, S being the exact sum of |h_i x_i|
        # over the d columns: the gemv errs by gamma_d * S in any summation
        # order, FMA included (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2nd ed., 2002, section 3.1), fsum by u * S for its
        # products and u * S for its one rounding, and each of the 2d products
        # by at most 2**-1075 more on underflow. The computed magnitude sum and
        # the bound's own roundings lose a relative gamma_d + 2u at most, so
        # this factor and floor cover the difference with room to spare.
        d = len(self.columns)
        self.factor = 2 * (d + 4) * 2.0 ** -53
        self.floor = 2 * (d + 2) * 2.0 ** -1074

    def rows(self, f: SparseVector, tail_top: float):
        """Indices, in head order, of the rows whose fsum score can reach the
        best certified lower end, or tail_top, minus WITNESS_BAND: the top row
        and every row within the band of the sup. Every row when a bound is
        not finite or a score could overflow."""
        np = _numpy()
        n = len(self.columns)
        x = np.fromiter(map(f._entries.get, self.columns, repeat(0.0, n)), float, n)
        # a non-finite remainder is scored like any other, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            est = self.matrix @ x
            magnitude = self.magnitudes @ np.abs(x)
        # a NaN fails the test too
        if not magnitude.max() < _SCREEN_LIMIT:
            return range(len(est))
        err = magnitude * self.factor + self.floor
        # rounding is monotone, so est - err stays below each score, est + err
        # above it, and the threshold below the sup minus WITNESS_BAND
        threshold = max(float((est - err).max()), tail_top) - WITNESS_BAND
        return np.flatnonzero(est + err >= threshold).tolist()


def _well_formed(aid) -> bool:
    """Does aid have the shape of a basis or dense atom id, or of one lifted
    into a direct sum (one level: sums do not nest)? Its numbers must be plain
    ints: a bool is not an index."""
    if isinstance(aid, tuple) and len(aid) == 3 and aid[0] == "b":
        if not (type(aid[1]) is int and aid[1] >= 1):
            return False
        aid = aid[2]
    if not isinstance(aid, tuple) or not aid:
        return False
    if aid[0] == "e":
        return (len(aid) == 3 and type(aid[1]) is int and aid[1] in (0, 1)
                and type(aid[2]) is int and aid[2] >= 1)
    return aid[0] == "y" and len(aid) == 2 and type(aid[1]) is int and aid[1] >= 0


def _unknown(aid, what: str) -> UnknownAtomError:
    text = atom_id_str(aid) if _well_formed(aid) else repr(aid)
    return UnknownAtomError(f"{text} is not {what}")


class Dictionary(ABC):
    """Selection oracle over a symmetric set of unit-norm atoms.

    A dictionary whose witness_optional is True also answers
    sup_inner(f, witness=False) with (sup, None), the same sup bit for bit.
    The engine asks that only of such a dictionary, and only for a policy that
    never reads the witness, passing False by position; every other call
    passes f alone."""

    kind: str
    witness_optional = False

    @abstractmethod
    def sup_inner(self, f: SparseVector) -> tuple:
        """Exact max of <f, g> over atoms g, with the smallest-id atom whose
        inner product comes within WITNESS_BAND of it."""

    @abstractmethod
    def realize(self, aid: AtomId) -> Atom:
        """Resolve an atom id to its Atom; raises UnknownAtomError. Equal ids
        must give equal atoms every time; Scripted calls this at every step
        it plays, so a dictionary that builds its atoms may keep them."""


class _Headed(Dictionary):
    """A materialized head plus, unless tail_start is None, the untouched
    signed basis on indices >= tail_start: every dictionary but a direct sum.
    Head atoms take plain indices only. A dictionary with an empty head also
    gives the sup alone (witness_optional). what names the dictionary in an
    UnknownAtomError. _atoms holds the head atoms and each basis-tail atom
    realize has built, by id."""

    def __init__(self, head: list, tail_start: Optional[int], what: str):
        if tuple in {type(i) for a in head for i in a.vector._entries}:
            raise ConfigInvalidError(f"{self.kind} dictionary atoms must use plain indices")
        self.head, self.tail_start, self._what = head, tail_start, what
        self.witness_optional = not head
        self._atoms = {a.id: a for a in head}
        # an empty head has no dense form, so numpy stays unloaded
        self._dense = _DenseHead(head) if head else None

    def sup_inner(self, f: SparseVector, witness: bool = True) -> tuple:
        """The sup over the head atoms and the basis tail. Ties resolve in two
        stages: the basis tail picks its own witness first, then _best decides
        between it and the head. The tail's exact max and the entries within
        WITNESS_BAND of it come from f's magnitude heap, so a step on a basis
        tail scans no remainder.

        The head is screened, not scanned: its _DenseHead bounds every row's
        fsum score with two matrix-vector products, and only the rows that can
        reach the sup or its witness band are scored with `inner`. Those
        include the top row and every row within the band, kept in head order,
        so _best returns the value and witness a full scan gives, bit for bit.

        witness=False on an empty head gives (sup, None): the tail's top
        alone, with no search for its witness. On an empty head the tail's
        answer is the answer, as _best gives it for one candidate; a zero
        vector raises _best's error either way."""
        head, tail_start = self.head, self.tail_start
        if not (witness or head):
            top = tail_top(f, tail_start)
            return _best([]) if top is None else (top, None)
        peak = None if tail_start is None else tail_peak(f, tail_start, WITNESS_BAND)
        candidates = []
        if head and not f.is_zero():
            rows = self._dense.rows(f, -math.inf if peak is None else peak[0])
            candidates = [(inner(f, head[k].vector), head[k]) for k in rows]
        if peak is not None:
            top, near = peak
            if len(near) == 1:
                [(i, x)] = near
            else:
                # the smallest id: a positive entry first, then the smallest
                # index; i is one of f's entries, a valid plain index
                _, i, x = min((x < 0, i, x) for i, x in near)
            if not head:
                return top, basis_atom(i, x)
            candidates.append((top, basis_atom(i, x)))
        return _best(candidates)

    def realize(self, aid: AtomId) -> Atom:
        """The head atom or basis-tail atom with id aid. A tail atom is built
        at its first call and kept (two threads may both build one; the atoms
        are equal). Only a well-formed id is looked up or kept, since an
        ill-formed one can equal and hash like a well-formed one
        (("e", 0, True) == ("e", 0, 1)) it must not stand in for."""
        if _well_formed(aid):
            atom = self._atoms.get(aid)
            if atom is not None:
                return atom
            if aid[0] == "e" and self.tail_start is not None and aid[2] >= self.tail_start:
                # a well-formed basis id holds a valid index
                atom = self._atoms[aid] = basis_atom(aid[2], -1.0 if aid[1] else 1.0)
                return atom
        raise _unknown(aid, self._what)


# Each subclass binds sup_inner and realize in its own body, the shared
# functions included: the benchmark's tracer wraps a class's own methods and
# names their spans by its kind.


class SymmetrizedOnb(_Headed):
    """The symmetrized canonical orthonormal basis {e_i} ∪ {-e_i}, never
    materialized: the head-plus-tail dictionary with an empty head and the
    basis tail from index 1."""

    kind = "symmetrized_onb"

    def __init__(self):
        super().__init__([], 1, "a signed basis atom")

    sup_inner, realize = _Headed.sup_inner, _Headed.realize


def _unit_sparse(vector: SparseVector, position: str) -> SparseVector:
    n = norm_or_inf(vector)
    if not math.isfinite(n):
        raise ConfigInvalidError(f"{position}: atom norm {n} is not finite")
    if n < _ATOM_NORM_FLOOR:
        raise ZeroAtomError(f"{position}: atom norm {n:g} is below {_ATOM_NORM_FLOOR:g}")
    # the dictionary's own copy, even at norm 1; an entry that underflows to
    # 0.0 is dropped
    return SparseVector._trusted({i: y for i, v in vector._entries.items() if (y := v / n) != 0.0})


def _symmetrize(vectors: Sequence[SparseVector], positions: str) -> list:
    """Materialize [+a0, -a0, +a1, -a1, ...] as dense-id atoms."""
    atoms = []
    for j, vec in enumerate(vectors):
        unit = _unit_sparse(vec, f"{positions}[{j}]")
        atoms.append(Atom(("y", 2 * j), unit))
        atoms.append(Atom(("y", 2 * j + 1),
                          SparseVector._trusted({i: -v for i, v in unit._entries.items()})))
    return atoms


class FiniteDictionary(_Headed):
    """Finitely many atoms, symmetrized on construction."""

    kind = "finite"

    def __init__(self, vectors: Sequence[SparseVector]):
        if not vectors:
            raise ConfigInvalidError("a finite dictionary needs at least one atom")
        super().__init__(_symmetrize(vectors, "atoms"), None, "an atom of this finite dictionary")
        self.atoms = self.head

    sup_inner, realize = _Headed.sup_inner, _Headed.realize


class AugmentedOnb(_Headed):
    """Symmetrized basis plus finitely many unit atoms supported inside E'."""

    kind = "augmented_onb"

    def __init__(self, extra: Sequence[SparseVector], e_prime: Iterable[int]):
        # each index checked before the set is formed: 1 in {True} and 1 in
        # {1.0} both hold. E' lies in the basis tail, so its indices are plain
        e_prime = list(e_prime)
        for j, i in enumerate(e_prime):
            try:
                if isinstance(validate_index(i), tuple):
                    raise TypeError(f"E' takes plain indices, not (block, inner) pairs, got {i!r}")
            except (TypeError, ValueError) as exc:
                raise ConfigInvalidError(f"e_prime[{j}]: {exc}") from exc
        e_prime = frozenset(e_prime)
        for j, vec in enumerate(extra):
            outside = [i for i in vec.support() if i not in e_prime]
            if outside:
                raise SupportOutsideEPrimeError(
                    f"extra[{j}] touches {sorted(outside, key=index_key)} outside E'"
                )
        super().__init__(_symmetrize(extra, "extra"), 1, "an atom of this augmented basis")
        self.extras = self.head

    sup_inner, realize = _Headed.sup_inner, _Headed.realize


make_finite, make_symmetrized_onb, make_augmented_onb = FiniteDictionary, SymmetrizedOnb, AugmentedOnb


def _lift(block: int, atom: Atom) -> Atom:
    """A component atom as an atom of the direct sum, on block-indexed
    coordinates: its vector is held as the one block restriction."""
    return Atom(("b", block, atom.id), lifted(block, atom.vector))


class DirectSumDictionary(Dictionary):
    """Blockwise union of component dictionaries over a direct sum of spaces.

    Components act on plain indices; their atoms are lifted to block-indexed
    vectors. One level of blocking only: components may not themselves be sums.
    """

    kind = "direct_sum"

    def __init__(self, components: Sequence[Dictionary]):
        if not components:
            raise ConfigInvalidError("a direct sum needs at least one component")
        if any(isinstance(c, DirectSumDictionary) for c in components):
            raise ConfigInvalidError("direct sums cannot be nested")
        self.components = list(components)

    def sup_inner(self, f: SparseVector) -> tuple:
        """Each nonzero block's lifted (value, atom), in block order, then _best.
        A block's answer is memoized beside its restriction, keyed by this
        dictionary; a step shares the restrictions it leaves untouched, so
        only the block it touched is selected in again. A vector with a
        coordinate outside blocks 1..n raises ConfigInvalidError."""
        parts = block_parts(f)
        candidates = []
        for l, comp in enumerate(self.components, start=1):
            part = parts.get(l)
            if part is None:
                continue
            fl, memo = part
            best = memo.get(self)
            if best is None:
                value, atom = comp.sup_inner(fl)
                best = memo[self] = (value, _lift(l, atom))
            candidates.append(best)
        if len(candidates) < len(parts):
            raise ConfigInvalidError(
                f"the vector has coordinates outside this direct sum's blocks 1..{len(self.components)}")
        return _best(candidates)

    def realize(self, aid: AtomId) -> Atom:
        if _well_formed(aid) and aid[0] == "b" and aid[1] <= len(self.components):
            return _lift(aid[1], self.components[aid[1] - 1].realize(aid[2]))
        raise _unknown(aid, "an atom of this direct sum")


direct_sum = DirectSumDictionary


def _check_orthogonal(q: np.ndarray):
    np = _numpy()
    if q.ndim != 2 or q.shape[0] != q.shape[1] or not q.size:
        raise NotOrthogonalError(f"matrix must be square and nonempty, got shape {q.shape}")
    # a matrix whose product overflows deviates by inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        dev = float(np.max(np.abs(q.T @ q - np.eye(q.shape[0]))))
    if not dev <= _ORTHOGONALITY_TOL:
        raise NotOrthogonalError(f"Q^T Q deviates from identity by {dev:g} > {_ORTHOGONALITY_TOL:g}")


def _from_dense(arr: np.ndarray) -> SparseVector:
    return SparseVector._trusted({i: v for i, v in enumerate(arr.tolist(), start=1) if v != 0.0})


class PushforwardDictionary(_Headed):
    """Image of a dictionary under an orthogonal map Q on the index range 1..dim.

    The base is a _Headed dictionary (not a direct sum or a user subclass of
    Dictionary), seen as its materialized head plus its untouched signed basis
    from tail_start on. Basis atoms of that tail inside the range join the head
    in front of it, and the whole head is mapped by Q with its ids kept. The
    basis tail beyond the range passes through untouched.
    """

    kind = "pushforward"

    def __init__(self, base: Dictionary, matrix: np.ndarray):
        try:
            matrix = _numpy().asarray(matrix, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise NotOrthogonalError(f"matrix must be a square array of reals: {exc}") from exc
        _check_orthogonal(matrix)
        if not isinstance(base, _Headed):
            raise ConfigInvalidError("pushforward takes a head-plus-tail dictionary as its base, "
                                     "not a direct sum or a user dictionary")
        dim = matrix.shape[0]
        head, tail_start = list(base.head), base.tail_start
        if tail_start is not None and tail_start <= dim:
            head[:0] = [basis_atom(i, s) for i in range(tail_start, dim + 1) for s in (1.0, -1.0)]
            tail_start = dim + 1
        for a in head:
            # the base's head atoms, like its basis atoms, take plain indices
            if any(i > dim for i in a.vector.support()):
                raise ConfigInvalidError(
                    f"atom {atom_id_str(a.id)} has support outside the {dim}-dimensional matrix range"
                )
        rows = _dense_rows(head, range(1, dim + 1))
        super().__init__([Atom(a.id, _from_dense(matrix @ row)) for a, row in zip(head, rows)],
                         tail_start, "an atom of this pushforward")

    sup_inner, realize = _Headed.sup_inner, _Headed.realize


pushforward = PushforwardDictionary


# ---------------------------------------------------------------------------
# selection policies
# ---------------------------------------------------------------------------


class MaxGreedy:
    """Always take the sup witness (strong greedy selection).

    needs_witness tells the engine that choose reads its witness argument, so
    the dictionary must find the sup's smallest-id atom on every step."""

    needs_witness = True

    def choose(self, step: int, dictionary: Dictionary, f: SparseVector,
               t: float, sup: float, witness: Atom) -> Atom:
        return witness


class Scripted:
    """Replay a fixed atom plan. The engine holds each planned atom to the
    weak greedy condition, as it does every policy's.

    needs_witness is False: choose never reads its witness argument, so on a
    dictionary that can skip it the engine asks for the sup alone and hands
    choose None as the witness.

    choose realizes its plan id on the dictionary at every step and keeps
    nothing but the plan: a head-plus-tail dictionary keeps the atoms it
    builds, so a replay builds each once, and an id the dictionary cannot
    realize aborts the run at every step that plays it."""

    needs_witness = False

    def __init__(self, plan: Sequence):
        self.plan = [a if isinstance(a, tuple) else parse_atom_id(a) for a in plan]

    def choose(self, step: int, dictionary: Dictionary, f: SparseVector,
               t: float, sup: float, witness: Optional[Atom]) -> Atom:
        if not 0 < step <= len(self.plan):
            if step > 0:
                raise IndexPastEndError(f"selection plan exhausted at step {step}")
            raise ConfigInvalidError(f"selection plan step must be >= 1, got {step}")
        return dictionary.realize(self.plan[step - 1])


# ---------------------------------------------------------------------------
# finite-dimensional diagnostics
# ---------------------------------------------------------------------------


def atom_matrix(dictionary: Dictionary) -> np.ndarray:
    """Materialized atoms as rows of a dense matrix (plain indices only)."""
    if not isinstance(dictionary, _Headed) or dictionary.tail_start is not None:
        raise ConfigInvalidError("operation needs a finite dictionary (or a pushforward of one)")
    atoms = dictionary.head
    return _dense_rows(atoms, range(1, max(i for a in atoms for i in a.vector._entries) + 1))


def spans_ambient(dictionary: Dictionary) -> bool:
    """Rank check: do the atoms span the ambient coordinate range? Not enforced anywhere."""
    mat = atom_matrix(dictionary)
    return int(_numpy().linalg.matrix_rank(mat)) == mat.shape[1]


def estimate_coherence(dictionary: Dictionary, samples: int, seed: int) -> CoherenceEstimate:
    """Sampled upper bound on inf_{\\|f\\|=1} sup_g <f, g>.

    Draws unit vectors uniformly on the sphere of the ambient range and takes
    the minimum of the sup of inner products. Heuristic: the true constant is
    a minimum over the whole sphere, so the sampled value can only overshoot.
    """
    if samples < 1:
        raise ConfigInvalidError("estimate_coherence needs samples >= 1")
    np = _numpy()
    mat = atom_matrix(dictionary)
    rng = np.random.default_rng(seed)
    best = math.inf
    remaining = samples
    while remaining > 0:
        batch = min(remaining, 1 << 17)
        g = rng.standard_normal((batch, mat.shape[1]))
        norms = np.linalg.norm(g, axis=1)
        keep = norms > 0
        sups = (g[keep] / norms[keep, None]) @ mat.T
        if sups.size:
            best = min(best, float(np.max(sups, axis=1).min()))
        remaining -= batch
    return CoherenceEstimate(best, samples, seed)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _direct_sum_from_config(specs) -> DirectSumDictionary:
    """A direct sum of the dictionaries specs give. A nested sum is refused by
    its kind tag before any component is built, so a deep chain of sums never
    recurses into a component (a finite one would import numpy at its depth)."""
    if any(isinstance(c, dict) and c.get("kind") == "direct_sum" for c in specs):
        raise ConfigInvalidError("direct sums cannot be nested")
    return direct_sum([dictionary_from_config(c) for c in specs])


_DICTIONARY_BUILDERS = {
    "symmetrized_onb": lambda spec: make_symmetrized_onb(),
    "finite": lambda spec: make_finite([SparseVector.from_json(a) for a in spec["atoms"]]),
    "augmented_onb": lambda spec: make_augmented_onb(
        [SparseVector.from_json(a) for a in spec.get("extra", [])], spec.get("e_prime", [])),
    "direct_sum": lambda spec: _direct_sum_from_config(spec["components"]),
    # a matrix that is no real array is a bad spec here, before pushforward
    # would call it not orthogonal. It is read before the base, so numpy loads
    # at the top of a chain of pushforwards and never half-way at its depth
    "pushforward": lambda spec: pushforward(matrix=_numpy().asarray(spec["matrix"], dtype=float),
                                            base=dictionary_from_config(spec["base"])),
}


def dictionary_from_config(spec: dict) -> Dictionary:
    """Build a dictionary from its config-file form: a kind tag plus payload."""
    return parse_tagged(spec, _DICTIONARY_BUILDERS, "dictionary")
