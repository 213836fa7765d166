"""Finitely supported vectors of a real Hilbert space, with exact float arithmetic.

Coordinates live on a canonical orthonormal basis indexed either by positive
integers or, inside a direct sum, by (block, inner) pairs. Entries that become
exactly 0.0 are dropped, so deliberate annihilation empties the support; no
tolerance is ever applied when canonicalizing.

A remainder step v - c*a costs O(|support of a| * log n) and copies nothing:
the result takes over v's entry dict and updates it in place on a's
coordinates. v keeps a reverse diff instead (a's indices, their old values and
a link to the result) and becomes a ``_Handed`` vector, which rebuilds a dict
of its own the first time its entries are read: it copies the live end of its
chain of successors and undoes their steps back to itself. A stale vector is
rebuilt as its own copy, never re-rooted (unlike Baker's shallow binding), so a
read never changes another vector's dict. ``support()`` and ``items()`` return
snapshots, and a handed-over vector knows its support size without a rebuild.
The result also inherits two caches from v and updates them on a's
coordinates only:

- the exact sum of the squares fl(x*x), an int in units of 2**-1074. Every
  finite square is such a multiple. ``norm()`` of a cached sum takes one
  exact route at every magnitude, the square root of the sum over 2**1074:
  int / int rounds correctly and raises OverflowError exactly when the
  correctly rounded ``math.fsum`` of the same squares does, so ``norm()`` is
  bit-identical to that fsum. A step of one coordinate, as every basis step
  is, converts its new and old square to ints. A longer step takes the exact
  sum of all its new*new and -(old*old) terms in ``fsum`` passes: each pass
  adds the correctly rounded rest and appends its negation, until the rest is
  exactly 0.0. A non-finite square drops the cache. Without a cached sum (a
  vector no step has made, or one with a non-finite square) ``norm()`` takes
  the fsum of the squares;
- a lazy max-heap of (-|x|, i) over the indices from some start on, from which
  ``tail_top`` reads the largest magnitude and ``tail_peak`` also the entries
  near it. Nodes whose entry has changed stay in the heap until they surface.
  The heap is handed over, not copied: v drops it and rebuilds it if it is
  queried again. A NaN entry's node is the sentinel (-inf, 0), which sorts
  before every other node (index 0 is no coordinate) and never goes stale, as
  a NaN entry stays NaN under every step; the read that meets it raises
  GreedyExpansionError, as a NaN sup of a head does.

A block-indexed vector splits into its block restrictions (``block_parts``),
all of them in one pass the first time one is asked for. Each restriction sits
beside a memo that a direct sum fills with the block's sup. From then on its
steps leave the flat dict alone: a step steps only the restrictions of the
blocks its atom touches, each read by ``block_restriction`` (empty if v lacks
the block) and stepped by the update above, and shares the other restrictions
and their memos. The result is a ``_Blocked`` vector, held as its
restrictions alone. Its square sum is the sum of theirs, and ``inner`` with an
atom lifted into a direct sum, which is held the same way, is the component
``inner`` on one restriction. Its flat dict is built only when it is read.

These caches and the handover are invisible: vectors compare by entries only,
no public name of a vector is settable (every one is a method, and __slots__
refuses new attributes), and ``copy``, ``deepcopy`` and ``pickle`` give plain
vectors of the same entries without caches. They are not thread-safe: reading
a kept vector in one thread while another steps its successor is a data race.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Tuple, Union

from .errors import ConfigInvalidError, GreedyExpansionError, to_float

Index = Union[int, Tuple[int, int]]

# the square sum is kept in units of the smallest subnormal, 2**-1074
_UNIT = 1 << 1074


def validate_index(index: Index) -> Index:
    # a bool is an int, but no coordinate index, alone or in a pair
    if isinstance(index, int) and not isinstance(index, bool):
        if index < 1:
            raise ValueError(f"coordinate index must be >= 1, got {index}")
        return index
    if isinstance(index, tuple) and len(index) == 2 and all(
            isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in index):
        return index
    raise TypeError(f"coordinate index must be an int or (block, inner) pair, got {index!r}")


def index_key(index: Index) -> Tuple[int, int, int]:
    """Total order on coordinate ids: plain indices first, then blocks, block-major."""
    if isinstance(index, int):
        return (0, 0, index)
    return (1, index[0], index[1])


class SparseVector:
    """Immutable finitely-supported vector; stored entries are never exactly zero."""

    # _undo is set only while a step has taken the entry dict over (_Handed)
    __slots__ = ("_entries", "_square_sum", "_heap", "_blocks", "_undo")

    def __init__(self, entries: dict | None = None):
        self._entries = _clean(entries.items()) if entries else {}
        self._square_sum = self._heap = self._blocks = None

    @classmethod
    def _trusted(cls, entries: dict, square_sum=None, heap=None) -> "SparseVector":
        """Package-internal constructor for entries that already satisfy the
        invariant: validated indices and nonzero float values. The dict is
        adopted, not copied."""
        v = object.__new__(cls)
        v._entries = entries
        v._square_sum = square_sum
        v._heap = heap
        v._blocks = None
        return v

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Index, float]]) -> "SparseVector":
        return cls._trusted(_clean(pairs))

    def items(self) -> Iterator[Tuple[Index, float]]:
        # a snapshot, like support(): a later step may take the dict over
        return iter(self._entries.copy().items())

    def get(self, index: Index) -> float:
        return self._entries.get(index, 0.0)

    def support(self):
        return self._entries.copy().keys()

    def support_size(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def norm(self) -> float:
        total = self._square_sum
        if total is not None:
            return math.sqrt(total / _UNIT)
        return math.sqrt(math.fsum(v * v for v in self._entries.values()))

    def block_restriction(self, block: int) -> "SparseVector":
        """Component of a block-indexed vector, re-expressed on plain inner indices."""
        part = block_parts(self).get(block)
        return SparseVector._trusted({}) if part is None else part[0]

    def to_pairs(self) -> list:
        """Sorted (index, value) pairs; block indices appear as two-element lists."""
        pairs = sorted(self._entries.items(), key=lambda kv: index_key(kv[0]))
        return [[list(i) if isinstance(i, tuple) else i, v] for i, v in pairs]

    # a JSON pair list is a list of (index, value) pairs
    from_json = from_pairs

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __reduce__(self):
        # a plain vector of the entries alone: no cache, successor chain or memo
        return SparseVector, (self._entries.copy(),)

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}: {v!r}" for i, v in sorted(
            self._entries.items(), key=lambda kv: index_key(kv[0])))
        return f"SparseVector({{{inside}}})"


def _clean(pairs) -> dict:
    """The entry dict of (index, value) pairs: each index validated once (a
    list read as a tuple, a repeat a ValueError), each value a float by
    errors.to_float, exact zeros dropped."""
    entries = {}
    for index, value in pairs:
        if isinstance(index, list):
            index = tuple(index)
        validate_index(index)
        if index in entries:
            raise ValueError(f"duplicate coordinate index {index!r}")
        entries[index] = value if type(value) is float else to_float(value, f"entry {index!r}")
    return {i: x for i, x in entries.items() if x != 0.0}


class _Handed(SparseVector):
    """A vector whose entry dict a step has taken over. Its _undo holds
    (successor, [(index, old value)], support size): the step's reverse diff.

    The first read of _entries copies the dict at the live end of the chain of
    successors, undoes each step on the copy back to this vector, adopts it and
    turns this vector back into a plain SparseVector. The hook sits here, not
    on SparseVector, whose slot reads it would slow down."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "_entries":
            raise AttributeError(name)
        diffs = []
        u = self
        while type(u) is _Handed:
            u, undo, _ = u._undo
            diffs.append(undo)
        entries = u._entries.copy()
        for undo in reversed(diffs):
            # one step's indices are distinct; an old 0.0 was no entry
            for i, old in undo:
                if old == 0.0:
                    entries.pop(i, None)
                else:
                    entries[i] = old
        self._entries = entries
        del self._undo
        self.__class__ = SparseVector
        return entries

    def support_size(self) -> int:
        return self._undo[2]


class _Blocked(SparseVector):
    """A vector held as its block restrictions alone: _blocks is set, as
    block_parts gives it, and _entries is not.

    The first read of _entries builds the flat dict from the restrictions,
    adopts it and turns this vector into a plain SparseVector, which keeps its
    restrictions as well. As with _Handed, the hook sits here, not on
    SparseVector."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "_entries":
            raise AttributeError(name)
        entries = {}
        for l, (x, _) in self._blocks.items():
            if l is None:
                entries.update(x._entries)
            else:
                entries.update({(l, i): y for i, y in x._entries.items()})
        self._entries = entries
        self.__class__ = SparseVector
        return entries

    def support_size(self) -> int:
        return sum(x.support_size() for x, _ in self._blocks.values())

    def is_zero(self) -> bool:
        return not self._blocks


def _held(parts: dict, square_sum=None) -> SparseVector:
    """A _Blocked vector on parts, a dict as block_parts gives it."""
    v = object.__new__(_Blocked)
    v._blocks = parts
    v._square_sum = square_sum
    v._heap = None
    return v


def lifted(block: int, v: SparseVector) -> SparseVector:
    """v, a vector on plain indices, as the restriction to `block` of a
    block-indexed vector that is zero on every other block."""
    return _held({} if v.is_zero() else {block: (v, {})}, v._square_sum)


def block_parts(v: SparseVector) -> dict:
    """block -> (restriction, memo) for every block on which v is nonzero, and
    None -> (its plain-index entries, memo) if it has any. Built in one pass
    and cached on first use; a _Blocked vector holds nothing else. The
    restriction is v's block on plain inner indices; the memo is a dict a
    caller may fill with results that depend on the restriction alone."""
    parts = v._blocks
    if parts is None:
        split = {}
        for i, x in v._entries.items():
            if isinstance(i, tuple):
                split.setdefault(i[0], {})[i[1]] = x
            else:
                split.setdefault(None, {})[i] = x
        parts = {l: (SparseVector._trusted(e), {}) for l, e in split.items()}
        v._blocks = parts
    return parts


def inner(u: SparseVector, v: SparseVector) -> float:
    """Inner product over the shared support, the fsum of the shared products.

    When the smaller operand has a single entry, as a basis atom does, the
    product is the one term: value * x + 0.0, or 0.0 if the other operand
    lacks the index. The + 0.0 turns a -0.0 product into 0.0, as fsum does.

    When both operands have their block restrictions and one of them lies in
    a single block, as a lifted atom does, it is the component inner product
    on that block: fsum rounds the same products correctly in any order."""
    pu, pv = u._blocks, v._blocks
    if pu is not None and pv is not None and 1 in (len(pu), len(pv)):
        if len(pv) == 1:
            pu, v = pv, u
        for l, (x, _) in pu.items():
            return inner(x, v.block_restriction(l))
    a, b = u._entries, v._entries
    if len(b) < len(a):
        a, b = b, a
    if len(a) == 1:
        for i, value in a.items():
            return value * b[i] + 0.0 if i in b else 0.0
    return math.fsum([value * b[i] for i, value in a.items() if i in b])


def norm(v: SparseVector) -> float:
    return v.norm()


def norm_or_inf(v: SparseVector) -> float:
    """v.norm(), or inf where it overflows: the one rule by which an
    overflowing norm counts as infinite."""
    try:
        return v.norm()
    except OverflowError:
        return math.inf


def _units(square: float) -> int:
    """A finite square as an exact int multiple of 2**-1074; raises
    OverflowError (inf) or ValueError (NaN) otherwise."""
    n, d = square.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _exact_square_sum(v: SparseVector):
    """v's exact square sum in units of 2**-1074, computed once and cached;
    None when some square is not finite."""
    total = v._square_sum
    if total is None:
        try:
            total = _exact_sum([x * x for x in v._entries.values()])
        except (OverflowError, ValueError):
            return None
        v._square_sum = total
    return total


def subtract_scaled(v: SparseVector, c: float, a: SparseVector) -> SparseVector:
    """v - c*a, re-canonicalized: entries that cancel exactly are removed.

    The result takes over v's entry dict, updated on a's coordinates, and v
    keeps only the undo record that rebuilds it if it is read again. The
    result carries v's square sum, updated the same way, and takes over v's
    magnitude heap with a node pushed for every changed tail entry.

    When v's block restrictions are built, the flat dict is left alone: each
    restriction that a touches is stepped that way, every other one is shared,
    and the result is a _Blocked vector whose square sum adds up theirs."""
    c = float(c)
    parts = v._blocks
    if parts is None:
        pairs = a._entries.items()
        if a is v:
            # the step updates this very dict: read the atom first
            pairs = list(pairs)
        total = v._square_sum
        return _step(v, c, pairs, _exact_square_sum(v) if total is None else total)
    parts = dict(parts)
    for l, (al, _) in block_parts(a).items():
        wl = subtract_scaled(v.block_restriction(l), c, al)
        if wl._entries:
            parts[l] = (wl, {})
        else:
            parts.pop(l, None)
    sums = [_exact_square_sum(x) for x, _ in parts.values()]
    return _held(parts, None if None in sums else sum(sums))


def _step(v: SparseVector, c: float, pairs, total) -> SparseVector:
    """v - c*a over a's (index, value) pairs, with v's square sum total (None
    to keep none). The result takes over v's entry dict and magnitude heap,
    which it drops if a has a (block, inner) index; v becomes a _Handed vector
    that records the old values."""
    entries = v._entries
    size = len(entries)
    heap = v._heap
    if heap is not None:
        v._heap = None
        start, nodes = heap
    undo = []
    # the square terms of a step over more than one coordinate
    terms = [] if total is not None and len(pairs) > 1 else None
    for i, x in pairs:
        old = entries.get(i, 0.0)
        new = old - c * x
        undo.append((i, old))
        if new == 0.0:
            entries.pop(i, None)
        else:
            entries[i] = new
            if heap is not None:
                if isinstance(i, tuple):
                    # a basis tail takes plain indices: the next tail query
                    # rebuilds the heap and refuses this entry
                    heap = None
                elif start == 1 or i >= start:
                    heapq.heappush(nodes, (-abs(new), i) if new == new else _NAN_NODE)
        if terms is not None:
            terms += new * new, -(old * old)
    if total is not None and undo:
        try:
            if terms is None:
                # one coordinate: _units(new * new) - _units(old * old), inlined
                n, d = (new * new).as_integer_ratio()
                p, q = (old * old).as_integer_ratio()
                total += (n << (1075 - d.bit_length())) - (p << (1075 - q.bit_length()))
            else:
                total += _exact_sum(terms)
        except (OverflowError, ValueError):
            total = None
    # SparseVector._trusted, inlined: one call fewer per step
    w = object.__new__(SparseVector)
    w._entries = entries
    w._square_sum = total
    w._heap = heap
    w._blocks = None
    del v._entries
    v._undo = (w, undo, size)
    v.__class__ = _Handed
    return w


def _exact_sum(terms: list) -> int:
    """The exact sum of float terms in units of 2**-1074; raises OverflowError
    or ValueError when a term is not finite.

    Each fsum pass rounds the rest of the sum correctly, so it is 0.0 only
    when the rest is exactly 0, and its negation, appended, leaves a rest at
    most 2**-53 times smaller, still a multiple of 2**-1074: the passes end.
    Terms whose float partial sums overflow are converted one by one."""
    count = len(terms)
    rest = 0
    try:
        s = math.fsum(terms)
        while s:
            rest += _units(s)
            terms.append(-s)
            s = math.fsum(terms)
    except OverflowError:
        # an infinite term raises here again
        rest = sum(map(_units, terms[:count]))
    return rest


# the heap node of a NaN entry: it sorts before every (-|x|, i) node, an
# infinite entry's among them, and index 0 is no coordinate
_NAN_NODE = (-math.inf, 0)


def tail_top(v: SparseVector, start: int):
    """The largest magnitude over v's entries on indices >= start; None when
    there is no such entry.

    Reads v's heap of (-|x|, i) over the indices >= start, with _NAN_NODE for
    a NaN entry, rebuilt when v has none, has one for another start, or has
    one that is mostly stale nodes. Stale nodes are dropped from its root
    until it holds a current entry, which it then keeps. A NaN entry raises
    GreedyExpansionError: its node surfaces first. A block-indexed entry
    raises ConfigInvalidError: a basis tail lies on plain indices."""
    entries = v._entries
    heap = v._heap
    if heap is None or heap[0] != start or len(heap[1]) > 2 * len(entries) + 16:
        if tuple in set(map(type, entries)):
            raise ConfigInvalidError("a basis tail takes plain indices, not (block, inner) pairs")
        items = entries.items()
        if start != 1:
            items = ((i, x) for i, x in items if i >= start)
        heap = (start, [(-abs(x), i) if x == x else _NAN_NODE for i, x in items])
        heapq.heapify(heap[1])
        v._heap = heap
    nodes = heap[1]
    while nodes:
        neg, i = nodes[0]
        x = entries.get(i)
        if x is not None and abs(x) == -neg:
            return -neg
        if not i:
            raise GreedyExpansionError("sup is nan: the vector has a NaN entry")
        heapq.heappop(nodes)
    return None


def tail_peak(v: SparseVector, start: int, band: float):
    """Over v's entries on indices >= start: the largest magnitude top and
    every (i, x) with |x| >= top - band, in no particular order; None when
    there is no such entry.

    Reads v's magnitude heap: after tail_top, only the nodes whose magnitude
    reaches top - band are visited: a node below that bounds its whole subtree.
    So when neither child of the root reaches it, the root, which tail_top has
    made current, is the only such entry, and no node is visited."""
    top = tail_top(v, start)
    if top is None:
        return None
    nodes = v._heap[1]
    entries = v._entries
    floor = top - band
    size = len(nodes)
    if (size < 2 or -nodes[1][0] < floor) and (size < 3 or -nodes[2][0] < floor):
        i = nodes[0][1]
        return top, [(i, entries[i])]
    near, stack = [], [0]
    while stack:
        k = stack.pop()
        neg, i = nodes[k]
        if -neg >= floor:
            x = entries.get(i)
            if x is not None and abs(x) == -neg:
                near.append((i, x))
            k = 2 * k + 1
            if k < size:
                stack.append(k)
                if k + 1 < size:
                    stack.append(k + 1)
    return top, near
