"""Finitely supported vectors of a real Hilbert space, with exact float arithmetic.

Coordinates live on a canonical orthonormal basis indexed either by positive
integers or, inside a direct sum, by (block, inner) pairs. Entries that become
exactly 0.0 are dropped, so deliberate annihilation empties the support; no
tolerance is ever applied when canonicalizing.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Tuple, Union

Index = Union[int, Tuple[int, int]]


def validate_index(index: Index) -> Index:
    if isinstance(index, bool):
        raise TypeError(f"coordinate index must be an int or (block, inner) pair, got {index!r}")
    if isinstance(index, int):
        if index < 1:
            raise ValueError(f"coordinate index must be >= 1, got {index}")
        return index
    if isinstance(index, tuple) and len(index) == 2:
        block, inner = index
        if isinstance(block, int) and isinstance(inner, int) and block >= 1 and inner >= 1:
            return index
    raise TypeError(f"coordinate index must be an int or (block, inner) pair, got {index!r}")


def index_key(index: Index) -> Tuple[int, int, int]:
    """Total order on coordinate ids: plain indices first, then blocks, block-major."""
    if isinstance(index, int):
        return (0, 0, index)
    return (1, index[0], index[1])


class SparseVector:
    """Immutable finitely-supported vector; stored entries are never exactly zero."""

    __slots__ = ("_entries",)

    def __init__(self, entries: dict | None = None):
        clean = {}
        if entries:
            for index, value in entries.items():
                validate_index(index)
                value = float(value)
                if value != 0.0:
                    clean[index] = value
        object.__setattr__(self, "_entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Index, float]]) -> "SparseVector":
        entries = {}
        for index, value in pairs:
            if isinstance(index, list):
                index = tuple(index)
            validate_index(index)
            if index in entries:
                raise ValueError(f"duplicate coordinate index {index!r}")
            entries[index] = float(value)
        return cls(entries)

    def items(self) -> Iterator[Tuple[Index, float]]:
        return iter(self._entries.items())

    def get(self, index: Index) -> float:
        return self._entries.get(index, 0.0)

    def support(self):
        return self._entries.keys()

    def support_size(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def norm(self) -> float:
        return math.sqrt(math.fsum(v * v for v in self._entries.values()))

    def block_restriction(self, block: int) -> "SparseVector":
        """Component of a block-indexed vector, re-expressed on plain inner indices."""
        return SparseVector(
            {i[1]: v for i, v in self._entries.items() if isinstance(i, tuple) and i[0] == block}
        )

    def to_pairs(self) -> list:
        """Sorted (index, value) pairs; block indices appear as two-element lists."""
        pairs = sorted(self._entries.items(), key=lambda kv: index_key(kv[0]))
        return [[list(i) if isinstance(i, tuple) else i, v] for i, v in pairs]

    @classmethod
    def from_json(cls, data: list) -> "SparseVector":
        return cls.from_pairs((i, v) for i, v in data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}: {v!r}" for i, v in sorted(
            self._entries.items(), key=lambda kv: index_key(kv[0])))
        return f"SparseVector({{{inside}}})"


def inner(u: SparseVector, v: SparseVector) -> float:
    """Inner product over the shared support."""
    a, b = u._entries, v._entries
    if len(b) < len(a):
        a, b = b, a
    return math.fsum(value * b[i] for i, value in a.items() if i in b)


def norm(v: SparseVector) -> float:
    return v.norm()


def subtract_scaled(v: SparseVector, c: float, a: SparseVector) -> SparseVector:
    """v - c*a, re-canonicalized: entries that cancel exactly are removed."""
    entries = dict(v._entries)
    for i, x in a._entries.items():
        new = entries.get(i, 0.0) - c * x
        if new == 0.0:
            entries.pop(i, None)
        else:
            entries[i] = new
    return SparseVector(entries)
