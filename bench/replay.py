"""Output check: replay a trace CSV densely in numpy and compare.

The check does not grade the engine with its own arithmetic. It parses the
CSV with the standard ``csv`` module, realizes every recorded atom id from
the generated inputs (``Workload.reference()``), and replays the remainder
f_m = f_{m-1} - c_m * phi_m as a dense float64 vector. At every row it
compares the recorded ``ip``, ``sup`` and ``residual_norm`` with the replay,
checks admissibility ip >= t * sup - slack on the replayed values, and at the
end checks how the run ended. It never imports ``greedyexp``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re

import numpy as np

HEADER = ["m", "atom", "c", "t", "ip", "sup", "residual_norm", "block"]

# Dense dot products and norms round differently from the engine's exact
# sums; over a whole trace the two stay far closer than this.
TOL = 1e-9
ADMISSIBILITY_SLACK = 1e-12

_ATOM_RE = re.compile(r"^(?:b(\d+):)?(?:([+-])e(\d+)|y(\d+))$")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != HEADER:
            raise ValueError(f"trace header {header!r}, want {HEADER!r}")
        return list(reader)


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _dense(pairs: list, dim: int) -> np.ndarray:
    out = np.zeros(dim)
    for i, v in pairs:
        out[i - 1] = v
    return out


class _Block:
    """One space of plain coordinates 1..dim: a materialized head of unit atoms
    (ids "y<k>" or "+e<i>"/"-e<i>" inside the head range) and optionally the
    signed basis on coordinates at or above tail_start."""

    def __init__(self, dim: int, head: dict, tail_start):
        self.dim = dim
        self.head = head                          # atom id string -> dense vector
        self.tail_start = tail_start
        self.head_matrix = np.array(list(head.values())) if head else None

    def atom(self, text: str) -> np.ndarray:
        if text in self.head:
            return self.head[text]
        m = _ATOM_RE.match(text)
        if m and m.group(2) and self.tail_start is not None and int(m.group(3)) >= self.tail_start:
            vec = np.zeros(self.dim)
            vec[int(m.group(3)) - 1] = 1.0 if m.group(2) == "+" else -1.0
            return vec
        raise ValueError(f"atom {text} is not in this dictionary")

    def sup(self, r: np.ndarray) -> float:
        best = -math.inf
        if self.head_matrix is not None:
            best = float(np.max(self.head_matrix @ r))
        if self.tail_start is not None and self.dim >= self.tail_start:
            best = max(best, float(np.max(np.abs(r[self.tail_start - 1:]))))
        return best


def _symmetrized(rows: list, dim: int) -> dict:
    """Atoms y0, y1, y2, ... = +a0, -a0, +a1, -a1, ... of unit-normalized rows."""
    atoms = {}
    for j, row in enumerate(rows):
        unit = _unit(_dense(row, dim))
        atoms[f"y{2 * j}"] = unit
        atoms[f"y{2 * j + 1}"] = -unit
    return atoms


def _heads_blocks(ref: dict) -> list:
    """Block dictionaries of the heads_blocks direct sum, built from its inputs."""
    dims = {}
    for (block, i), _ in ref["target"]:
        dims[block] = max(dims.get(block, 0), i)
    q = np.array(ref["matrix"])
    n = q.shape[0]
    push = {}
    for i in range(1, n + 1):
        push[f"+e{i}"] = q[:, i - 1].copy()
        push[f"-e{i}"] = -q[:, i - 1]
    for key, vec in _symmetrized(ref["push_extras"], n).items():
        push[key] = q @ vec
    d1 = max(dims[1], n)
    push = {k: np.concatenate([v, np.zeros(d1 - n)]) for k, v in push.items()}
    d2 = max(dims[2], max(i for row in ref["finite_atoms"] for i, _ in row))
    d3 = max(dims[3], max(i for row in ref["aug_extras"] for i, _ in row))
    return [
        _Block(d1, push, n + 1),
        _Block(d2, _symmetrized(ref["finite_atoms"], d2), None),
        _Block(d3, _symmetrized(ref["aug_extras"], d3), 1),
    ]


def _coefficient(ref: dict, m: int):
    kind = ref["coefficients"]
    if kind is None:
        return None
    if kind[0] == "harmonic":
        return kind[1] / m
    return m ** -kind[1]


def check_trace(path: str, ref: dict) -> list:
    """Problems found replaying the trace at ``path``; empty when it is correct."""
    try:
        rows = read_rows(path)
    except (OSError, ValueError) as exc:
        return [f"cannot read trace: {exc}"]
    if not rows:
        return ["trace has no rows"]

    if ref["kind"] == "heads":
        blocks = _heads_blocks(ref)
        r = [np.zeros(b.dim) for b in blocks]
        for (block, i), v in ref["target"]:
            r[block - 1][i - 1] = v
    else:
        dim = max(i for i, _ in ref["target"])
        blocks = [_Block(dim, {}, 1)]
        r = [_dense(ref["target"], dim)]

    # Replays on the signed basis repeat the engine's arithmetic exactly, so
    # admissibility gets no tolerance beyond the engine's own slack there.
    fuzz = TOL if ref["kind"] == "heads" else 0.0
    problems = []

    def bad(m, what):
        if len(problems) < 20:
            problems.append(f"step {m}: {what}")

    residual = math.inf
    for expect_m, row in enumerate(rows, start=1):
        try:
            m, atom, c, t, ip, sup, residual = (int(row[0]), row[1], *map(float, row[2:7]))
            block_col = row[7]
            match = _ATOM_RE.match(atom)
            if match is None:
                raise ValueError(f"bad atom id {atom!r}")
            block = int(match.group(1)) if match.group(1) else None
            if ref["kind"] == "heads":
                if block is None or not 1 <= block <= len(blocks) or block_col != str(block):
                    raise ValueError(f"atom {atom} with block column {block_col!r}")
                phi = blocks[block - 1].atom(atom.split(":", 1)[1])
            else:
                if block is not None or block_col != "":
                    raise ValueError(f"atom {atom} with block column {block_col!r}")
                phi = blocks[0].atom(atom)
        except (ValueError, IndexError) as exc:
            bad(expect_m, f"unreadable row {row!r}: {exc}")
            return problems
        if m != expect_m:
            bad(expect_m, f"row numbered {m}")
        want_c = _coefficient(ref, m)
        if want_c is not None and abs(c - want_c) > TOL * want_c:
            bad(m, f"c={c!r}, want {want_c!r}")
        if not 0.0 < c:
            bad(m, f"coefficient {c!r} is not positive")
        if t != ref["t"]:
            bad(m, f"t={t!r}, want {ref['t']!r}")
        k = block - 1 if block is not None else 0
        ref_ip = float(r[k] @ phi)
        ref_sup = max(b.sup(v) for b, v in zip(blocks, r) if np.any(v))
        scale = max(1.0, abs(ref_sup))
        if abs(ip - ref_ip) > TOL * scale:
            bad(m, f"ip={ip!r}, replay gives {ref_ip!r}")
        if abs(sup - ref_sup) > TOL * scale:
            bad(m, f"sup={sup!r}, replay gives {ref_sup!r}")
        if ref_ip < t * ref_sup - ADMISSIBILITY_SLACK - fuzz * scale:
            bad(m, f"inadmissible: replayed ip {ref_ip!r} < t*sup {t * ref_sup!r}")
        if ref["policy"] == "max_greedy" and ref_ip < ref_sup - TOL * scale:
            bad(m, f"max-greedy step picked ip {ref_ip!r} below sup {ref_sup!r}")
        r[k] = r[k] - c * phi
        ref_norm = math.sqrt(sum(float(v @ v) for v in r))
        if abs(residual - ref_norm) > TOL * max(1.0, ref_norm):
            bad(m, f"residual_norm={residual!r}, replay gives {ref_norm!r}")

    kind, steps = ref["expect"]
    if kind == "exhausted" and len(rows) != steps:
        bad(len(rows), f"run ended after {len(rows)} steps, want the full budget {steps}")
    if kind == "stopped":
        left = math.sqrt(sum(float(v @ v) for v in r))
        if residual != 0.0 or left > TOL:
            bad(len(rows), f"schedule should empty the remainder, last residual {residual!r}, "
                           f"replay leaves {left!r}")
    return problems
