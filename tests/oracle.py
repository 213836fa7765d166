"""A naive whole-run oracle for `engine.run`, with none of the library's speed-ups.

The remainder is a plain dict. Every sup query scores every head atom with
`math.fsum` and scans every basis-tail entry, and ties resolve by the
documented two-stage `WITNESS_BAND` rule: a basis tail picks its own witness
first, then the head atoms and the tail's candidate are decided by the exact
largest value and the smallest id within the band of it; a direct sum decides
each block that way, then across blocks the same way. The residual norm is
`sqrt(fsum)` of the squares. There is no dense screen, magnitude heap, block
restriction, memo, square-sum cache or entry-dict handover.

The oracle reads a dictionary's data only: `head`, `tail_start` and, for a
direct sum, `components`. How atoms are built is pinned elsewhere; here the
materialized atoms are taken as given and basis atoms are made afresh. It
drives `MaxGreedy` and `Scripted` policies, holds every chosen atom to the
weak greedy condition, and returns, per step, the record fields and the
remainder the policy was handed, and the final status with the exception
class that aborted the run, if any.
"""

import math

from greedyexp.dictionaries import (
    ADMISSIBILITY_SLACK,
    WITNESS_BAND,
    DirectSumDictionary,
    Scripted,
    parse_atom_id,
)
from greedyexp.errors import (
    EmptyVectorError,
    IndexPastEndError,
    NoAdmissibleAtomError,
    UnknownAtomError,
)


def score(f: dict, atom: dict) -> float:
    return math.fsum([x * atom[i] for i, x in f.items() if i in atom])


def best(candidates: list) -> tuple:
    """(exact max value, smallest id within WITNESS_BAND of it, its vector)."""
    if not candidates:
        raise EmptyVectorError("sup of a zero vector")
    top = max(value for value, _, _ in candidates)
    aid, vector = min(((aid, vec) for value, aid, vec in candidates
                       if value >= top - WITNESS_BAND), key=lambda c: c[0])
    return top, aid, vector


def basis(i, rank: int) -> dict:
    return {i: -1.0 if rank else 1.0}


def sup(dictionary, f: dict) -> tuple:
    """(sup, witness id, witness vector) of the plain dict f."""
    if isinstance(dictionary, DirectSumDictionary):
        candidates = []
        for l, comp in enumerate(dictionary.components, start=1):
            part = {i[1]: x for i, x in f.items() if isinstance(i, tuple) and i[0] == l}
            if part:
                value, aid, vec = sup(comp, part)
                candidates.append((value, ("b", l, aid), {(l, i): x for i, x in vec.items()}))
        return best(candidates)
    candidates = [(score(f, a.vector._entries), a.id, a.vector._entries)
                  for a in dictionary.head] if f else []
    start = dictionary.tail_start
    tail = [(i, x) for i, x in f.items() if start is not None and i >= start]
    if tail:
        top = max(abs(x) for _, x in tail)
        rank, i = min((0 if x > 0 else 1, i) for i, x in tail if abs(x) >= top - WITNESS_BAND)
        candidates.append((top, ("e", rank, i), basis(i, rank)))
    return best(candidates)


def realize(dictionary, aid) -> dict:
    """The vector of atom id aid; raises UnknownAtomError."""
    if isinstance(dictionary, DirectSumDictionary):
        if (isinstance(aid, tuple) and len(aid) == 3 and aid[0] == "b"
                and 1 <= aid[1] <= len(dictionary.components)):
            vec = realize(dictionary.components[aid[1] - 1], aid[2])
            return {(aid[1], i): x for i, x in vec.items()}
        raise UnknownAtomError(repr(aid))
    for a in dictionary.head:
        if a.id == aid:
            return a.vector._entries
    start = dictionary.tail_start
    if (isinstance(aid, tuple) and len(aid) == 3 and aid[0] == "e" and aid[1] in (0, 1)
            and start is not None and aid[2] >= start):
        return basis(aid[2], aid[1])
    raise UnknownAtomError(repr(aid))


def run(f, dictionary, coefficients, weakening, policy, max_steps: int) -> tuple:
    """(steps, status) of the run engine.run makes on these inputs. steps holds
    (m, atom id, c, t, ip, sup, residual norm, block, remainder handed to the
    policy) per recorded step; status is (kind, step, exception class name or
    None)."""
    plan = ([a if isinstance(a, tuple) else parse_atom_id(a) for a in policy.plan]
            if isinstance(policy, Scripted) else None)
    r = dict(f.items())
    steps = []
    for m in range(1, max_steps + 1):
        if not r:
            return steps, ("stopped", m, None)
        try:
            c = coefficients.eval(m)
            t = weakening.eval(m)
            top, aid, vec = sup(dictionary, r)
            if plan is not None:
                if m > len(plan):
                    raise IndexPastEndError(m)
                aid = plan[m - 1]
                vec = realize(dictionary, aid)
            ip = score(r, vec)
            # the weak greedy condition, whatever the policy
            if ip < t * top - ADMISSIBILITY_SLACK:
                raise NoAdmissibleAtomError(m)
        except (IndexPastEndError, NoAdmissibleAtomError, UnknownAtomError) as exc:
            return steps, ("aborted", m, type(exc).__name__)
        handed = dict(r)
        for i, x in vec.items():
            new = r.get(i, 0.0) - c * x
            if new == 0.0:
                r.pop(i, None)
            else:
                r[i] = new
        try:
            residual = math.sqrt(math.fsum([x * x for x in r.values()]))
        except OverflowError:
            residual = math.inf
        if not residual < math.inf:
            return steps, ("aborted", m, None)
        steps.append((m, aid, c, t, ip, top, residual, aid[1] if aid[0] == "b" else None, handed))
    return steps, ("exhausted", max_steps, None)
