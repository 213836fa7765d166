"""The greedy expansion engine: selection, remainder recursion, stop rule, trace.

Each step takes the atom its policy chooses, holds it to the weak greedy
condition <f_{m-1}, atom> >= t_m * sup_g <f_{m-1}, g> (up to
ADMISSIBILITY_SLACK), whatever the policy, subtracts c_m times it from the
remainder and records what happened. The stop rule fires only on an exactly
empty remainder; budget truncation and early exits are recorded as Exhausted
so that analysis never mistakes them for convergence.

Every remainder reads as a new immutable vector, so a policy may keep the ones
it is handed, though not read one in another thread while the run goes on:
vectors are not thread-safe. The recorded residual norm is bit-identical to an
fsum over all entries, and a step on a basis tail costs O(|atom support| *
log n); ``core``'s docstring says how. A run starts from a private copy of the
target, so it never fills or takes over the caller's caches and concurrent
runs on one target share no mutable state.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .core import SparseVector, inner, norm_or_inf, subtract_scaled
from .dictionaries import (ADMISSIBILITY_SLACK, Atom, Dictionary, MaxGreedy, atom_id_str,
                           parse_atom_id)
from .errors import (
    ConfigInvalidError,
    GreedyExpansionError,
    IndexPastEndError,
    NoAdmissibleAtomError,
    PreconditionUnmetError,
    UnknownAtomError,
    is_number,
    to_float,
)


@dataclass(frozen=True, slots=True, init=False)
class StepRecord:
    """One recorded step. Frozen and slotted: it has no __dict__, so read it
    with dataclasses.fields or asdict, not vars()."""
    m: int
    atom: Atom
    c: float
    t: float
    ip: float
    sup: float
    residual_norm: float
    block: Optional[int] = None

    def __init__(self, m, atom, c, t, ip, sup, residual_norm, block=None):
        # each field through its slot's own setter, which the frozen
        # __setattr__ does not guard: the generated __init__ pays for one
        # object.__setattr__ lookup per field, once per step and per row read
        _set_m(self, m)
        _set_atom(self, atom)
        _set_c(self, c)
        _set_t(self, t)
        _set_ip(self, ip)
        _set_sup(self, sup)
        _set_residual_norm(self, residual_norm)
        _set_block(self, block)


CSV_HEADER = [f.name for f in fields(StepRecord)]
(_set_m, _set_atom, _set_c, _set_t, _set_ip, _set_sup, _set_residual_norm,
 _set_block) = [getattr(StepRecord, name).__set__ for name in CSV_HEADER]


@dataclass(frozen=True)
class Status:
    kind: str                     # "stopped" | "exhausted" | "aborted"
    step: Optional[int] = None
    reason: Optional[str] = None


@dataclass
class Trace:
    steps: list = field(default_factory=list)
    initial_norm: Optional[float] = None
    status: Optional[Status] = None
    max_steps: Optional[int] = None

    def residual_norms(self) -> list:
        return [r.residual_norm for r in self.steps]

    def final_residual(self) -> Optional[float]:
        return self.steps[-1].residual_norm if self.steps else self.initial_norm


def run(f: SparseVector, dictionary: Dictionary, coefficients, weakening,
        policy=None, max_steps: int = 1000, stop_below: Optional[float] = None) -> Trace:
    """Run the expansion for up to max_steps steps.

    Stops early with status Stopped(m) when the remainder entering step m is
    exactly empty. stop_below is a budget device: once the recorded residual
    norm falls strictly below it the run ends as Exhausted with a reason, never
    as Stopped. A chosen atom whose inner product with the remainder falls
    below t*sup - ADMISSIBILITY_SLACK, from any policy, ends the run as
    Aborted with NoAdmissibleAtomError, as do an exhausted plan or explicit
    sequence, an unknown atom id and a step whose residual norm is not finite
    or overflows; that step is not recorded. A target whose norm is not
    finite or overflows raises ConfigInvalidError, as do a max_steps that is
    a bool, no integer or negative and a stop_below that is a bool, no real
    number or NaN, and either one an integer too large for a float.
    """
    if not is_number(max_steps, numbers.Integral) or max_steps < 0:
        raise ConfigInvalidError(f"max_steps must be an integer >= 0, got {max_steps!r}")
    to_float(max_steps, "max_steps")
    where = "(a run config's early_exit_threshold)"
    if stop_below is not None and not (
            is_number(stop_below) and not math.isnan(to_float(stop_below, f"stop_below {where}"))):
        raise ConfigInvalidError(
            f"stop_below must be a real number, not NaN, got {stop_below!r} {where}")
    policy = policy if policy is not None else MaxGreedy()
    # a policy that never reads the witness spares a dictionary that can give
    # the sup alone the search for it; any other pair passes the vector alone
    sup_query = sup_inner = dictionary.sup_inner
    if not getattr(policy, "needs_witness", True) and getattr(dictionary, "witness_optional", False):
        # a positional call: one with witness=False as a keyword costs more
        sup_query = lambda f: sup_inner(f, False)
    remainder = SparseVector._trusted(dict(f._entries))
    initial_norm = norm_or_inf(f)
    if not math.isfinite(initial_norm):
        raise ConfigInvalidError(f"target norm must be finite, got {initial_norm}")
    trace = Trace(initial_norm=initial_norm, max_steps=operator.index(max_steps))
    for m in range(1, trace.max_steps + 1):
        if remainder.is_zero():
            trace.status = Status("stopped", m)
            return trace
        try:
            c = coefficients.eval(m)
            t = weakening.eval(m)
            sup, witness = sup_query(remainder)
            atom = policy.choose(m, dictionary, remainder, t, sup, witness)
            ip = inner(remainder, atom.vector)
            if ip < t * sup - ADMISSIBILITY_SLACK:
                raise NoAdmissibleAtomError(f"step {m}: atom {atom_id_str(atom.id)} has "
                                            f"ip={ip:.17g} < t*sup={t * sup:.17g}")
        except (IndexPastEndError, NoAdmissibleAtomError, UnknownAtomError) as exc:
            trace.status = Status("aborted", m, f"{type(exc).__name__}: {exc}")
            return trace
        remainder = subtract_scaled(remainder, c, atom.vector)
        residual = norm_or_inf(remainder)
        if not residual < math.inf:
            trace.status = Status("aborted", m, f"residual norm {residual} is not finite")
            return trace
        block = atom.id[1] if atom.id[0] == "b" else None
        trace.steps.append(StepRecord(m, atom, c, t, ip, sup, residual, block))
        if stop_below is not None and residual < stop_below:
            trace.status = Status("exhausted", m, "early_exit_threshold")
            return trace
    trace.status = Status("exhausted", trace.max_steps)
    return trace


def reconstruct(trace: Trace) -> SparseVector:
    """The approximant after the recorded steps: the sum of c_m times atom_m.
    Needs an in-memory trace: one read back from CSV or JSON has no atom vectors."""
    acc = SparseVector()
    for record in trace.steps:
        if record.atom.vector.is_zero():
            raise PreconditionUnmetError(
                f"step {record.m}: atom {atom_id_str(record.atom.id)} has no vector; "
                "reconstruct needs an in-memory trace")
        acc = subtract_scaled(acc, -record.c, record.atom.vector)
    return acc


# ---------------------------------------------------------------------------
# trace serialization (CSV is the canonical interchange format)
# ---------------------------------------------------------------------------


# one trace row exactly as csv.writer writes it: no field of a step record
# ever needs quoting, and every float goes out with 17 significant digits,
# c, t, ip and sup as the "%.17g" texts write_trace_csv passes in
_CSV_ROW = "%d,%s,%s,%s,%s,%s,%.17g,%s\r\n"


def write_trace_csv(trace: Trace, path: str):
    """Write the trace as CSV_HEADER and one _CSV_ROW per step.

    A schedule plays one coefficient over several rows and keeps t on all of
    them, and a MaxGreedy step has sup == ip, so c, t, ip and sup reuse the
    text of an equal value in the row above (sup also that of its own row's
    ip) instead of formatting it again. Equal nonzero numbers format alike;
    zero is always formatted, since 0.0 == -0.0 and their texts differ, and
    NaN equals nothing."""
    names = {}
    c0 = t0 = ip0 = sup0 = None
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(",".join(CSV_HEADER) + "\r\n")
        for r in trace.steps:
            aid = r.atom.id
            name = names.get(aid)
            if name is None:
                name = names[aid] = atom_id_str(aid)
            c, t, ip, sup = r.c, r.t, r.ip, r.sup
            if c != c0 or not c:
                c0, c_text = c, "%.17g" % c
            if t != t0 or not t:
                t0, t_text = t, "%.17g" % t
            if ip != ip0 or not ip:
                ip0, ip_text = ip, "%.17g" % ip
            if sup != sup0 or not sup:
                sup0, sup_text = sup, ip_text if sup == ip and sup else "%.17g" % sup
            write(_CSV_ROW % (r.m, name, c_text, t_text, ip_text, sup_text, r.residual_norm,
                              "" if r.block is None else r.block))


def _decode_steps(rows, where) -> list:
    """Step records from rows of the eight CSV_HEADER fields as text: the one
    set of rules for CSV rows and JSON steps. Atoms come back with their ids
    and one shared empty vector per id; an empty row is skipped. A row without
    exactly one field per column, or with a field that does not parse, raises
    GreedyExpansionError led by where(n), n the number of steps decoded.

    A c, t, ip or sup whose text is the one in the row above takes that row's
    float, and a sup whose text is its own row's ip takes the ip's float: the
    floats float(text) would give again."""
    empty = SparseVector()
    atoms = {}
    steps = []
    c0 = t0 = ip0 = sup0 = None
    try:
        for row in rows:
            if len(row) != len(CSV_HEADER):
                if not row:
                    continue
                raise GreedyExpansionError(f"{len(row)} fields, want {len(CSV_HEADER)}")
            m, text, c, t, ip, sup, residual_norm, block = row
            atom = atoms.get(text)
            if atom is None:
                atom = atoms[text] = Atom(parse_atom_id(text), empty)
            m = int(m)
            if c != c0:
                c0, c_value = c, float(c)
            if t != t0:
                t0, t_value = t, float(t)
            if ip != ip0:
                ip0, ip_value = ip, float(ip)
            if sup != sup0:
                sup0, sup_value = sup, ip_value if sup == ip else float(sup)
            steps.append(StepRecord(m, atom, c_value, t_value, ip_value, sup_value,
                                    float(residual_norm), int(block) if block else None))
    except (GreedyExpansionError, TypeError, ValueError, csv.Error) as exc:
        raise GreedyExpansionError(f"{where(len(steps))}: {exc}") from exc
    return steps


def read_trace_csv(path: str) -> Trace:
    """Load step records from CSV by _decode_steps' rules. The initial norm and
    status are not part of the CSV format and come back as None. A wrong
    header raises GreedyExpansionError; blank lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise GreedyExpansionError(f"line {reader.line_num}: {exc}") from exc
        if header != CSV_HEADER:
            raise GreedyExpansionError(
                f"unexpected trace header {header!r}, want {CSV_HEADER!r}")
        return Trace(steps=_decode_steps(reader, lambda n: f"line {reader.line_num}"))


def trace_to_json_obj(trace: Trace) -> dict:
    return {
        "initial_norm": trace.initial_norm,
        "max_steps": trace.max_steps,
        "status": None if trace.status is None else asdict(trace.status),
        "steps": [dict({k: getattr(r, k) for k in CSV_HEADER}, atom=atom_id_str(r.atom.id))
                  for r in trace.steps],
    }


def write_trace_json(trace: Trace, path: str):
    with open(path, "w") as fh:
        json.dump(trace_to_json_obj(trace), fh, indent=1)


def _json_field(value) -> str:
    # a JSON value as the CSV field of the same value: null is the empty field
    # and a number its JSON text, which int() and float() read back exactly; a
    # string keeps its quotes, so it reads as no number
    return "" if value is None else json.dumps(value)


def _load_json(path: str, **options):
    """The JSON document at path, read with json.load's options; one nested
    too deeply for the parser raises GreedyExpansionError, not RecursionError."""
    with open(path) as fh:
        try:
            return json.load(fh, **options)
        except RecursionError as exc:
            raise GreedyExpansionError(f"JSON nested too deeply: {exc}") from exc


def read_trace_json(path: str) -> Trace:
    """Load a trace written by write_trace_json. Each step is decoded as the
    CSV row of its eight values (the atom as itself, every other value as its
    _json_field), so one set of rules reads both formats; a step without a
    block key has none. Anything the writer could not have written raises
    GreedyExpansionError."""
    obj = _load_json(path)
    steps = obj.get("steps") if isinstance(obj, dict) else None
    if not (isinstance(steps, list) and all(isinstance(s, dict) for s in steps)):
        raise GreedyExpansionError("a JSON trace is an object whose steps are objects")
    rows = ([s.get(k) if k == "atom" else _json_field(s.get(k)) for k in CSV_HEADER]
            for s in steps)
    records = _decode_steps(rows, lambda n: f"step {n + 1}")
    head = [_json_field(obj.get(k)) for k in ("initial_norm", "max_steps")]
    status = obj.get("status")
    try:
        return Trace(steps=records, initial_norm=float(head[0]) if head[0] else None,
                     max_steps=int(head[1]) if head[1] else None,
                     status=None if status is None else Status(**status))
    except (TypeError, ValueError) as exc:
        raise GreedyExpansionError(f"bad initial_norm, max_steps or status: {exc}") from exc


def read_trace(path: str) -> Trace:
    if path.endswith(".json"):
        return read_trace_json(path)
    return read_trace_csv(path)
