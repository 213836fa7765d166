"""Trace CSV and JSON bytes and values where fields repeat from row to row.

The CSV writer reuses the text of a c, t, ip or sup equal to the one in the row
above (sup also its own row's ip text), and the reader reuses the float of a
field whose text is the one above. Neither may show: the bytes are those of
formatting every field with %.17g, and every field read back is float(text),
signed zeros and NaN included.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedyexp import counterexample
from greedyexp.core import SparseVector
from greedyexp.dictionaries import Atom, MaxGreedy, make_symmetrized_onb
from greedyexp.engine import (
    CSV_HEADER,
    StepRecord,
    Trace,
    read_trace_csv,
    read_trace_json,
    run,
    write_trace_csv,
    write_trace_json,
)
from greedyexp.sequences import ConstantWeakening, Harmonic

IO = settings(max_examples=300, deadline=None, derandomize=True, database=None)

ATOM = Atom(("e", 0, 1), SparseVector())
# c, t, ip and sup come from a pool this small so that rows repeat the row above
POOL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1, np.float64(0.3), 0.1, 0.5, -0.25,
        0.70710678118654746]
VALUES = st.sampled_from(POOL)
ROWS = st.lists(st.tuples(VALUES, VALUES, VALUES, st.one_of(VALUES, st.just("ip")),
                          st.sampled_from([0.5, 0.0, 1e-300]), st.sampled_from([None, 2])),
                max_size=12)


def _trace(rows) -> Trace:
    # a sup of "ip" is the row's own ip, as on every MaxGreedy basis step
    return Trace(steps=[StepRecord(m, ATOM, c, t, ip, ip if sup == "ip" else sup, norm, block)
                        for m, (c, t, ip, sup, norm, block) in enumerate(rows, 1)])


def _same(a: float, b: float) -> bool:
    """a and b are one float: NaN matches NaN, and 0.0 does not match -0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_fields(records, texts):
    """Each record's five floats are float() of its row's texts, exactly."""
    assert len(records) == len(texts)
    for record, row in zip(records, texts):
        for name in ("c", "t", "ip", "sup", "residual_norm"):
            value = getattr(record, name)
            assert type(value) is float and _same(value, float(row[name])), (name, row, value)


@IO
@given(ROWS)
@example([(0.0, 0.5, 0.0, "ip", 0.5, None), (-0.0, 0.5, -0.0, "ip", 0.5, None),
          (0.0, 0.5, -0.0, 0.0, 0.5, None)])
@example([(1, 1, 1, "ip", 0.5, 2), (1.0, 1.0, 1.0, 1.0, 0.5, 2),
          (np.float64(0.3), 0.3, 0.3, "ip", 0.0, None)])
@example([(math.nan, math.nan, math.nan, "ip", 0.5, None)] * 2)
def test_csv_bytes_and_fields_are_those_of_every_field_formatted(tmp_path_factory, rows):
    trace = _trace(rows)
    path = tmp_path_factory.mktemp("io") / "trace.csv"
    write_trace_csv(trace, str(path))
    want = "m,atom,c,t,ip,sup,residual_norm,block\r\n" + "".join(
        "%d,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%s\r\n"
        % (r.m, "+e1", r.c, r.t, r.ip, r.sup, r.residual_norm, "" if r.block is None else r.block)
        for r in trace.steps)
    assert path.read_bytes() == want.encode()
    texts = [dict(zip(CSV_HEADER, line.split(","))) for line in want.splitlines()[1:]]
    _assert_fields(read_trace_csv(str(path)).steps, texts)

    json_path = path.with_suffix(".json")
    write_trace_json(trace, str(json_path))
    steps = json.loads(json_path.read_text())["steps"]
    _assert_fields(read_trace_json(str(json_path)).steps,
                   [{k: json.dumps(step[k]) for k in CSV_HEADER if k != "atom"} for step in steps])


@pytest.mark.parametrize("zeros", [("0", "-0", "0"), ("-0", "0", "-0"), ("0.0", "-0.0", "-0.0")])
def test_a_zero_is_read_with_its_own_sign(tmp_path, zeros):
    # equal texts only are shared: "-0" after "0" is -0.0 in every column
    lines = ["m,atom,c,t,ip,sup,residual_norm,block"]
    lines += [f"{m},+e1,{z},{z},{z},{z},{z}," for m, z in enumerate(zeros, 1)]
    path = tmp_path / "trace.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    texts = [dict(zip(CSV_HEADER, line.split(","))) for line in lines[1:]]
    _assert_fields(read_trace_csv(str(path)).steps, texts)

    steps = [{"m": m, "atom": "+e1", "c": float(z), "t": float(z), "ip": float(z),
              "sup": float(z), "residual_norm": float(z)} for m, z in enumerate(zeros, 1)]
    json_path = tmp_path / "trace.json"
    json_path.write_text(json.dumps({"steps": steps}))
    _assert_fields(read_trace_json(str(json_path)).steps,
                   [{k: repr(float(z)) for k in CSV_HEADER} for z in zeros])


# SHA-256 of the CSV write_trace_csv wrote for these runs when it formatted
# every field of every row: a counterexample, whose rounds repeat c, ip and sup
# and every row t, and a MaxGreedy basis run, where sup == ip on every row
CSV_TRACE_SHA256 = {
    "counterexample": "acf91dc7e6c0b14ae0232ac6348643fc696784ab4651824aad518ab15a925dd5",
    "max_greedy": "61330cb4e29f77a955cff636f7bf43a552db45aab9d488a212f6e444b8ab9b1c",
}


@pytest.mark.parametrize("case", sorted(CSV_TRACE_SHA256))
def test_csv_trace_bytes_pinned(tmp_path, case):
    if case == "counterexample":
        trace = counterexample.run_counterexample(counterexample.default_config(0.52, 3))
    else:
        target = SparseVector({i: math.sin(i) for i in range(1, 41)})
        trace = run(target, make_symmetrized_onb(), Harmonic(), ConstantWeakening(1.0),
                    MaxGreedy(), max_steps=300)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_TRACE_SHA256[case]
