"""Reference kernel: a fixed piece of pure-Python work that measures how fast
the machine runs Python code right now.

The benchmark's host is a small shared virtual machine whose speed on
interpreter-bound code switches between a fast and a slow state (about 1.5x
apart), each lasting from a fraction of a second to minutes, because of load
outside the machine. Every timed repetition and every set-up is therefore
bracketed by runs of this kernel, and its times are scaled to a machine on
which the kernel takes ``REFERENCE_S`` seconds: ``scaled = measured *
REFERENCE_S / kernel_time``. A change to greedyexp moves the scaled times as
much as the measured ones; a change of machine state moves both the program
and the kernel and drops out.

The kernel mixes what greedyexp does per step and per trace row: float
arithmetic in a loop, dict-based sparse vectors (copy, update, filter, max
scan, sum of squares) and CSV formatting and parsing. On this workload mix it
slows down in the machine's slow state within a few percent as much as the
workloads do (README.md, "How steady the figures are"). It never imports
greedyexp and must not change: a different kernel changes every scaled
figure.
"""

from __future__ import annotations

import csv
import io
import time

# The kernel's time, in seconds, on the machine the scaled figures refer to:
# about its time on a 2-vCPU Sapphire Rapids guest at 2.0 GHz in its fast
# state, so scaled figures read close to wall-clock ones there.
REFERENCE_S = 0.04


def _arithmetic() -> float:
    s = 0.0
    for i in range(200_000):
        s += i * 0.5
    return s


class _Sparse:
    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = entries


def _sparse() -> float:
    v = _Sparse({i: 1.0 / i for i in range(1, 600)})
    total = 0.0
    for k in range(1, 60):
        d = dict(v.entries)
        d[k] = d.get(k, 0.0) - 0.5 * d[k]
        v = _Sparse({i: x for i, x in d.items() if x != 0.0})
        total += max(abs(x) for x in v.entries.values())
        total += sum(x * x for x in v.entries.values())
    return total


def _csv() -> float:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(3000):
        writer.writerow([i, f"e{i}", repr(i * 0.1), "0.5", repr(i / 3), repr(i / 7),
                         repr(i / 9), ""])
    return sum(float(row[2]) for row in csv.reader(io.StringIO(buf.getvalue())))


def kernel_s() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    _arithmetic()
    _sparse()
    _csv()
    return time.perf_counter() - t0
