"""Spans and exact counters around greedyexp's layers, from outside the package.

``Tracer.install`` replaces the module attributes that callers look up (for
example ``greedyexp.engine.subtract_scaled``, which ``engine.run`` resolves
through its module globals) and the dictionary, policy and sequence methods
with wrappers that record a span (name, start, end, parent) and update
counters. ``Tracer.restore`` puts every original back. Nothing under ``src/``
knows about it.

Spans live in flat integer arrays, so a repetition with hundreds of thousands
of spans costs a few megabytes. Self time is a span's duration minus the
durations of its direct children: calls are nested in one thread, so the
children never overlap and their durations add up to the time they cover.
The wrappers' own cost lands in the parent's self time; the benchmark reports
it as a whole in ``bench.tracing_overhead_frac``.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

# sup_inner self time is reported per dictionary kind, under these names.
DICTIONARY_KINDS = ("symmetrized_onb", "finite", "augmented_onb", "pushforward", "direct_sum")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._patches: list = []
        self.span_name, self.span_parent = array("q"), array("q")
        self.span_start, self.span_end = array("q"), array("q")
        self._stack = [-1]
        self.counts = defaultdict(int)

    def reset(self):
        """Drop the spans and counters of the previous repetition. Everything
        is emptied in place because the installed wrappers hold it."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        del self._stack[1:]
        self.counts.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        """fn recording a span named ``name``; after(args, result) runs once the
        span has ended, so the counting it does is not charged to the layer."""
        nid = self._name_id(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, gx):
        """Wrap greedyexp's layers. gx is the imported package, cli included."""
        core, dicts, engine = gx.core, gx.dictionaries, gx.engine
        seqs, ce, analysis, cli = gx.sequences, gx.counterexample, gx.analysis, gx.cli
        counts = self.counts

        def peak(key, value):
            counts[key] = max(counts[key], value)

        def after_subtract(args, result):
            counts["core.subtract_scaled.entries_copied"] += args[0].support_size()
            peak("core.remainder_support.peak", result.support_size())

        def after_inner(args, result):
            counts["core.inner.terms"] += len(args[0].support() & args[1].support())

        def after_run(args, result):
            counts["engine.run.steps"] += len(result.steps)
            peak("core.remainder_support.peak", args[0].support_size())

        def after_write(args, result):
            counts["engine.write_trace_csv.rows"] += len(args[0].steps)
            counts["engine.trace_csv_bytes"] += os.path.getsize(args[1])

        def after_read(args, result):
            counts["engine.read_trace_csv.rows"] += len(result.steps)

        def rows_of(name):
            def after(args, result):
                counts[name + ".rows"] += len(args[0].steps)
            return after

        def scored(measure):
            def after(args, result):
                counts["dictionaries.atoms_scored"] += measure(args[0], args[1])
            return after

        self.patch(core.SparseVector, "__init__", "core.SparseVector.init")
        self.patch(core.SparseVector, "norm", "core.norm")
        for owner in (engine, dicts):
            self.patch(owner, "inner", "core.inner", after_inner)
        self.patch(engine, "subtract_scaled", "core.subtract_scaled", after_subtract)

        atoms_scored = {
            "symmetrized_onb": lambda d, f: f.support_size(),
            "finite": lambda d, f: len(d.atoms),
            "augmented_onb": lambda d, f: len(d.extras),
            "pushforward": lambda d, f: len(d.head),
            "direct_sum": lambda d, f: 0,
        }
        for cls in (dicts.SymmetrizedOnb, dicts.FiniteDictionary, dicts.AugmentedOnb,
                    dicts.PushforwardDictionary, dicts.DirectSumDictionary):
            self.patch(cls, "sup_inner", f"dictionaries.sup_inner.{cls.kind}",
                       scored(atoms_scored[cls.kind]))
            self.patch(cls, "realize", "dictionaries.realize")
        for cls in (dicts.MaxGreedy, dicts.Scripted):
            self.patch(cls, "choose", "dictionaries.choose")
        for attr in ("make_symmetrized_onb", "dictionary_from_config"):
            self.patch(dicts, attr, "dictionaries.build")
        self.patch(cli, "dictionary_from_config", "dictionaries.build")

        for cls in (seqs.Harmonic, seqs.Power, seqs.Explicit,
                    seqs.ConstantWeakening, seqs.ExplicitWeakening):
            self.patch(cls, "eval", "sequences.eval")

        self.patch(engine, "run", "engine.run", after_run)
        self.patch(ce, "run", "engine.run", after_run)
        self.patch(engine, "write_trace_csv", "engine.write_trace_csv", after_write)
        self.patch(engine, "read_trace_csv", "engine.read_trace_csv", after_read)

        self.patch(ce, "build_plan", "counterexample.build_plan")
        self.patch(ce, "build_target", "counterexample.build_target")

        for attr in ("verify_energy_identity", "verify_greedy_condition",
                     "verify_block_partition"):
            self.patch(analysis, attr, f"analysis.{attr}", rows_of(f"analysis.{attr}"))

        self.patch(cli, "main", "cli.main")

    def totals(self) -> dict:
        """name -> (calls, total self ns) over the spans recorded since reset."""
        n = len(self.span_name)
        child_ns = [0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                child_ns[parent] += self.span_end[idx] - self.span_start[idx]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for idx in range(n):
            name = self.names[self.span_name[idx]]
            calls[name] += 1
            self_ns[name] += self.span_end[idx] - self.span_start[idx] - child_ns[idx]
        return {name: (calls[name], self_ns[name]) for name in calls}

    def write_spans(self, path: str):
        """The recorded spans as CSV: id, name, start and end in ns, parent id."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            names = self.names
            for idx in range(len(self.span_name)):
                fh.write(f"{idx},{names[self.span_name[idx]]},{self.span_start[idx]},"
                         f"{self.span_end[idx]},{self.span_parent[idx]}\n")
