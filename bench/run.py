"""greedyexp benchmark: one workload, closed loop, one process, one thread.

Usage (from the repository root):

    python3 bench/run.py --workload onb_wide --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from --seed, times set-up in fresh processes,
then repeats the workload body back to back for --seconds seconds. Every
trace is hashed and replayed densely (replay.py); a repetition whose trace
or exit codes are wrong counts as failed. Every timed repetition and set-up
is bracketed by the reference kernel (reference.py), and the reported times
are scaled to the kernel's reference speed; the measured ones are printed
alongside.

--trace 0 reports the end-to-end metrics. --trace 1 alternates plain and
traced repetitions and reports the per-layer split (tracer.py) plus the
tracing overhead; it writes layers.json and spans.csv to the work directory.
Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

# One thread: keep OpenBLAS from starting a pool of spinning workers when
# numpy loads; the matrices here are far too small to gain from it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 0
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

sys.path.insert(0, BENCH)
import reference  # noqa: E402
import replay  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(BENCH, "digests.json")) as _fh:
    PINNED_DIGESTS = json.load(_fh)

# (metric, unit, span) of the per-layer times; all are self times.
SPAN_TIMES = [
    ("core.subtract_scaled.us", "us", "core.subtract_scaled"),
    ("core.SparseVector.init.us", "us", "core.SparseVector.init"),
    ("core.norm.us", "us", "core.norm"),
    ("core.inner.us", "us", "core.inner"),
    *[(f"dictionaries.sup_inner.{k}.us", "us", f"dictionaries.sup_inner.{k}")
      for k in tracing.DICTIONARY_KINDS],
    ("dictionaries.realize.us", "us", "dictionaries.realize"),
    ("dictionaries.choose.us", "us", "dictionaries.choose"),
    ("dictionaries.build.s", "s", "dictionaries.build"),
    ("sequences.eval.us", "us", "sequences.eval"),
    ("counterexample.build_plan.s", "s", "counterexample.build_plan"),
    ("counterexample.build_target.s", "s", "counterexample.build_target"),
    ("cli.self_s", "s", "cli.main"),
]
SPAN_CALLS = [
    ("core.subtract_scaled.calls", "core.subtract_scaled"),
    ("core.SparseVector.init.calls", "core.SparseVector.init"),
    ("core.inner.calls", "core.inner"),
    ("dictionaries.realize.calls", "dictionaries.realize"),
    ("sequences.eval.calls", "sequences.eval"),
    ("counterexample.build_plan.calls", "counterexample.build_plan"),
]
PER_ROW = [
    ("engine.write_trace_csv.us_per_row", "engine.write_trace_csv"),
    ("engine.read_trace_csv.us_per_row", "engine.read_trace_csv"),
    ("analysis.verify_energy_identity.us_per_row", "analysis.verify_energy_identity"),
    ("analysis.verify_greedy_condition.us_per_row", "analysis.verify_greedy_condition"),
    ("analysis.verify_block_partition.us_per_row", "analysis.verify_block_partition"),
]
# Counts named for their exactness; every metric with unit "count" must
# repeat bit for bit between repetitions and between runs.
EXACT_COUNTERS = [
    "engine.run.steps", "core.subtract_scaled.entries_copied", "core.inner.terms",
    "dictionaries.atoms_scored", "core.remainder_support.peak",
    "dictionaries.band_decided_steps", "counterexample.build_plan.calls",
    "engine.trace_csv_bytes",
]


def per_layer_units() -> dict:
    units = {name: unit for name, unit, _ in SPAN_TIMES}
    units.update({name: "count" for name, _ in SPAN_CALLS})
    units.update({name: "us/row" for name, _ in PER_ROW})
    units.update({name: "count" for name in EXACT_COUNTERS})
    units.update({
        "dictionaries.sup_inner.calls": "count",
        "engine.run.self_us_per_step": "us/step",
        "cli.import_s": "s",
        "bench.tracing_overhead_frac": "frac",
    })
    return units


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
                    "verify_rows_per_s": "1/s", "peak_rss_mb": "MB"}


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list, worse_is_high: bool) -> str:
    """The highest percentile, counted from the better end, that still has at
    least ten samples beyond it on the worse side."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    ordered = sorted(values, reverse=not worse_is_high)
    p = math.floor(100 * (n - 10) / n)
    return f"p{p} {ordered[n - 11]:.6g}, 10 samples worse (n={n})"


def run_probes(args, work_dir: str, body: bool) -> tuple:
    """SETUP_PROBES set-up-only fresh processes, then (with body) one that also
    runs a repetition and reports peak RSS."""
    results, problems = [], []
    probe_dir = os.path.join(work_dir, "probe")
    for i in range(SETUP_PROBES + body):
        cmd = [sys.executable, os.path.join(BENCH, "probe.py"), args.workload,
               str(args.seed), args.size, probe_dir] + (["--body"] if i == SETUP_PROBES else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            problems.append(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        problems.extend(out["problems"])
        results.append(out)
    return results, problems


class Checker:
    """Hashes each repetition's trace and replays every distinct trace once."""

    def __init__(self, w, pinned):
        self.reference = w.reference()
        self.pinned = pinned
        self.replayed: dict = {}
        self.digest = None
        self.rows = 0
        self.band_decided = 0

    def check(self, rep) -> list:
        digest = replay.sha256_file(rep.trace_csv)
        problems = list(rep.problems)
        if digest not in self.replayed:
            found = replay.check_trace(rep.trace_csv, self.reference)
            rows = replay.read_rows(rep.trace_csv) if not found else []
            self.replayed[digest] = (found, len(rows),
                                     sum(1 for r in rows if float(r[4]) < float(r[5])))
        found, self.rows, band = self.replayed[digest]
        self.band_decided = band if self.reference["policy"] == "max_greedy" else 0
        problems.extend(found)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"trace digest {digest} differs from the first repetition's")
        if self.pinned is not None and digest != self.pinned:
            problems.append(f"trace digest {digest} differs from the pinned {self.pinned}")
        return problems


def do_rep(gx, w, checker: Checker, tracer=None):
    # The cyclic collector is paused while a repetition runs and catches up
    # between repetitions. Left running, it made the time of identical
    # repetitions in one process vary by up to a fifth; the traces, vectors
    # and records the program builds hold no reference cycles, so only the
    # collector's own passes drop out of the measurement.
    gc.collect()
    if tracer is not None:
        tracer.reset()
    # The reference kernel runs before, between and after the two phases, so
    # each phase is scaled by the machine's speed right around it.
    gc.disable()
    try:
        kernel = [reference.kernel_s()]
        if tracer is not None:
            tracer.install(gx)
        try:
            rep = w.expand(gx)
            kernel.append(reference.kernel_s())
            w.verify(gx, rep)
        finally:
            if tracer is not None:
                tracer.restore()
        kernel.append(reference.kernel_s())
    finally:
        gc.enable()
    rep.expand_scale = reference.REFERENCE_S / ((kernel[0] + kernel[1]) / 2)
    rep.verify_scale = reference.REFERENCE_S / ((kernel[1] + kernel[2]) / 2)
    if rep.trace is not None:
        gx.engine.write_trace_csv(rep.trace, rep.trace_csv)
        rep.trace = None
    return rep, checker.check(rep)


def layer_metrics(tracer, checker: Checker) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def self_ns(span):
        return totals.get(span, (0, 0))[1]

    def calls(span):
        return totals.get(span, (0, 0))[0]

    m = {}
    for name, unit, span in SPAN_TIMES:
        m[name] = self_ns(span) / (1e3 if unit == "us" else 1e9)
    for name, span in SPAN_CALLS:
        m[name] = calls(span)
    for name, span in PER_ROW:
        rows = counts.get(span + ".rows", 0)
        m[name] = self_ns(span) / 1e3 / rows if rows else 0.0
    for name in EXACT_COUNTERS:
        m.setdefault(name, counts.get(name, 0))
    m["dictionaries.band_decided_steps"] = checker.band_decided
    m["dictionaries.sup_inner.calls"] = sum(
        calls(f"dictionaries.sup_inner.{k}") for k in tracing.DICTIONARY_KINDS)
    steps = counts.get("engine.run.steps", 0)
    m["engine.run.self_us_per_step"] = self_ns("engine.run") / 1e3 / steps if steps else 0.0
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs a few steps, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "greedyexp", "__init__.py")):
        print(f"error: no greedyexp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import greedyexp as gx
    import greedyexp.cli  # noqa: F401
    if not os.path.abspath(gx.__file__).startswith(SRC + os.sep):
        print(f"error: imported greedyexp from {gx.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work_dir = os.path.join(OUT, args.workload, f"seed{args.seed}-{args.size}")
    w = workloads.make(args.workload, args.seed, args.size, work_dir)
    pinned = None
    if args.seed == DEFAULT_SEED and args.size == "full":
        pinned = PINNED_DIGESTS[args.workload]
    checker = Checker(w, pinned)

    probes, problems = run_probes(args, work_dir, body=not args.trace)
    tracer = tracing.Tracer() if args.trace else None

    plain, traced, layer_reps = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not plain or (tracer and not traced):
        use_tracer = tracer is not None and len(traced) < len(plain)
        rep, rep_problems = do_rep(gx, w, checker, tracer if use_tracer else None)
        attempted += 1
        if rep_problems:
            failed += 1
            problems.extend(rep_problems[:3])
        (traced if use_tracer else plain).append(rep)
        if use_tracer:
            layer_reps.append(layer_metrics(tracer, checker))

    steps = checker.rows
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{attempted} repetitions, {steps} steps each, trace sha256 {checker.digest}"
          + (" (pinned)" if pinned else ""))
    if args.trace:
        metrics = summarize_layers(tracer, layer_reps, plain, traced, probes, work_dir, problems)
    else:
        metrics = summarize_end_to_end(plain, probes, steps)
    print(f"failed_frac {failed / attempted:.6g} frac ({failed} of {attempted} repetitions)")
    for p in problems[:20]:
        print(f"problem: {p}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def summarize_end_to_end(reps, probes, steps) -> dict:
    """steps is the trace's row count: the rows verification goes through.
    Times are reported at the reference speed; the measured median follows."""
    def series(scaled: bool) -> dict:
        def k(scale):
            return scale if scaled else 1.0
        return {
            "setup_s": ([p["setup_s"] * k(p["scale"]) for p in probes], True),
            "wall_s": ([r.scaled_wall_s if scaled else r.wall_s for r in reps], True),
            "steps_per_s": ([steps / (r.expand_s * k(r.expand_scale)) for r in reps], False),
            "verify_rows_per_s": ([steps / (r.verify_s * k(r.verify_scale)) for r in reps],
                                  False),
        }

    measured = series(scaled=False)
    metrics = {}
    for name, (values, worse_is_high) in series(scaled=True).items():
        value = median(values)
        metrics[name] = (value, END_TO_END_UNITS[name])
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}: median at reference speed; "
              f"{tail(values, worse_is_high)}; measured median {median(measured[name][0]):.6g}")
    rss = [p["peak_rss_mb"] for p in probes if p["peak_rss_mb"] is not None]
    metrics["peak_rss_mb"] = (median(rss), END_TO_END_UNITS["peak_rss_mb"])
    print(f"peak_rss_mb {median(rss):.6g} MB: median of {len(rss)} fresh process(es)")
    kernel = [reference.REFERENCE_S / r.expand_scale for r in reps]
    print(f"reference kernel {median(kernel) * 1e3:.4g} ms: median of the mean before and "
          f"after each expansion ({reference.REFERENCE_S * 1e3:.4g} ms at reference speed); "
          f"quartiles {', '.join(f'{q * 1e3:.4g}' for q in quartiles(kernel))} ms")
    return metrics


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values)


def summarize_layers(tracer, layer_reps, plain, traced, probes, work_dir, problems) -> dict:
    units = per_layer_units()
    values = {}
    for name, unit in units.items():
        if unit == "count":
            seen = {rep[name] for rep in layer_reps}
            if len(seen) > 1:
                problems.append(f"counter {name} took values {sorted(seen)}")
            values[name] = layer_reps[-1][name]
        elif name in layer_reps[-1]:
            values[name] = median([rep[name] for rep in layer_reps])
    values["cli.import_s"] = median([p["import_cli_s"] * p["scale"] for p in probes])
    plain_wall = median([r.scaled_wall_s for r in plain])
    values["bench.tracing_overhead_frac"] = (
        median([r.scaled_wall_s for r in traced]) / plain_wall - 1.0)
    for name, unit in units.items():
        value = values[name]
        print(f"{name} {value if unit == 'count' else format(value, '.6g')} {unit}")
    with open(os.path.join(work_dir, "layers.json"), "w") as fh:
        json.dump({name: {"value": values[name], "unit": unit} for name, unit in units.items()},
                  fh, indent=1)
    tracer.write_spans(os.path.join(work_dir, "spans.csv"))
    print(f"per-layer summary and spans of the last traced repetition in {work_dir}")
    return {name: (values[name], unit) for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
