"""Experiment runner: run / counterexample / check / sweep.

Configs are JSON documents (schema in the README). Trace CSV is the canonical
output; metadata JSON echoes the config and records how the run ended so that
a truncated run is never mistaken for a converged one.

Exit codes: 0 success, 1 bad config, non-finite input, unreadable input or
unwritable output, 2 run aborted, 3 verification failed. ``main`` turns an
OSError or GreedyExpansionError into ``error: <message>`` and exit 1; only
``run_experiment`` (sweep's worker entry point) and check's trace read keep their own.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from . import analysis, counterexample, engine, sequences
from .core import SparseVector
from .dictionaries import (
    CoherenceEstimate,
    MaxGreedy,
    Scripted,
    dictionary_from_config,
)
from .errors import GreedyExpansionError, ConfigInvalidError, parse_tagged

SEED_ENV_VAR = "GREEDY_SEED"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _finite(text: str) -> float:
    """A JSON number or NaN/Infinity constant as a float; one that is not
    finite, 1e400 included, raises ConfigInvalidError."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigInvalidError(f"non-finite number {text} in JSON")
    return value


# configs and target files hold finite numbers only, so the metadata that
# echoes a config is strict JSON; a trace may hold a NaN, which check grades
_FINITE_JSON = {"parse_constant": _finite, "parse_float": _finite}


def _target_from_config(spec: dict) -> SparseVector:
    if not isinstance(spec, dict):
        raise ConfigInvalidError("target spec must be an object")
    if "inline" in spec:
        return SparseVector.from_json(spec["inline"])
    if "file" in spec:
        return SparseVector.from_json(engine._load_json(spec["file"], **_FINITE_JSON))
    if "counterexample" in spec:
        ce = spec["counterexample"]
        cfg = counterexample.default_config(
            float(ce["t"]), int(ce["groups"]), int(ce["k"]) if "k" in ce else None)
        return counterexample.build_target(cfg)
    raise ConfigInvalidError("target spec needs 'inline', 'file' or 'counterexample'")


def _max_greedy(spec: dict) -> MaxGreedy:
    if set(spec) != {"kind"}:
        raise ConfigInvalidError(f"unknown policy spec {spec!r}")
    return MaxGreedy()


_POLICY_BUILDERS = {
    "max_greedy": _max_greedy,
    "scripted": lambda spec: Scripted(spec.get("atoms", [])),
}


def _policy_from_config(spec) -> object:
    if spec is None or spec == "max_greedy":
        spec = {"kind": "max_greedy"}
    return parse_tagged(spec, _POLICY_BUILDERS, "policy")


def _effective_seed(config: dict):
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigInvalidError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return config.get("seed")


def run_experiment(config_path: str) -> int:
    """Execute one run config; returns the process exit code."""
    try:
        config = engine._load_json(config_path, **_FINITE_JSON)
        target = _target_from_config(config["target"])
        dictionary = dictionary_from_config(config["dictionary"])
        coefficients = sequences.coefficients_from_config(config["coefficients"])
        weakening = sequences.weakening_from_config(config["weakening"])
        policy = _policy_from_config(config.get("policy"))
        max_steps = config["max_steps"]
        stop_below = config.get("early_exit_threshold")
        outputs = config["outputs"]
        trace_path, meta_path = outputs["trace"], outputs["metadata"]
        seed = _effective_seed(config)
    except (KeyError, TypeError, ValueError, OSError, GreedyExpansionError) as exc:
        return _fail(f"{config_path}: {exc}")

    try:
        trace = engine.run(target, dictionary, coefficients, weakening,
                           policy=policy, max_steps=max_steps, stop_below=stop_below)
        engine.write_trace_csv(trace, trace_path)
        meta = {
            "config": config,
            "seed": seed,
            "status": asdict(trace.status),
            "initial_norm": trace.initial_norm,
            "final_residual": trace.final_residual(),
            "steps": len(trace.steps),
            "max_steps": trace.max_steps,
            "early_exit_threshold": stop_below,
            "truncation_reason": trace.status.reason,
        }
        # json.dumps without indent runs the C encoder; json.dump never does
        with open(meta_path, "w") as fh:
            fh.write(json.dumps(meta))
    except (OSError, GreedyExpansionError) as exc:
        return _fail(f"{config_path}: {exc}")
    print(f"{config_path}: {trace.status.kind} after {len(trace.steps)} steps, "
          f"residual {trace.final_residual():.6g} -> {trace_path}")
    return 2 if trace.status.kind == "aborted" else 0


def cmd_counterexample(args) -> int:
    cfg = counterexample.default_config(args.t, args.groups, args.k)
    plan = counterexample.build_plan(cfg)
    trace = counterexample.run_plan(plan)
    norms = trace.residual_norms()
    marks_out = []
    ok = trace.status.kind != "aborted"
    for gm in plan.marks:
        residual = norms[gm.subnorm_one_step - 1] if gm.subnorm_one_step <= len(norms) else None
        marks_out.append({
            "group": gm.group,
            "subnorm_one_step": gm.subnorm_one_step,
            "zeroed_step": gm.zeroed_step,
            "residual_at_mark": residual,
        })
        if residual is None or residual < 1.0 - 1e-9:
            ok = False
    marks_path = args.marks or (os.path.splitext(args.out)[0] + ".marks.json")
    engine.write_trace_csv(trace, args.out)
    with open(marks_path, "w") as fh:
        json.dump({"t": cfg.t, "k": cfg.k, "groups": cfg.num_groups, "marks": marks_out},
                  fh, indent=1)
    print(f"t={cfg.t} k={cfg.k} groups={cfg.num_groups}: {len(trace.steps)} steps, "
          f"{sum(1 for m in marks_out if m['residual_at_mark'] is not None)} marks -> {args.out}")
    if not ok:
        print("error: some phase marks fell short of residual 1", file=sys.stderr)
        return 3
    return 0


def cmd_check(args) -> int:
    try:
        trace = engine.read_trace(args.trace)
    except (OSError, ValueError, GreedyExpansionError) as exc:
        return _fail(f"cannot read trace {args.trace}: {exc}")
    if not trace.steps:
        return _fail(f"trace {args.trace} has no steps")

    report = analysis.verify_energy_identity(trace, tol=args.energy_tol)
    report = report.merged(analysis.verify_greedy_condition(trace, tol=args.greedy_tol))

    has_blocks = any(r.block is not None for r in trace.steps)
    if has_blocks:
        report = report.merged(analysis.verify_block_partition(trace))
    elif args.require_blocks:
        print("warning: trace has no block column; block checks not applicable", file=sys.stderr)

    if args.descent_coherence is not None:
        c_est = CoherenceEstimate(args.descent_coherence, samples=1, seed=0)
        report = report.merged(analysis.verify_descent_inequality(
            trace, c_est, args.descent_epsilon, args.descent_from_step))

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_json_obj(), fh, indent=1)
    failed = report.failed()
    # advisory: a sampled coherence over-estimate can flag sound traces
    hard_failures = [c for c in failed if c.name != "descent_inequality"]
    for check in report.checks:
        print(f"{'ok  ' if check.passed else 'FAIL'} {check.name}: "
              f"worst violation {check.worst_violation:.3g}"
              + (f" at step {check.step}" if check.step is not None else ""))
    if len(hard_failures) < len(failed):
        print("warning: descent inequality violated; the coherence value is an "
              "upper bound, so this is advisory", file=sys.stderr)
    if hard_failures:
        print(f"error: failed checks: {', '.join(c.name for c in hard_failures)}", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args) -> int:
    # imported here: no other command pays for the multiprocessing modules
    from concurrent.futures import ProcessPoolExecutor

    paths = args.configs
    if len(set(paths)) != len(paths):
        return _fail("sweep configs must be distinct")
    if args.jobs is not None and args.jobs < 1:
        return _fail(f"--jobs must be >= 1, got {args.jobs}")
    # a fork pool starts all its workers at the first submit: start no more
    # than there are configs
    jobs = min(args.jobs or os.cpu_count() or 1, len(paths))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        codes = list(pool.map(run_experiment, paths))
    for path, code in zip(paths, codes):
        print(f"{'ok  ' if code == 0 else 'FAIL'} {path} (exit {code})")
    return max(codes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedyexp",
        description="Greedy expansions with prescribed coefficients: experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=lambda args: run_experiment(args.config))

    p = sub.add_parser("counterexample", help="build and run the t<1 divergence schedule")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--groups", type=int, default=6)
    p.add_argument("--k", type=int, default=None, help="override the group parameter k")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--marks", default=None, help="phase-marks JSON path (default: <out>.marks.json)")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("check", help="verify a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--report", default=None, help="write the verification report JSON here")
    p.add_argument("--energy-tol", type=float, default=1e-10)
    p.add_argument("--greedy-tol", type=float, default=1e-12)
    p.add_argument("--require-blocks", action="store_true",
                   help="warn when the trace has no direct-sum block column")
    p.add_argument("--descent-coherence", type=float, default=None,
                   help="coherence constant for the advisory descent check")
    p.add_argument("--descent-epsilon", type=float, default=0.2)
    p.add_argument("--descent-from-step", type=int, default=1)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="run several configs in parallel processes")
    p.add_argument("--config", dest="configs", action="append", required=True,
                   help="repeatable: one JSON config per experiment")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, GreedyExpansionError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
