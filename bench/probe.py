"""Fresh-process probe: set-up time, import time and peak memory.

Usage: python3 bench/probe.py WORKLOAD SEED SIZE WORK_DIR [--body]

Times, in a fresh interpreter, ``import greedyexp`` (and ``greedyexp.cli``
for the CLI workloads) plus building the workload's inputs up to its first
step. Generating those inputs from the seed is the benchmark's work, not the
program's, and happens outside the timed part. Right after set-up it times
the reference kernel (reference.py) and reports the scale from measured to
reference speed. With ``--body`` it then runs one repetition and reports the
process's peak RSS. Prints one JSON object.
"""

# Only os, sys and time load before the clock starts; whatever else greedyexp
# needs (numpy, json, argparse, ...) is paid for inside the timed part.
import os
import sys
import time

# One thread: keep OpenBLAS from starting a pool of spinning workers when
# numpy loads; the matrices here are far too small to gain from it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
KERNEL_RUNS = 3
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]


def main(argv) -> int:
    name, seed, size, work_dir = argv[0], int(argv[1]), argv[2], argv[3]
    t0 = time.perf_counter()
    import greedyexp
    t1 = time.perf_counter()
    import greedyexp.cli  # noqa: F401
    t2 = time.perf_counter()

    import resource

    import reference
    import workloads
    w = workloads.make(name, seed, size, work_dir)
    t3 = time.perf_counter()
    w.setup(greedyexp)
    t4 = time.perf_counter()
    setup_s = (t1 - t0) + (t4 - t3)
    if w.via_cli:
        setup_s += t2 - t1
    kernel = sorted(reference.kernel_s() for _ in range(KERNEL_RUNS))[KERNEL_RUNS // 2]
    out = {"setup_s": setup_s, "import_cli_s": t2 - t0, "scale": reference.REFERENCE_S / kernel,
           "peak_rss_mb": None, "problems": []}
    if "--body" in argv[4:]:
        rep = w.body(greedyexp)
        out["problems"] = rep.problems
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import json
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
