"""Benchmark of the metabcrb CLI and library on three workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep-shared --seed 1 --seconds 25 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of traced passes. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See benchmarks/README.md.

The program is imported from ./src only; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("sweep-shared", "sweep-regimes", "oracle")
# Threads stay at or below nproc: the BLAS and OpenMP pools run one thread
# and the sweep pool of the CLI gets nproc workers.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare(root: str) -> str:
    """Pin thread pools before numpy loads and put ./src first on the path.

    Returns the source directory; exits 2 if the checkout has no program.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "metabcrb", "cli.py")):
        sys.stderr.write(f"benchmark: no metabcrb sources under {src}; "
                         "run from the repository root\n")
        raise SystemExit(2)
    os.environ.update(THREAD_ENV)
    os.environ["METABCRB_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, src)
    return src


def _print_table(values: dict, units: dict, samples: dict | None = None) -> None:
    for name, value in values.items():
        extra = f"  (n={samples[name]})" if samples and name in samples else ""
        print(f"{name:34s} {value:>16.6g} {units[name]}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metabcrb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = prepare(root)
    import harness
    import metabcrb
    if not os.path.abspath(metabcrb.__file__).startswith(src + os.sep):
        sys.stderr.write(f"benchmark: imported metabcrb from {metabcrb.__file__}, not {src}\n")
        return 2

    reference = harness.load_reference(os.path.join(HERE, "reference.json"))
    env = harness.environment(root, args.workload, args.seed)
    print("env " + json.dumps(env))
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base)
    try:
        runner = harness.Runner(root, src, work, args.workload, args.seed, reference)
        if args.trace:
            res = runner.measure_layers(args.seconds)
            values = res["values"]
            units = {name: harness.per_layer_unit(name) for name in values}
            print(f"traced passes {res['traced']}, untraced passes {res['plain']}; "
                  f"values are medians over traced passes")
            out_dir = os.path.join(root, ".bench_spans")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w") as fh:
                json.dump({"env": env, "passes": res["spans"]}, fh)
            print(f"spans of every traced pass written to {os.path.relpath(spans_path, root)}")
            if res["missing"]:
                print("not measured (name not found): " + ", ".join(res["missing"]))
            _print_table(values, units)
            print(f"self times sum to {values['trace.self_sum_s']:.4f} s against a traced pass of "
                  f"{values['trace.pass_s']:.4f} s; {values['trace.unaccounted_s']:.4f} s fell "
                  "between jobs, and sweep workers running at once count once per thread")
        else:
            res = runner.measure(args.seconds)
            values = res["values"]
            units = harness.END_TO_END_UNITS
            _print_table(values, units, res["samples"])
            for name, times in res["jobs"].items():
                print(f"job {name:16s} " + " ".join(f"{t:.4f}" for t in times) + " s")
            print(f"items per pass {res['items']}; failed_frac "
                  f"{runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted} jobs)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
