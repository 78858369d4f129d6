"""Passes, timing and metrics behind run.py.

A pass runs every job of a workload once, in one process, and is timed job
by job. The end-to-end run time is the sum over jobs of each job's median
time across the measured passes, so one slow job in one pass moves it less
than a median of whole passes would.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import checks
import spans
from workloads import WORKLOADS, write_configs

SETUP_REPEATS = 3  # before the warm-up; one more follows every measured pass
IMPORTTIME_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import metabcrb.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "frac"
    if name == "mc.chunk_mb":
        return "MB_computed"
    if name == "cli.csv_bytes":
        return "B"
    if name == "cli.sweep.concurrency":
        return "ratio"
    return "count"


@dataclass
class PassResult:
    times: dict  # job name -> wall seconds
    wall: float
    failures: dict = field(default_factory=dict)  # job name -> problems
    csv_changed: int = 0  # seed-independent CSVs whose bytes differ from the seed's
    spans: list = field(default_factory=list)


def child_env(src: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def import_seconds(root: str, src: str) -> float:
    """Wall time of `import metabcrb.cli` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=child_env(src),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def scipy_integrate_import_seconds(root: str, src: str) -> float:
    """Cumulative `-X importtime` of scipy.integrate while importing metabcrb.cli."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import metabcrb.cli"],
                         cwd=root, env=child_env(src), capture_output=True, text=True,
                         timeout=120, check=True)
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.integrate":
            return int(parts[1]) / 1e6
    return 0.0  # not imported at all


def execute(job, work: str, seed: int):
    if job.call is not None:
        return job.call(seed)
    import metabcrb.cli
    return metabcrb.cli.main(job.resolve_argv(work, seed))


def _job_span(tracer, job):
    if tracer is None:
        return nullcontext()
    if job.argv:
        return tracer.job(f"cli.{job.subcommand}", "cli")
    return tracer.job(f"bench.{job.name}", "bench")


def run_pass(jobs, work: str, seed: int, reference: dict, tracer=None) -> PassResult:
    """Run each job once, timing it, then check every output."""
    for job in jobs:
        if job.csv and os.path.exists(os.path.join(work, job.csv)):
            os.remove(os.path.join(work, job.csv))
    outcomes, times, job_spans = {}, {}, {}
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        with _job_span(tracer, job) as span:
            try:
                outcomes[job.name] = execute(job, work, seed)
            except Exception as exc:  # a failed job is counted; the pass goes on
                traceback.print_exc()
                outcomes[job.name] = exc
        times[job.name] = time.perf_counter() - t0
        job_spans[job.name] = span
    result = PassResult(times=times, wall=time.perf_counter() - start)

    for job in jobs:
        out, ref = outcomes[job.name], reference[job.name]
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        elif job.call is not None:
            problems = job.check(out, ref)
        else:
            path = os.path.join(work, job.csv)
            problems = checks.check_cli(out, path, ref)
            if os.path.exists(path):
                if job_spans[job.name] is not None:
                    job_spans[job.name].attrs["csv_bytes"] = os.path.getsize(path)
                if not job.seeded and checks.sha256(path) != ref["sha256"]:
                    result.csv_changed += 1
        if problems:
            result.failures[job.name] = problems
            sys.stderr.write(f"check failed: {job.name}: {'; '.join(problems[:5])}\n")
    if tracer is not None:
        result.spans = tracer.spans
    return result


def traced_pass(jobs, work, seed, reference) -> tuple[PassResult, list[str]]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_pass(jobs, work, seed, reference, tracer)
    finally:
        tracer.uninstall()
    return result, tracer.missing


def run_seconds(passes: list[PassResult]) -> float:
    """Sum over jobs of the job's median wall time across passes."""
    return sum(statistics.median(p.times[name] for p in passes) for name in passes[0].times)


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def environment(root: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or commit
    keys = ("METABCRB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        **{k: os.environ.get(k) for k in keys},
    }


class Runner:
    def __init__(self, root: str, src: str, work: str, workload: str, seed: int, reference: dict):
        self.root, self.src, self.work, self.seed = root, src, work, seed
        self.reference = reference
        self.jobs = WORKLOADS[workload].jobs
        self.executed: list[PassResult] = []
        self.missing: list[str] = []
        write_configs(work)

    def run(self, tracer_pass=False) -> PassResult:
        if tracer_pass:
            result, self.missing = traced_pass(self.jobs, self.work, self.seed, self.reference)
        else:
            result = run_pass(self.jobs, self.work, self.seed, self.reference)
        self.executed.append(result)
        return result

    @property
    def attempted(self) -> int:
        return len(self.jobs) * len(self.executed)

    @property
    def failed(self) -> int:
        return sum(len(p.failures) for p in self.executed)

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics: untraced passes after one warm-up pass.

        Import probes are spread over the run, so that `setup_s` sees the
        same machine load as the passes.
        """
        setup = [import_seconds(self.root, self.src) for _ in range(SETUP_REPEATS)]
        self.run()  # warm-up: quadrature node caches, first-touch allocations
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(self.run())
            setup.append(import_seconds(self.root, self.src))
        run_s = run_seconds(passes)
        items = sum(job.items for job in self.jobs)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "items_per_s": items / run_s,
            "peak_rss_mb": peak_kib * 1024 / 1e6,
            "pass_frac": 1.0 - self.failed / self.attempted,
        }
        samples = {"setup_s": len(setup), "run_s": len(passes), "items_per_s": len(passes),
                   "peak_rss_mb": 1, "pass_frac": self.attempted}
        jobs = {name: sorted(p.times[name] for p in passes) for name in passes[0].times}
        return {"values": values, "samples": samples, "items": items, "jobs": jobs}

    def measure_layers(self, seconds: float) -> dict:
        """Per-layer metrics: traced passes alternating with untraced ones."""
        scipy_s = statistics.median(scipy_integrate_import_seconds(self.root, self.src)
                                    for _ in range(IMPORTTIME_REPEATS))
        self.run()  # warm-up
        traced, plain = [], []
        deadline = time.perf_counter() + seconds
        while not (traced and plain) or time.perf_counter() < deadline:
            if len(traced) <= len(plain):
                traced.append(self.run(tracer_pass=True))
            else:
                plain.append(self.run())
        per_pass = [spans.layer_metrics(p.spans, p.wall) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["cli.csv_bytes_changed"] = statistics.median(p.csv_changed for p in traced)
        values["setup.scipy_integrate_s"] = scipy_s
        values["trace.overhead_s"] = run_seconds(traced) - run_seconds(plain)
        return {"values": values, "traced": len(traced), "plain": len(plain),
                "missing": self.missing, "spans": [spans.records(p.spans) for p in traced]}
