"""Benchmark of the sigtensor command line, one workload per run.

    python3 bench/run.py --workload sig_log --seed 1 --seconds 20 --trace 0

Run from the root of a sigtensor checkout; the package is imported from its
src/ directory. One client runs jobs back to back in one thread (a closed
loop). A job is a fixed sequence of CLI commands, called in-process through
sigtensor.cli.main with stdout captured, on inputs generated from --seed in
a scratch directory under .bench_work/. Each job is checked right after its
timed span: exit codes, a mathematical check per workload and, for the
default seed, the golden digest of every report.

--trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and
then a traced phase and reports the per-layer metrics, writing the spans to
.bench_out/. The last line of stdout is one JSON object. --write-golden
records the report digests of the default seed in golden.json.

Machine speed on a shared host drifts by tens of percent within a minute.
Between jobs a fixed Fraction loop that does not touch sigtensor is timed;
each job's time is scaled by CALIBRATION_REF_S over the mean of the loop
times just before and just after it, so that it reads as seconds at one
reference speed. Interpreter start-up does not track that loop, so each
set-up time is scaled instead by BASELINE_REF_S over the time of a baseline
interpreter started just after it. Raw times are printed next to the
scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
WARMUP_JOBS = 2
SETUP_RUNS = 9
MAX_TRACED_JOBS = 40
CALIBRATION_STEPS = 2400
CALIBRATION_REF_S = 0.02
# Children print their time since the parent spawned them; perf_counter is
# CLOCK_MONOTONIC, one clock for all processes on Linux.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import sigtensor.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - float(sys.argv[2]))"
)
BASELINE_CODE = (
    "import sys, time, argparse, csv, dataclasses, fractions, json; "
    "print(time.perf_counter() - float(sys.argv[2]))"
)
BASELINE_REF_S = 0.05

END_TO_END = [
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def calibrate() -> float:
    """Wall time of a fixed exact-arithmetic loop that does not use sigtensor."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, CALIBRATION_STEPS):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return perf_counter() - start


@dataclass
class Job:
    index: int
    input: int
    seconds: float = 0.0
    scale: float = 1.0
    digests: list[str] | None = None
    error: str | None = None

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


class Runner:
    """Runs the jobs of one workload in order and checks each one after its
    timed span, so that only digests are kept.

    Every job on an input must print the same bytes as the first job on it
    and, where golden digests are given, the golden bytes.
    """

    def __init__(self, workload, seed: int, golden: list[list[str] | None] | None = None):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.inputs = workload.make_inputs(seed)
        self.jobs: list[Job] = []
        self.first_digests: dict[int, list[str]] = {}
        self.calibration = calibrate()

    def run_job(self, client) -> Job:
        k = len(self.jobs) % len(self.inputs)
        job = Job(len(self.jobs), k)
        tracer = client.tracer
        try:
            if tracer is not None:
                tracer.job = job.index
            start = perf_counter()
            try:
                reports = self.workload.run(self.inputs[k], client)
            finally:
                job.seconds = perf_counter() - start
                if tracer is not None:
                    tracer.job = None
                before, self.calibration = self.calibration, calibrate()
                job.scale = 2 * CALIBRATION_REF_S / (before + self.calibration)
            job.digests = [digest(r) for r in reports]
            job.error = self.check(job, reports)
        except Exception:  # a failing job is recorded and the run goes on
            job.error = traceback.format_exc(limit=-3).strip()
        self.jobs.append(job)
        return job

    def run_phase(self, client, seconds: float, max_jobs: int | None = None) -> list[Job]:
        done = []
        end = perf_counter() + seconds
        while perf_counter() < end and (max_jobs is None or len(done) < max_jobs):
            done.append(self.run_job(client))
        return done

    def check(self, job: Job, reports: list[str]) -> str | None:
        problems = []
        if job.digests != self.first_digests.setdefault(job.input, job.digests):
            problems.append("reports differ from an earlier job on the same input")
        expected = self.golden[job.input] if self.golden is not None else None
        if expected is not None and job.digests != expected:
            problems.append("report digest differs from the golden digest")
        rng = random.Random(f"check:{self.seed}:{job.index}")
        problems += self.workload.check(self.inputs[job.input], [json.loads(r) for r in reports], rng)
        return "; ".join(problems) or None


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with at least 10 jobs
    beyond it; the maximum when there are 10 jobs or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup() -> list[tuple[float, float]]:
    """Pairs of wall times from spawning a fresh interpreter until it has
    imported sigtensor.cli and built its parser, and until a baseline
    interpreter has imported the standard modules the CLI uses. The children
    read the times, so that their exit is not counted. They run one at a
    time, after one unmeasured run that warms the caches."""
    def wall(code: str) -> float:
        command = [sys.executable, "-c", code, str(SRC), repr(perf_counter())]
        return float(subprocess.run(command, check=True, timeout=120, capture_output=True, text=True).stdout)

    wall(SETUP_CODE)
    return [(wall(SETUP_CODE), wall(BASELINE_CODE)) for _ in range(SETUP_RUNS)]


def load_golden(workload: str, seed: int) -> list[list[str]] | None:
    if seed != DEFAULT_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text())["workloads"].get(workload)


def end_to_end(timed: list[Job], setup: list[tuple[float, float]]) -> tuple[dict[str, float], list[str]]:
    scaled = [job.scaled for job in timed]
    raw = [job.seconds for job in timed]
    tail_value, tail_pct = tail(scaled)
    metrics = {
        "job_p50_s": statistics.median(scaled),
        "job_tail_s": tail_value,
        "jobs_per_s": len(timed) / sum(scaled),
        "setup_s": statistics.median(BASELINE_REF_S * full / base for full, base in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"job_p50_s: median of n={len(timed)} jobs; raw {statistics.median(raw):.4f} s",
        f"job_tail_s: p{tail_pct:.1f} of n={len(timed)} jobs; raw {tail(raw)[0]:.4f} s",
        f"jobs_per_s: {len(timed)} jobs over {sum(scaled):.2f} s of job time; raw {len(timed) / sum(raw):.4f} 1/s",
        f"setup_s: median of {len(setup)} fresh interpreters; raw {statistics.median(full for full, _ in setup):.4f} s",
        "peak_rss_mb: ru_maxrss of this process",
    ]
    return metrics, notes


@contextmanager
def scratch_dir(name: str):
    """Work in a fresh directory under .bench_work/, removed afterwards."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{name}-", dir=work)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)
        shutil.rmtree(path)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import jobs  # these import sigtensor, so only after main() has found it
    import tracing

    workload = jobs.WORKLOADS[name]
    setup = [] if trace else measure_setup()
    with scratch_dir(name):
        runner = Runner(workload, seed, load_golden(name, seed))
        client = jobs.Client()
        for _ in range(WARMUP_JOBS):
            runner.run_job(client)
        if trace:
            untraced = runner.run_phase(client, seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.run_phase(jobs.Client(tracer), seconds / 2, MAX_TRACED_JOBS)
            finally:
                tracer.uninstall()
        else:
            timed = runner.run_phase(client, seconds)
    if trace:
        ratio = statistics.median(j.scaled for j in traced) / statistics.median(j.scaled for j in untraced)
        metrics = tracer.layer_metrics({j.index: j.scale for j in traced}, ratio)
        units = dict(tracing.LAYER_METRICS)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_file)
        notes = [f"{len(traced)} traced and {len(untraced)} untraced jobs; spans in {spans_file.relative_to(ROOT)}"]
    else:
        metrics, notes = end_to_end(timed, setup)
        units = dict(END_TO_END)
    failed = [job for job in runner.jobs if job.error is not None]
    return {
        "jobs": runner.jobs,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "notes": notes,
    }


def write_golden() -> int:
    """Run every input of the default seed once and record its digests;
    an input whose job fails is recorded as null."""
    import jobs

    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in jobs.WORKLOADS.items():
        with scratch_dir(name):
            runner = Runner(workload, DEFAULT_SEED)
            for _ in runner.inputs:
                runner.run_job(jobs.Client())
        for job in runner.jobs:
            if job.error is not None:
                print(f"{name}: input {job.input} failed and gets no digest: {job.error.splitlines()[-1]}")
        golden["workloads"][name] = [job.digests if job.error is None else None for job in runner.jobs]
        print(f"{name}: {len(runner.jobs)} inputs")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("sig_log", "rank_cert", "structure", "verify"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sigtensor" / "cli.py").is_file():
        print(f"error: no sigtensor sources at {SRC}; run from a sigtensor checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = len(result["jobs"]), len(result["failed"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':32s} {failed / attempted:.6g} 1  ({failed} failed of {attempted} attempted)")
    for note in result["notes"]:
        print(f"  {note}")
    for job in result["failed"][:5]:
        print(f"  job {job.index} (input {job.input}) failed: {job.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
