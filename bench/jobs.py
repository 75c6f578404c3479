"""The benchmark's workloads: seeded inputs, the CLI commands of one job,
and the checks of a job's reports.

Each workload generates a pool of inputs from the workload seed; job j runs
input j mod pool size. Input and intermediate files are written to the
current directory, which the runner sets to a scratch directory, and are
passed to the CLI by bare file name so that reports are byte-identical from
run to run. The checks do not reuse the code path that produced a report.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from sigtensor import cli, serialize
from sigtensor.linalg import matrix_rank
from sigtensor.ranks import rank_bound_formula
from sigtensor.signatures import Path, iterated_integral_entry, pwl_signature
from sigtensor.words import Word

FILE_FLAGS = ("--path", "--sig", "--logsig", "--tensor", "--witness")

Input = dict[str, Any]


class JobFailure(Exception):
    """A CLI command of a job exited with a non-zero code."""


class Client:
    """Runs CLI commands in-process, one at a time, capturing stdout.

    With a tracer attached, the bytes of the input files each command names
    and of the report it prints are counted, outside any span.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer

    def call(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse reports bad arguments this way
                code = exc.code
        report = out.getvalue()
        if self.tracer is not None:
            self.tracer.add("serialize.bytes_in", sum(os.path.getsize(v) for k, v in zip(argv, argv[1:]) if k in FILE_FLAGS))
            self.tracer.add("serialize.bytes_out", len(report.encode()))
        if code != 0:
            raise JobFailure(f"{argv[0]} exited with {code}: {err.getvalue().strip()}")
        return report


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    make_input: Callable[[random.Random, int], Input]
    run: Callable[[Input, Client], list[str]]
    check: Callable[[Input, list[dict], random.Random], list[str]]

    def make_inputs(self, seed: int) -> list[Input]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make_input(rng, i) for i in range(self.pool_size)]


def write_json(name: str, obj: Any) -> str:
    with open(name, "w") as fh:
        json.dump(obj, fh)
    return name


def path_json(increments: list[list[int]]) -> dict:
    return {"dim": len(increments[0]), "increments": [[str(x) for x in u] for u in increments]}


def random_increments(rng: random.Random, d: int, m: int) -> list[list[int]]:
    """m integer increments in [-3, 3]^d that span Q^d (m >= d)."""
    while True:
        incs = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
        if matrix_rank(incs) == d:
            return incs


def entry_offset(letters: tuple[int, ...], d: int) -> int:
    off = 0
    for letter in letters:
        off = off * d + letter - 1
    return off


# -- sig_log: signature, then log of it, then exp of that ---------------------

def sig_log_input(rng: random.Random, i: int) -> Input:
    incs = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(10)]
    return {"path": write_json(f"path{i:03d}.json", path_json(incs)), "increments": incs}


def sig_log_run(inp: Input, client: Client) -> list[str]:
    sig = client.call(["signature", "--path", inp["path"], "--level", "5"])
    sig_file = write_json("job-signature.json", json.loads(sig)["result"]["signature"])
    log = client.call(["log", "--sig", sig_file])
    log_file = write_json("job-logsig.json", json.loads(log)["result"]["log_signature"])
    exp = client.call(["exp", "--logsig", log_file])
    return [sig, log, exp]


def sig_log_check(inp: Input, reports: list[dict], rng: random.Random) -> list[str]:
    sig, _, exp = reports
    levels = sig["result"]["signature"]["levels"]
    problems = []
    if exp["result"]["signature"] != sig["result"]["signature"]:
        problems.append("exp(log(signature)) differs from the signature")
    path = Path.from_increments(inp["increments"])
    for _ in range(8):
        k = rng.randint(1, 5)
        letters = tuple(rng.randint(1, 3) for _ in range(k))
        got = Fraction(levels[k]["entries"][entry_offset(letters, 3)])
        if got != iterated_integral_entry(path, Word(letters)):
            problems.append(f"signature entry {letters} differs from the iterated integral")
    return problems


# -- rank_cert: decompose a level-5 signature tensor, then certify it --------

def rank_cert_input(rng: random.Random, i: int) -> Input:
    # independent increments make every term of the decomposition nonzero
    incs = [u + [rng.randint(-3, 3)] for u in random_increments(rng, 3, 3)]
    level5 = pwl_signature(Path.from_increments(incs), 5).level(5)
    return {
        "path": write_json(f"path{i:03d}.json", path_json(incs)),
        "tensor": write_json(f"tensor{i:03d}.json", serialize.tensor_to_json(level5)),
    }


def witness_json(decompose_report: str) -> dict:
    return json.loads(decompose_report)["result"]["decomposition"]


def rank_cert_run(inp: Input, client: Client) -> list[str]:
    dec = client.call(["decompose", "--path", inp["path"], "--level", "5"])
    witness_file = write_json("job-witness.json", witness_json(dec))
    cert = client.call(["certify", "--tensor", inp["tensor"], "--witness", witness_file])
    return [dec, cert]


def rank_cert_check(inp: Input, reports: list[dict], rng: random.Random) -> list[str]:
    dec, cert = reports
    problems = []
    if len(dec["result"]["decomposition"]["terms"]) != rank_bound_formula(5, 3):
        problems.append("witness length differs from rank_bound_formula(5, 3)")
    if cert["result"] != dec["certificates"]["rank"]:
        problems.append("certify and decompose disagree on lower, upper or status")
    return problems


# -- structure: conciseness and symmetry of large exact inputs ---------------

FAMILIES = ("generic", "confined", "collinear")
HYPERPLANE = {
    "ambient_dim": 5,
    "dim": 4,
    "basis": [[str(int(i == j)) for i in range(5)] for j in range(1, 5)],
}


def structure_input(rng: random.Random, i: int) -> Input:
    family = FAMILIES[i % 3]
    if family == "generic":
        incs = random_increments(rng, 5, 8)
    elif family == "confined":  # in {x_1 = 0}, spanning it
        incs = [[0] + u for u in random_increments(rng, 4, 8)]
    else:  # 8 increments along one line have the signature of their sum
        v = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(5)]
        total = sum(rng.randint(1, 3) for _ in range(8))
        incs = [[total * x for x in v]]
    sig = pwl_signature(Path.from_increments(incs), 5)
    return {
        "family": family,
        "sig": write_json(f"signature{i:03d}.json", serialize.signature_to_json(sig)),
        "tensor": write_json(f"tensor{i:03d}.json", serialize.tensor_to_json(sig.level(5))),
    }


def structure_run(inp: Input, client: Client) -> list[str]:
    return [client.call(["concise", "--sig", inp["sig"]]), client.call(["symmetry", "--tensor", inp["tensor"]])]


def structure_check(inp: Input, reports: list[dict], rng: random.Random) -> list[str]:
    concise, symmetry = reports[0]["result"], reports[1]["result"]
    family = inp["family"]
    if family == "generic" and concise["symmetrically_concise"] is not True:
        return ["a generic path is not reported symmetrically concise"]
    if family == "confined" and concise["recovered_subspace"] != HYPERPLANE:
        return ["a path in {x_1 = 0} does not recover span(e_2..e_5)"]
    if family == "collinear" and symmetry["is_symmetric"] is not True:
        return ["a collinear path's level 5 is not reported symmetric"]
    return []


# -- verify: the seeded property harness --------------------------------------

def verify_input(rng: random.Random, i: int) -> Input:
    return {"seed": rng.randrange(2**31)}


def verify_run(inp: Input, client: Client) -> list[str]:
    return [client.call(["verify", "--seed", str(inp["seed"]), "--size", "4"])]


def verify_check(inp: Input, reports: list[dict], rng: random.Random) -> list[str]:
    return [] if reports[0]["result"]["passed"] is True else ["verify did not report passed: true"]


# Pools are large enough that a run seldom repeats an input, so a run's
# median averages over many inputs rather than a few; structure's pool is
# smaller because its set-up computes a d=5 signature per input.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sig_log", 128, sig_log_input, sig_log_run, sig_log_check),
        Workload("rank_cert", 64, rank_cert_input, rank_cert_run, rank_cert_check),
        Workload("structure", 30, structure_input, structure_run, structure_check),
        Workload("verify", 96, verify_input, verify_run, verify_check),
    )
}
