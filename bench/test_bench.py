"""Tests of the benchmark's own code: python -m pytest bench"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import jobs  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Pools of three inputs and two set-up measurements, to keep runs short."""
    for name, workload in list(jobs.WORKLOADS.items()):
        monkeypatch.setitem(jobs.WORKLOADS, name, dataclasses.replace(workload, pool_size=3))
    monkeypatch.setattr(run, "SETUP_RUNS", 2)


def printed_metrics(text: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in text.splitlines():
        m = re.match(r"  (\S+)\s+(\S+) (\S+)", line)
        if m and not m.group(1).endswith(":"):
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


def benchmark_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload, small, capsys):
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"]) == 0
    text = capsys.readouterr().out
    printed = printed_metrics(text)
    for name, unit in run.END_TO_END + [("fail_ratio", "1")]:
        assert printed[name][1] == unit
    assert printed["fail_ratio"][0] == 0
    result = json.loads(text.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_prints_every_layer_metric(small, capsys):
    assert run.main(["--workload", "rank_cert", "--seed", "0", "--seconds", "2", "--trace", "1"]) == 0
    text = capsys.readouterr().out
    result = json.loads(text.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(tracing.LAYER_METRICS)
    assert result["metrics"]["ranks.realize_calls"]["value"] == 3
    assert result["metrics"]["linalg.span_s"]["value"] == 0


def test_benchmark_json_names_the_printed_metrics():
    spec = benchmark_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(jobs.WORKLOADS)


def test_doctored_digest_counts_as_failed_job(small, monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda: [(0.1, 0.05)])
    monkeypatch.setattr(run, "load_golden", lambda name, seed: [["0" * 64] * 3, None, None])
    result = run.run_workload("sig_log", 0, 0.5, trace=False)
    failed_inputs = {job.input for job in result["failed"]}
    assert failed_inputs == {0}
    assert all("golden digest" in job.error for job in result["failed"])


def test_doctored_witness_counts_as_failed_job(small, monkeypatch):
    def doctored(report):
        witness = json.loads(report)["result"]["decomposition"]
        witness["terms"][0]["coeff"] = "12345"
        return witness

    monkeypatch.setattr(run, "measure_setup", lambda: [(0.1, 0.05)])
    monkeypatch.setattr(jobs, "witness_json", doctored)
    result = run.run_workload("rank_cert", 0, 0.5, trace=False)
    assert result["failed"] and len(result["failed"]) == len(result["jobs"])
    assert all("certify exited with 4" in job.error for job in result["failed"])


def test_tracer_restores_every_traced_function():
    import sigtensor.cli
    import sigtensor.linalg

    before = (sigtensor.cli.main, sigtensor.cli.dump_json, sigtensor.linalg.Subspace.__dict__["span"])
    tracer = tracing.Tracer()
    tracer.install()
    assert sigtensor.cli.main is not before[0]
    tracer.uninstall()
    assert (sigtensor.cli.main, sigtensor.cli.dump_json, sigtensor.linalg.Subspace.__dict__["span"]) == before


def test_tail_keeps_ten_jobs_beyond_it():
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
