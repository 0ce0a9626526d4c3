"""The benchmark's own tests.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py

The smoke runs make one full pass per workload (two for the traced one),
about a minute and a half in all.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import ladder
import run
import tracing
import workloads

FAST_RUNGS = ("CP1", "CP2", "CP3", "CP1xCP1", "CP2xCP1")
FAST_AINFTY = ("ainfty-check/lambda_x", "ainfty-check/dga3", "module/lambda_x/cap3",
               "bimodule-hom/lambda_x/cap3", "bimodule-diag/lambda_xy/cap2")


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def fast_jobs(workload, seed, tmp_path, input_seed=workloads.INPUT_SEED):
    fg, jobs = run.setup(workload, seed, str(tmp_path), input_seed)
    keep = [j for j in jobs
            if (j.rung is not None and j.rung.name in FAST_RUNGS) or j.id in FAST_AINFTY]
    return fg, keep


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 23))) == (54, 12)
    assert run.tail(list(range(1, 14))) == (100, 13)


@pytest.mark.parametrize("workload", ["toric-ladder", "real-locus", "ainfty-lab"])
def test_tracing_leaves_reports_byte_identical(workload, tmp_path):
    fg, jobs = fast_jobs(workload, 5, tmp_path)
    table = workloads.load_invariants()
    _, _, failures, plain = run.run_pass(jobs, fg, table)
    assert failures == {}
    originals = {m: dict(vars(getattr(fg, m))) for m in run.FLOERGEN_MODULES}
    tracer = tracing.Tracer()
    tracer.install(vars(fg))
    try:
        _, _, failures, traced = run.run_pass(jobs, fg, table, tracer)
    finally:
        tracer.uninstall()
    assert failures == {}
    assert traced == plain
    assert {m: dict(vars(getattr(fg, m))) for m in run.FLOERGEN_MODULES} == originals
    own = tracer.self_times()
    assert min(own) >= 0
    assert tracer.root_mismatch(own) < 1e-9
    roots = [s for s in tracer.spans if s[0] < 0]
    assert len(roots) == len(jobs) and all(s[2] == tracing.ROOT_SPAN for s in roots)
    layers = tracer.layer_metrics()
    if workload == "ainfty-lab":
        assert layers["ainfty.hochschild_diff.calls"][0] > 0
        assert layers["grobner.buchberger.calls"][0] == 0
    else:
        assert layers["grobner.buchberger.calls"][0] > 0
        assert layers["grobner.reduction_steps"][0] > 0
        assert layers["scalar.zero_one.calls"][0] > 0


def test_injected_wrong_fact_fails_the_job(tmp_path):
    fg, jobs = fast_jobs("toric-ladder", 2, tmp_path)
    table = workloads.load_invariants()
    victim = jobs[0]
    wrong = json.loads(json.dumps(table))
    wrong[victim.id]["minimal_chern"] += 1
    _, _, failures, _ = run.run_pass(jobs, fg, wrong)
    assert list(failures) == [victim.id]
    bad_rung = dataclasses.replace(victim.rung, vertices=victim.rung.vertices + 1)
    lying = [dataclasses.replace(victim, rung=bad_rung)] + jobs[1:]
    _, _, failures, _ = run.run_pass(lying, fg, table)
    assert list(failures) == [victim.id]


def test_wrong_exit_code_fails_the_job(tmp_path):
    fg, jobs = fast_jobs("real-locus", 2, tmp_path)
    broken = dataclasses.replace(jobs[0], argv=jobs[0].argv + ("--budget", "1"))
    _, _, failures, _ = run.run_pass([broken], fg, workloads.load_invariants())
    assert failures == {broken.id: ["exit code 2"]}


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_generated_rungs_are_delzant_and_monotone(seed):
    fg = run.load_floergen()
    for name in ladder.LADDER:
        rung = ladder.reparametrise(name, seed)
        ladder.check_rung(rung, fg.toric)
        assert rung == ladder.reparametrise(name, seed)


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_reparametrisation_keeps_recorded_invariants(seed, tmp_path):
    table = workloads.load_invariants()
    for workload in ("toric-ladder", "real-locus"):
        fg, jobs = fast_jobs(workload, seed, tmp_path / workload, input_seed=seed)
        _, _, failures, _ = run.run_pass(jobs, fg, table)
        assert failures == {}


def test_reparametrisation_moves_the_input():
    assert {ladder.reparametrise("dP6", s).normals for s in range(8)} != \
        {ladder.reparametrise("dP6", 0).normals}


@pytest.mark.parametrize("workload", ["toric-ladder", "real-locus", "ainfty-lab"])
def test_smoke_run(workload):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared_metrics("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ainfty-lab", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] == 26
    metrics = result["metrics"]
    assert set(metrics) == set(run.declared_metrics("per_layer"))
    assert metrics["ainfty.premorphism_diff.calls"]["value"] > 0
    assert os.path.isfile(os.path.join(run.ROOT, ".bench_out", "ainfty-lab-s3", "spans.tsv.gz"))


def test_refuses_to_run_without_floergen(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toric-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
