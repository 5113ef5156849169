"""Tests of the benchmark itself: inputs, oracle, checks and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import run as bench_run
import spcdm
from spcdm import problem, sampling, smoothing, solver
from tracer import Tracer
from worker import repeat
from workloads import WORKLOADS, generate, svmlight_text, write_input

ROOT = Path(__file__).resolve().parents[2]

# small stand-ins with the real workloads' settings; n divides m * omega
SMALL = {
    "l1-l1reg-tau64": dict(m=30, n=50, omega=5, tau=4, max_epochs=40),
    "linf-tau1": dict(m=30, n=50, omega=5, max_epochs=40),
    "adaboost-svmlight-tau8": dict(m=40, n=20, omega=5, tau=3, max_epochs=40),
}


def small(name, **extra):
    return dataclasses.replace(WORKLOADS[name], **{**SMALL[name], **extra})


def raw_input(wl, inst, tmp_path):
    if wl.input_format == "svmlight":
        return str(write_input(wl, inst, tmp_path))
    return {"rows": inst.rows, "cols": inst.cols, "vals": inst.vals, "b": inst.b}


def solve_to_reached_target(wl, seed, tmp_path, epochs=5):
    """Run `epochs` epochs, then rerun with that last value as the target."""
    inst = generate(wl, seed)
    raw = raw_input(wl, inst, tmp_path)
    free = dataclasses.replace(wl, target=None, max_epochs=epochs)
    _, _, rep = repeat(free, seed, raw, 1)
    wl = dataclasses.replace(wl, target=rep.objective_trace[-1][1])
    _, _, rep = repeat(wl, seed, raw, 1)
    return wl, inst, rep


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    a, b, c = generate(wl, 7), generate(wl, 7), generate(wl, 8)
    for field in ("rows", "cols", "vals", "b"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.cols, c.cols)
    assert not np.array_equal(a.vals, c.vals)
    if wl.input_format == "svmlight":
        assert svmlight_text(a).encode() == svmlight_text(b).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_instance_has_the_stated_make_up(name):
    wl = WORKLOADS[name]
    inst = generate(wl, 3)
    cols = inst.cols.reshape(wl.m, wl.omega)
    assert np.all(np.diff(cols, axis=1) > 0)
    assert np.all(np.bincount(inst.cols, minlength=wl.n) == wl.m * wl.omega // wl.n)
    mags = np.abs(inst.vals)
    assert mags.min() >= 0.1 and mags.max() <= 1.0
    assert np.array_equal(np.round(mags * 1e6) / 1e6, mags)
    assert set(np.unique(inst.b)) == {-1.0, 1.0}


def test_svmlight_text_reads_back_as_the_generated_triplets(tmp_path):
    wl = small("adaboost-svmlight-tau8")
    inst = generate(wl, 2)
    pd = problem.load_svmlight(write_input(wl, inst, tmp_path), n_cols=wl.n)
    ref = problem.ProblemData.from_coo(wl.m, wl.n, inst.rows, inst.cols, inst.vals, inst.b)
    assert pd.same_as(ref)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_agrees_with_spcdm_evaluate(name):
    wl = small(name)
    rng = np.random.default_rng(11)
    for seed in range(3):
        inst = generate(wl, seed)
        A = oracle.matrix(inst.m, inst.n, inst.rows, inst.cols, inst.vals)
        pd = problem.ProblemData.from_coo(inst.m, inst.n, inst.rows, inst.cols, inst.vals, inst.b)
        loss = smoothing.make_loss(smoothing.prepare_problem(pd, wl.app), wl.app, wl.mu)
        x = rng.normal(scale=0.5, size=wl.n)
        o = oracle.evaluate(wl.app, A, inst.b, x, wl.mu)
        for ours, theirs in ((o.f_mu, smoothing.evaluate(loss, x)),
                             (o.f, smoothing.nonsmooth_value(loss, x))):
            assert abs(ours - theirs) <= 1e-12 * abs(theirs)
        assert o.D == pytest.approx(smoothing.loss_constants(wl.app, loss.pd)[1], rel=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_a_real_result_and_rejects_tampering(name, tmp_path):
    wl, inst, rep = solve_to_reached_target(small(name), 4, tmp_path)
    A = oracle.matrix(inst.m, inst.n, inst.rows, inst.cols, inst.vals)
    lp = oracle.l1_lp_optimum(A, inst.b, wl.lam) if wl.app == "l1" else None
    kw = dict(app=wl.app, A=A, b=inst.b, mu=wl.mu, lam=wl.lam, target=wl.target,
              final_x=rep.final_x, last_value=rep.objective_trace[-1][1],
              target_reached=rep.target_reached, lp_optimum=lp)
    assert rep.target_reached
    assert oracle.check_solution(**kw) == []

    x = rep.final_x.copy()
    x[int(np.argmax(np.abs(x)))] *= 1.001
    assert any("oracle F_mu" in p for p in oracle.check_solution(**{**kw, "final_x": x}))
    v = kw["last_value"]
    assert any("oracle F_mu" in p
               for p in oracle.check_solution(**{**kw, "last_value": v - 1e-6 * abs(v)}))
    assert any("above target" in p
               for p in oracle.check_solution(**{**kw, "target": v - 1e-3 * abs(v)}))
    assert oracle.check_solution(**{**kw, "target_reached": False})


def test_lp_optimum_bounds_the_unsmoothed_objective(tmp_path):
    wl, inst, rep = solve_to_reached_target(small("l1-l1reg-tau64"), 5, tmp_path)
    A = oracle.matrix(inst.m, inst.n, inst.rows, inst.cols, inst.vals)
    lp = oracle.l1_lp_optimum(A, inst.b, wl.lam)
    assert 0 < lp <= oracle.evaluate(wl.app, A, inst.b, rep.final_x, wl.mu, wl.lam).F
    # an LP optimum above the result's F must be reported
    assert any("LP optimum" in p for p in oracle.check_solution(
        app=wl.app, A=A, b=inst.b, mu=wl.mu, lam=wl.lam, target=wl.target,
        final_x=rep.final_x, last_value=rep.objective_trace[-1][1],
        target_reached=True, lp_optimum=10 * lp + 10))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_leaves_every_trace_bit_identical(name, tmp_path):
    wl = small(name, target=None, max_epochs=6)
    inst = generate(wl, 9)
    raw = raw_input(wl, inst, tmp_path)
    originals = (spcdm.solver.run, solver.draw, solver.prox_step, sampling.draw,
                 smoothing.SmoothState.apply_update, vars(problem.ProblemData)["from_coo"])
    _, _, plain = repeat(wl, 9, raw, 1)

    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced = repeat(wl, 9, raw, 1)
    finally:
        tracer.uninstall()

    assert traced.objective_trace == plain.objective_trace
    assert traced.final_x.tobytes() == plain.final_x.tobytes()
    assert traced.coordinate_updates == plain.coordinate_updates
    assert originals == (spcdm.solver.run, solver.draw, solver.prox_step, sampling.draw,
                         smoothing.SmoothState.apply_update,
                         vars(problem.ProblemData)["from_coo"])

    layers = tracer.layer_metrics(traced)
    updates = traced.coordinate_updates
    assert layers["sampling.draw_calls"] == updates // wl.tau
    assert layers["smoothing.partial_gradient_calls"] == updates
    assert layers["solver.prox_step_calls"] == updates
    assert layers["smoothing.apply_update_calls"] == updates
    assert layers["smoothing.nnz_touched"] == layers["smoothing.nonzero_steps"] * (
        wl.m * wl.omega // wl.n * (2 if wl.app == "linf" else 1))
    assert layers["smoothing.recompute_calls"] == sum(
        layers[f"smoothing.recompute_{k}"] for k in ("trace", "staleness", "accumulator"))
    # init, one per traced epoch, and the final one
    assert layers["smoothing.recompute_trace"] >= traced.epochs_run + 2
    assert layers["solver.run_self_s"] > 0 and layers["sampling.draw_s"] > 0
    assert (layers["problem.load_svmlight_s"] > 0) == (wl.input_format == "svmlight")
    shares = tracer.solve_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert tracer.self_times(within="no.such_span") == ({}, {})


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    names = list(Tracer().layer_metrics(SimpleNamespace(config={"beta_prime": 1.0})))
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == bench_run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linf-tau1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
