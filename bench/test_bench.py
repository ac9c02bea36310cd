"""Tests of the benchmark itself: oracle, seeded inputs, checks and tracing.

Run with ``python -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracra
import run
import spans
import workloads
from oracle import PeriodicInterfaceSystem

ROOT = Path(__file__).resolve().parent.parent

SMALL_INPUTS = {
    "atlas": lambda: {"exponents": (-0.5, 0.0, 0.5), "alphas": (1.0, 1e-3),
                      "betas": (1e-2,)},
    "robustness": lambda: {"mus": (1e-2, 1.0), "ks": (1e-4, 1.0), "meshes": (16, 32),
                           "rhs_seed": 3},
    "interface_large": lambda: workloads.interface_inputs(5, 0, n_cells=512),
}


@pytest.mark.parametrize("mu,K", [(1.0, 1.0), (1e-4, 1e-6), (1e2, 0.5)])
def test_fft_oracle_matches_dense_system(mu, K):
    pencil = fracra.assemble_interface(256)
    dense = fracra.build_interface_system_dense(pencil, mu, K)
    system = PeriodicInterfaceSystem(256, mu, K)
    x = np.random.default_rng(0).standard_normal(256)
    sx = dense @ x
    assert np.linalg.norm(system.apply(x) - sx) <= 1e-10 * np.linalg.norm(sx)
    assert np.linalg.norm(system.solve(sx) - x) <= 1e-10 * np.linalg.norm(x)
    assert system.relative_residual(x, sx) <= 1e-10


@pytest.mark.parametrize("name", ["atlas", "robustness"])
def test_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name][0]
    assert make(3, 1) == make(3, 1)
    assert make(3, 1) != make(4, 1)
    assert make(3, 1) != make(3, 2)


def test_interface_inputs_follow_the_seed():
    a, b, c = (workloads.interface_inputs(seed, 1, n_cells=64) for seed in (3, 3, 4))
    assert (a["mu"], a["K"]) == (b["mu"], b["K"])
    assert all(np.array_equal(x, y) for x, y in zip(a["rhs"], b["rhs"]))
    assert (a["mu"], a["K"]) != (c["mu"], c["K"])
    assert not np.array_equal(a["rhs"][0], c["rhs"][0])


def test_seed_zero_starts_with_the_paper_grids():
    atlas = workloads.atlas_inputs(0, 0)
    assert atlas["alphas"] == fracra.experiments.POLE_SWEEP_ALPHAS
    assert atlas["betas"] == fracra.experiments.POLE_SWEEP_BETAS
    robustness = workloads.robustness_inputs(0, 0)
    assert robustness["mus"] == fracra.experiments.ROBUSTNESS_MUS
    assert robustness["ks"] == fracra.experiments.ROBUSTNESS_KS


@pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
def test_traced_pass_matches_untraced_pass(name):
    originals = [getattr(owner, attr) for owner, attr, _ in spans.TARGETS]
    inputs = SMALL_INPUTS[name]()
    pass_fn = workloads.WORKLOADS[name][1]
    plain, traced = spans.Recorder(spans=False), spans.Recorder(spans=True)
    spans.install_layer_hooks(traced)

    untraced = pass_fn(inputs, plain)
    with_trace = pass_fn(inputs, traced)

    assert untraced.outputs
    assert workloads.same_outputs(untraced.outputs, with_trace.outputs)
    assert untraced.failures == with_trace.failures
    assert untraced.consistent and with_trace.consistent
    assert traced.spans and not plain.spans
    metrics = spans.layer_metrics(traced, 1, 0.0, with_trace.rel_err)
    assert list(metrics) == list(spans.LAYER_METRICS)
    assert metrics["aaa.fit_calls"]["value"] > 0
    # Every wrapper is gone again.
    assert [getattr(owner, attr) for owner, attr, _ in spans.TARGETS] == originals


def test_self_time_excludes_children():
    tree = [["outer", 0.0, 10.0, -1, 0], ["inner", 1.0, 4.0, 0, 0], ["inner", 5.0, 6.0, 0, 0]]
    count, total, self_time = spans.span_times(tree)
    assert count["inner"] == 2
    assert total["outer"] == 10.0
    assert self_time["outer"] == 6.0


def _form(poles, residues):
    return fracra.PartialFraction(0.0, residues, poles, 1e-12, fit_error=1e-13,
                                  validation_error=1e-13)


def test_checks_flag_positive_poles():
    assert workloads.form_failures(_form([-1.0, 0.63], [1.0, 2.0])) == ["positive_pole"]
    pair = _form([0.5 + 1j, 0.5 - 1j], [1 + 1j, 1 - 1j])
    assert workloads.form_failures(pair) == ["positive_pole"]
    assert workloads.form_failures(_form([-1.0, -2.0 + 1j, -2.0 - 1j], [1.0, 1j, -1j])) == []


def test_positive_pole_fails_every_solve_of_its_setup(monkeypatch):
    inputs = workloads.interface_inputs(1, 0, n_cells=64)
    bad = _form([-50.0, 0.63], [1e-3, 1e-6])
    monkeypatch.setattr(fracra.aaa, "fit_for_pencil", lambda *args, **kwargs: bad)
    result = workloads.interface_pass(inputs, spans.Recorder(spans=False))
    assert len(result.failures) == workloads.RHS_PER_PAIR
    assert all("positive_pole" in kinds for kinds in result.failures)


def test_tolerance_miss_is_flagged_on_the_applied_form():
    form = _form([-1.0], [1.0])
    assert not workloads.misses_tolerance(form)
    form.validation_error = 1e-6
    assert workloads.misses_tolerance(form)


def test_later_rounds_must_repeat_the_first():
    def result(poles, kinds):
        r = workloads.PassResult(1.0, [0.1])
        r.outputs, r.failures = [(0.0, np.array(poles), np.array([1.0]))], [kinds]
        return r

    first = [result([-1.0], [])]
    assert run.repeated_exactly([first])
    assert run.repeated_exactly([first, [result([-1.0], [])]])
    assert not run.repeated_exactly([first, [result([-2.0], [])]])
    assert not run.repeated_exactly([first, [result([-1.0], ["not_converged"])]])


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == spans.LAYER_METRICS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "atlas", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
