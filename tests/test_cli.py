import csv
import dataclasses
import json

import numpy as np
import pytest

import fracra.aaa as aaa
import fracra.cli as cli
import fracra.experiments as experiments
from fracra.aaa import PoleExtractionError
from fracra.cli import main
from fracra.functions import FractionalSumFunction
from fracra.pencil import (assemble_interface, assemble_interval, assemble_unit_square,
                           load_pencil)

FIT_ARGS = ["fit", "--alpha", "1", "--beta", "1", "--s", "-0.5", "--t", "0.5",
            "--tol", "1e-12"]
SOLVE_ARGS = ["solve-interface", "--mu", "1", "--K", "1", "--cells", "64",
              "--tol-ra", "1e-12", "--tol-krylov", "1e-10"]
NUMERICAL_FAILURES = [PoleExtractionError("no finite value at infinity"),
                      np.linalg.LinAlgError("SVD did not converge")]


def test_fit_degenerate_case(tmp_path, capsys):
    out = tmp_path / "pf.json"
    code = main(["fit", "--alpha", "1", "--beta", "1", "--s", "1", "--t", "1",
                 "--tol", "1e-12", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "poles N=1" in text
    data = json.loads(out.read_text())
    assert data["schema"].startswith("fracra.partial_fraction/")
    assert len(data["poles"]) == 1
    assert abs(data["poles"][0][0]) <= 1e-10
    assert data["residues"][0][0] == pytest.approx(0.5, abs=1e-10)


def test_fit_constant(capsys):
    code = main(["fit", "--alpha", "1", "--beta", "0", "--s", "0", "--t", "0",
                 "--tol", "1e-12"])
    assert code == 0
    assert "poles N=0" in capsys.readouterr().out


def test_fit_missing_tol_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["fit", "--alpha", "1", "--beta", "1", "--s", "1", "--t", "1"])
    assert info.value.code == 2


def test_fit_invalid_exponent_exits_2(capsys):
    code = main(["fit", "--alpha", "1", "--beta", "0", "--s", "2", "--t", "0",
                 "--tol", "1e-12"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fit_nonconvergence_exits_3(capsys):
    code = main(["fit", "--alpha", "1", "--beta", "1", "--s", "-0.5", "--t", "0.5",
                 "--tol", "1e-12", "--max-degree", "2"])
    assert code == 3
    assert "did not reach tolerance" in capsys.readouterr().err


def test_fit_gates_on_the_written_form(tmp_path, capsys):
    # The barycentric fit meets 1e-12, but its pole/residue form is off by
    # ~6e-6: the form is what --out writes, so the fit fails and the file
    # carries the same verdict.
    out = tmp_path / "pf.json"
    code = main(["fit", "--alpha", "1e-6", "--beta", "1e-10", "--s", "-1",
                 "--t", "-0.8", "--tol", "1e-12", "--out", str(out)])
    assert code == 3
    assert "did not reach tolerance" in capsys.readouterr().err
    data = json.loads(out.read_text())
    assert data["fit_error"] <= 1e-12 < data["validation_error"]
    assert data["converged"] is False


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("args, flag", [
    (FIT_ARGS, "--tol"), (SOLVE_ARGS, "--tol-ra"), (SOLVE_ARGS, "--tol-krylov"),
], ids=["fit", "solve-tol-ra", "solve-tol-krylov"])
def test_tolerance_not_positive_and_finite_exits_2(capsys, args, flag, value):
    args = list(args)
    args[args.index(flag) + 1] = value
    assert main(args) == 2
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("failure", NUMERICAL_FAILURES, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("args, module, name", [
    (FIT_ARGS, cli, "fit_fractional_sum"),
    (SOLVE_ARGS, experiments, "fit_for_pencil"),
], ids=["fit", "solve-interface"])
def test_numerical_failure_exits_3(monkeypatch, capsys, failure, args, module, name):
    # LinAlgError is a ValueError, which would otherwise exit 2 as bad input.
    def fail(*_args, **_kwargs):
        raise failure

    monkeypatch.setattr(module, name, fail)
    assert main(args) == 3
    assert str(failure) in capsys.readouterr().err


def test_failed_residue_solve_raises_and_exits_3(monkeypatch, capsys):
    def failed_dormqr(*_args, **_kwargs):
        return None, None, -1

    monkeypatch.setattr(aaa, "dormqr", failed_dormqr)
    with pytest.raises(PoleExtractionError, match="dormqr info -1"):
        aaa.fit_fractional_sum(FractionalSumFunction(1.0, 1.0, -0.5, 0.5, 1.0), 1e-12)
    assert main(FIT_ARGS) == 3
    assert "dormqr info -1" in capsys.readouterr().err


def test_solve_interface(tmp_path, capsys):
    out = tmp_path / "report.json"
    args = ["solve-interface", "--mu", "1", "--K", "1", "--cells", "64",
            "--tol-ra", "1e-12", "--tol-krylov", "1e-10", "--out", str(out)]
    code = main(args)
    assert code == 0
    first = capsys.readouterr().out
    assert "iterations=" in first
    # the form's errors show on the solve path, as they do for a fit
    assert "achieved_error=" in first and "pf_validation_error=" in first
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert data["iterations"] <= 40
    assert all(np.isfinite(data[key]) for key in ("fit_error", "validation_error"))

    # identical flags give identical counts (timing lines excluded)
    code = main(args)
    assert code == 0
    second = capsys.readouterr().out
    assert first.splitlines()[0] == second.splitlines()[0]


def test_solve_interface_beyond_dense_size(capsys):
    code = main(["solve-interface", "--mu", "1", "--K", "1", "--cells", "4096",
                 "--tol-ra", "1e-12", "--tol-krylov", "1e-10"])
    assert code == 0
    assert "converged=True" in capsys.readouterr().out


def test_solve_interface_small_mesh_exits_2(capsys):
    code = main(["solve-interface", "--mu", "1", "--K", "1", "--cells", "2",
                 "--tol-ra", "1e-12", "--tol-krylov", "1e-10"])
    assert code == 2


def test_sweep_poles_csv(tmp_path, capsys):
    out = tmp_path / "poles.csv"
    code = main(["sweep", "poles", "--tol", "1e-10",
                 "--exponents", "0,1", "--alphas", "1", "--betas", "1,0.01",
                 "--out", str(out), "--summary", str(tmp_path / "s.json")])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 2 * 2 * 1 * 2
    assert "max_poles" in capsys.readouterr().out
    assert json.loads((tmp_path / "s.json").read_text())["kind"] == "poles"


def test_sweep_list_starting_with_a_negative_value(tmp_path):
    # A comma list whose first value is negative is a value, not an option,
    # with or without "=".
    for exponents in (["--exponents", "-0.5,0.5"], ["--exponents=-0.5,0.5"]):
        out = tmp_path / "poles.csv"
        code = main(["sweep", "poles", "--tol", "1e-10", *exponents,
                     "--alphas", "1", "--betas", "1", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["s"], r["t"]) for r in rows] == [
            ("-0.5", "-0.5"), ("-0.5", "0.5"), ("0.5", "-0.5"), ("0.5", "0.5")]


def test_sweep_robustness_csv(tmp_path, capsys):
    out = tmp_path / "rob.csv"
    code = main(["sweep", "robustness", "--mus", "1", "--Ks", "1e-6",
                 "--meshes", "32,64", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:2] == ["mu", "K"]
    assert len(rows) == 3
    assert "max_iterations_minres" in capsys.readouterr().out


def test_sweep_unconverged_point_exits_3(tmp_path, monkeypatch, capsys):
    real_minres = experiments.minres

    def unconverged_minres(*args, **kwargs):
        x, report = real_minres(*args, **kwargs)
        return x, dataclasses.replace(report, converged=False)

    monkeypatch.setattr(experiments, "minres", unconverged_minres)
    code = main(["sweep", "robustness", "--mus", "1", "--Ks", "1e-6",
                 "--meshes", "32", "--out", str(tmp_path / "rob.csv")])
    assert code == 3
    captured = capsys.readouterr()
    assert "0 failures" in captured.out
    assert "1 points did not converge" in captured.err


def test_sweep_complexity_csv(tmp_path):
    out = tmp_path / "cx.csv"
    code = main(["sweep", "complexity", "--meshes", "32,64", "--tols", "1e-8",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 3


@pytest.mark.parametrize("args", [
    ["poles", "--tol", "nan", "--exponents", "0,1", "--alphas", "1", "--betas", "1"],
    ["robustness", "--tol-krylov", "nan", "--mus", "1", "--Ks", "1", "--meshes", "16"],
    ["complexity", "--tols", "nan", "--meshes", "16"],
], ids=["poles-tol", "robustness-tol-krylov", "complexity-tols"])
def test_sweep_invalid_tolerance_exits_2_without_csv(tmp_path, capsys, args):
    # The tolerances are checked before the grid, so no point is run and no
    # row is written.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *args, "--out", str(out)]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["poles", "--exponents", "3", "--alphas", "1", "--betas", "1"],
     "exponents s, t must lie in"),
    (["poles", "--exponents", "0", "--alphas=-1", "--betas", "1"],
     "weights alpha, beta must be nonnegative"),
    (["robustness", "--mus", "-1", "--Ks", "1", "--meshes", "16"],
     "mu and K must be positive and finite"),
    (["robustness", "--mus", "1", "--Ks", "0", "--meshes", "16"],
     "mu and K must be positive and finite"),
    (["poles", "--max-degree", "0", "--exponents", "0", "--alphas", "1", "--betas", "1"],
     "max_degree must be at least 1"),
    (["robustness", "--seed", "-1", "--mus", "1", "--Ks", "1", "--meshes", "16"],
     "expected non-negative integer"),
    (["complexity", "--seed", "-1", "--meshes", "16"], "expected non-negative integer"),
], ids=["poles-exponent", "poles-alpha", "robustness-mu", "robustness-K",
        "poles-max-degree", "robustness-seed", "complexity-seed"])
def test_sweep_invalid_grid_value_exits_2_without_csv(tmp_path, capsys, args, message):
    # The grids, the degree limit and the seed are checked before the grid
    # runs, as the tolerances are.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, assemble, n_c, dimension", [
    ("dirichlet", lambda n: assemble_interval(n, periodic=False), 15, 1),
    ("periodic", lambda n: assemble_interval(n, periodic=True), 16, 1),
    ("interface", assemble_interface, 16, 1),
    ("square", assemble_unit_square, 15 * 15, 2),
], ids=["dirichlet", "periodic", "interface", "square"])
def test_pencil_export(tmp_path, capsys, kind, assemble, n_c, dimension):
    prefix = tmp_path / "mesh"
    code = main(["pencil", "--kind", kind, "--cells", "16",
                 "--out-prefix", str(prefix)])
    assert code == 0
    assert (tmp_path / "mesh.A.mtx").exists()
    assert (tmp_path / "mesh.M.mtx").exists()
    rho = assemble(16).rho_bound
    assert f"(n_c={n_c}, rho_bound={rho:.6e})" in capsys.readouterr().out
    meta = json.loads((tmp_path / "mesh.json").read_text())
    assert meta["spatial_dimension"] == dimension
    assert meta["rho_bound"] == rho
    pencil = load_pencil(prefix)
    assert (pencil.n_c, pencil.spatial_dimension) == (n_c, dimension)
