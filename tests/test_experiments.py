import csv
import json

import numpy as np
import pytest

from fracra.experiments import (
    ROBUSTNESS_KS,
    ROBUSTNESS_MUS,
    FourierInterfaceSystem,
    build_interface_system_dense,
    complexity_study,
    interface_rhs,
    pole_sweep,
    robustness_sweep,
    solve_interface,
    summarize_records,
    write_sweep_csv,
    write_sweep_summary,
)
from fracra.pencil import (
    DenseCapExceededError,
    OperatorPencil,
    assemble_interface,
    assemble_interval,
    dense_fractional_apply,
)


def test_pole_sweep_enumerates_full_grid():
    exps = (-1.0, 0.0, 1.0)
    alphas = (1.0, 1e-3)
    betas = (1.0, 1e2)
    records = pole_sweep(tolerance=1e-10, exponents=exps, alphas=alphas, betas=betas)
    assert len(records) == len(exps) ** 2 * len(alphas) * len(betas)
    assert all(not r.failure for r in records)
    # special cells
    const = [r for r in records if r.s == 0.0 and r.t == 0.0]
    assert all(r.n_poles == 0 for r in const)
    lin = [r for r in records if r.s == 1.0 and r.t == 1.0 and r.alpha == r.beta == 1.0]
    assert lin[0].n_poles == 1
    # audit counts sum to the pole count
    for r in records:
        total = r.real_negative + r.real_zero + r.real_positive + r.complex_pair
        assert total == r.n_poles


def test_interface_rhs_orthogonal_and_deterministic():
    pencil = assemble_interface(64)
    g1 = interface_rhs(pencil, seed=3)
    g2 = interface_rhs(pencil, seed=3)
    assert np.array_equal(g1, g2)
    assert abs(g1.sum()) <= 1e-10 * np.linalg.norm(g1)
    g3 = interface_rhs(pencil, seed=4)
    assert not np.array_equal(g1, g3)


def test_dense_system_is_spd():
    pencil = assemble_interface(48)
    S = build_interface_system_dense(pencil, mu=1e-2, K=1e-4)
    assert np.allclose(S, S.T)
    assert np.linalg.eigvalsh(S)[0] > 0


@pytest.mark.parametrize("n", [64, 256])
def test_dense_system_is_the_fourier_system(n):
    # The dense S is the Fourier system written out, over the robustness grid:
    # a product with it agrees with the FFT apply to roundoff.
    pencil = assemble_interface(n)
    x = np.random.default_rng(1).standard_normal(n)
    for mu in ROBUSTNESS_MUS:
        for K in ROBUSTNESS_KS:
            S = build_interface_system_dense(pencil, mu, K)
            assert np.array_equal(S, S.T)
            sx = S @ x
            fourier = FourierInterfaceSystem(pencil, mu, K).apply(x)
            assert np.linalg.norm(sx - fourier) <= 1e-13 * np.linalg.norm(sx)


def test_dense_system_cap_and_circulant_check():
    with pytest.raises(DenseCapExceededError, match="2001 unknowns, dense cap is 2000"):
        build_interface_system_dense(assemble_interface(2001), 1.0, 1.0)
    with pytest.raises(ValueError, match="not circulant"):
        build_interface_system_dense(assemble_interval(16), 1.0, 1.0)


def test_fourier_system_matches_dense():
    # Against the dense eigendecomposition oracle M U F(lam) U^T M x.
    for n_cells in (64, 1024):
        pencil = assemble_interface(n_cells)
        x = np.random.default_rng(0).standard_normal(n_cells)
        for mu, K in ((1e-2, 1e-6), (1.0, 1.0), (1e3, 1e-4)):
            a = dense_fractional_apply(
                pencil, lambda lam: (lam**-0.5 + K * lam**0.5) / mu, x)
            b = FourierInterfaceSystem(pencil, mu, K).apply(x)
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)


@pytest.mark.parametrize("mu,K", [(float("nan"), 1.0), (1.0, float("nan")),
                                  (float("inf"), 1.0), (1.0, float("inf"))])
def test_interface_system_rejects_non_finite_parameters(mu, K):
    pencil = assemble_interface(8)
    with pytest.raises(ValueError, match="positive and finite"):
        FourierInterfaceSystem(pencil, mu, K)
    with pytest.raises(ValueError, match="positive and finite"):
        build_interface_system_dense(pencil, mu, K)


def test_fourier_system_maps_cosine_modes():
    # Beyond the dense cap: each cosine mode is an eigenvector of the pencil,
    # with eigenvalues a, m read off the sparse matrices themselves.  The
    # bound is 1e-9: an rfft of the stencil is off by ~4e-9 on the lowest
    # modes here.  The constant mode is left out: its row sum c0 + c1 + c1
    # rounds (2/h against -1/h twice), so A @ ones is off by ~5e-7 itself.
    n = 65536
    pencil = assemble_interface(n)
    mu, K = 1e-2, 1e-6
    system = FourierInterfaceSystem(pencil, mu, K)
    for k in (1, 2, 3, 10, 1000, n // 4, n // 2 - 1, n // 2):
        x = np.cos(2.0 * np.pi * k * np.arange(n) / n)
        a = x @ (pencil.A @ x) / (x @ x)
        m = x @ (pencil.M @ x) / (x @ x)
        lam = a / m
        expected = m * (lam**-0.5 + K * lam**0.5) / mu * x
        err = np.linalg.norm(system.apply(x) - expected)
        assert err <= 1e-9 * np.linalg.norm(expected), k


def test_fourier_system_rejects_non_circulant_pencil():
    with pytest.raises(ValueError, match="circulant"):
        FourierInterfaceSystem(assemble_interval(64), 1.0, 1.0)
    # One coupling of a ring changed (same pattern) or removed (one fewer).
    ring = assemble_interface(64)
    for factor in (1.01, 0.0):
        A = ring.A.tolil()
        A[3, 4] = A[4, 3] = factor * A[3, 4]
        with pytest.raises(ValueError, match="circulant"):
            FourierInterfaceSystem(OperatorPencil(A, ring.M, 1), 1.0, 1.0)


def test_solve_interface_converges_quickly():
    pencil = assemble_interface(128)
    _, report, pf, setup = solve_interface(pencil, 1.0, 1.0, tol_ra=1e-12,
                                           tol_krylov=1e-10)
    assert report.converged
    assert report.iterations <= 40
    assert setup > 0
    assert pf.degree >= 1
    # determinism of the full path
    _, report2, _, _ = solve_interface(pencil, 1.0, 1.0, tol_ra=1e-12,
                                       tol_krylov=1e-10)
    assert report2.iterations == report.iterations


def test_solve_interface_validates(monkeypatch):
    pencil = assemble_interface(32)
    with pytest.raises(ValueError):
        solve_interface(pencil, 1.0, 1.0, tol_ra=1e-10, method="bogus")

    # An invalid mu is rejected before any fit runs.
    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran")

    monkeypatch.setattr("fracra.experiments.fit_for_pencil", no_fit)
    with pytest.raises(ValueError, match="positive"):
        solve_interface(pencil, 0.0, 1.0, tol_ra=1e-10)


def test_robustness_sweep_small_grid():
    records = robustness_sweep(mu_grid=(1.0, 1e-2), K_grid=(1.0, 1e-6),
                               mesh_grid=(32, 64), tolerance=1e-12)
    assert len(records) == 8
    assert all(not r.failure for r in records)
    assert all(r.converged for r in records)
    assert all(r.iterations_minres <= 40 for r in records)
    assert all(r.min_rayleigh > 0 for r in records)
    # mesh independence of the counts at fixed parameters
    for mu in (1.0, 1e-2):
        for K in (1.0, 1e-6):
            counts = [r.iterations_minres for r in records if r.mu == mu and r.K == K]
            assert max(counts) - min(counts) <= 5
    # grid order: mu-major, then K, then mesh
    assert [r.n_cells for r in records[:2]] == [32, 64]


def test_complexity_study_records():
    # Best of 3: a single wall-clock sample of the setup time is at the mercy
    # of machine load.
    records = complexity_study(mesh_grid=(32, 64, 128), tolerance_grid=(1e-8,),
                               repeats=3)
    assert len(records) == 3
    assert all(not r.failure for r in records)
    assert all(r.setup_seconds < 0.1 for r in records)
    assert all(r.solve_seconds > 0 for r in records)
    assert all(r.converged for r in records)


def test_csv_and_summary_round_trip(tmp_path):
    records = pole_sweep(tolerance=1e-10, exponents=(0.0, 1.0),
                         alphas=(1.0,), betas=(1.0,))
    path = tmp_path / "poles.csv"
    write_sweep_csv(records, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:4] == ["s", "t", "alpha", "beta"]
    assert len(rows) == len(records) + 1

    summary_path = tmp_path / "summary.json"
    payload = write_sweep_summary(records, summary_path, grids={"exponents": [0.0, 1.0]},
                                  seed=None)
    data = json.loads(summary_path.read_text())
    assert data == payload
    assert data["schema"].startswith("fracra.sweep_summary/")
    assert data["summary"]["n_records"] == len(records)
    assert "numpy" in data["environment"]

    stats = summarize_records(records)
    assert stats["n_failures"] == 0
    assert stats["max_poles"] >= 1


def test_iterations_insensitive_to_fit_tolerance():
    # For unit permeability the solver counts stay small for any fit
    # tolerance of 1e-1 or tighter.
    pencil = assemble_interface(64)
    counts = []
    for tol_ra in (1e-1, 1e-4, 1e-12):
        _, report, pf, _ = solve_interface(pencil, 1.0, 1.0, tol_ra=tol_ra,
                                           tol_krylov=1e-10)
        assert report.converged
        counts.append(report.iterations)
    assert max(counts) <= 10
    assert max(counts) - min(counts) <= 5
    # and the loose fit for K=1 still needs at least five poles
    _, _, pf, _ = solve_interface(pencil, 1.0, 1.0, tol_ra=1e-1)
    assert pf.degree >= 5


def test_loose_and_tight_fits_agree_for_unit_permeability():
    recs_tight = robustness_sweep(mu_grid=(1e-2,), K_grid=(1.0,),
                                  mesh_grid=(64, 128), tolerance=1e-12)
    recs_loose = robustness_sweep(mu_grid=(1e-2,), K_grid=(1.0,),
                                  mesh_grid=(64, 128), tolerance=1e-4)
    for tight, loose in zip(recs_tight, recs_loose):
        assert loose.converged and tight.converged
        assert abs(loose.iterations_minres - tight.iterations_minres) <= \
            max(1, round(0.1 * tight.iterations_minres))


def test_csv_writer_validates(tmp_path):
    with pytest.raises(ValueError):
        write_sweep_csv([], tmp_path / "x.csv")
    a = pole_sweep(tolerance=1e-10, exponents=(0.0,), alphas=(1.0,), betas=(1.0,))
    b = complexity_study(mesh_grid=(32,), tolerance_grid=(1e-6,), repeats=1)
    with pytest.raises(ValueError):
        write_sweep_csv(a + b, tmp_path / "x.csv")
