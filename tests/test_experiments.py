import csv
import dataclasses
import itertools
import json

import numpy as np
import pytest

import fracra.aaa as aaa
import fracra.experiments as experiments
from fracra.cli import main
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
from fracra.operator import FactorizationError
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


def test_fourier_system_rejects_wrong_length():
    system = FourierInterfaceSystem(assemble_interface(65), 1.0, 1.0)
    with pytest.raises(ValueError, match="expected a vector of length 65"):
        system.apply(np.ones(64))


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


def test_sweep_solve_seconds_is_the_solve_report_time(monkeypatch):
    reports = []

    def recorded(solver):
        def run(*args, **kwargs):
            x, report = solver(*args, **kwargs)
            reports.append(report)
            return x, report
        return run

    for name in ("minres", "pcg"):
        monkeypatch.setattr(experiments, name, recorded(getattr(experiments, name)))
    (rec,) = robustness_sweep(mu_grid=(1.0,), K_grid=(1e-6,), mesh_grid=(32,))
    assert [r.method for r in reports] == ["minres", "pcg"]
    assert rec.solve_seconds == reports[0].wall_time
    reports.clear()
    (rec,) = complexity_study(mesh_grid=(32,), repeats=2)
    assert [r.method for r in reports] == ["minres", "minres"]
    assert rec.solve_seconds == min(r.wall_time for r in reports)


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
    # (1, 0, 1, 1) mirrors (0, 1, 1, 1) and reuses its fit.
    reused = rows[0].index("fit_reused")
    assert [row[reused] for row in rows[1:]] == ["false", "false", "true", "false"]

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


def fit_layer(monkeypatch):
    """Record the normalized samples of every fit a sweep point asks for, and
    of every aaa_fit call that runs."""
    seen = {"points": [], "fits": []}
    real_grid, real_fit = aaa.sample_grid, aaa.aaa_fit

    def grid(*args):
        xs, ys = real_grid(*args)
        seen["points"].append(xs.tobytes() + ys.tobytes())
        return xs, ys

    def fit(x, y, tolerance, max_degree):
        seen["fits"].append(x.tobytes() + y.tobytes())
        return real_fit(x, y, tolerance, max_degree)

    monkeypatch.setattr(aaa, "sample_grid", grid)
    monkeypatch.setattr(aaa, "aaa_fit", fit)
    return seen


def forms_of(monkeypatch, name):
    """The values returned by experiments.<name>, in call order."""
    forms = []
    real = getattr(experiments, name)

    def fit(*args, **kwargs):
        forms.append(real(*args, **kwargs))
        return forms[-1]

    monkeypatch.setattr(experiments, name, fit)
    return forms


def fits_run_per_call(monkeypatch, seen, name):
    """The number of aaa_fit calls that ran within each call of
    experiments.<name>, in call order."""
    counts = []
    real = getattr(experiments, name)

    def call(*args, **kwargs):
        before = len(seen["fits"])
        out = real(*args, **kwargs)
        counts.append(len(seen["fits"]) - before)
        return out

    monkeypatch.setattr(experiments, name, call)
    return counts


def without_timings(rec):
    fields = dataclasses.asdict(rec)
    for name in ("setup_seconds", "solve_seconds", "fit_reused"):
        del fields[name]
    return fields


def fit_fields(rec):
    """The record fields of a pole_sweep point that its fit decides."""
    fields = without_timings(rec)
    for name in ("s", "t", "alpha", "beta", "swapped"):
        del fields[name]
    return fields


def same_form(a, b):
    return (a.c0 == b.c0 and a.c1 == b.c1 and a.fit_error == b.fit_error
            and a.validation_error == b.validation_error
            and np.array_equal(a.poles, b.poles)
            and np.array_equal(a.residues, b.residues))


def test_robustness_sweep_fits_each_sample_set_once(monkeypatch):
    # mu scales the target exactly, so every point fits the mu = 1 target of
    # its (K, mesh): one fit and one factorized shift set per (K, mesh), and
    # every record and form is that of a one-point sweep of the same point.
    mus, Ks, meshes = (1e-6, 1e-2, 1.0, 1e2), (1e-2, 1.0), (64, 128)
    seen = fit_layer(monkeypatch)
    forms = forms_of(monkeypatch, "fit_for_pencil")
    ran = fits_run_per_call(monkeypatch, seen, "fit_for_pencil")
    builds = forms_of(monkeypatch, "RationalOperator")
    records = robustness_sweep(mu_grid=mus, K_grid=Ks, mesh_grid=meshes)
    assert len(forms) == len(ran) == len(records) == 16
    assert seen["fits"] == list(dict.fromkeys(seen["points"]))
    assert len(seen["fits"]) == len(builds) == len(Ks) * len(meshes)
    assert sorted(set(ran)) == [0, 1]
    assert [r.fit_reused for r in records] == [n == 0 for n in ran]
    assert [r.fit_reused for r in records] == [r.mu != mus[0] for r in records]
    for rec, form in zip(records, list(forms)):
        forms.clear()
        (alone,) = robustness_sweep(mu_grid=(rec.mu,), K_grid=(rec.K,),
                                    mesh_grid=(rec.n_cells,))
        assert without_timings(alone) == without_timings(rec)
        assert same_form(forms[0], form)
        assert alone.fit_reused is False


def test_robustness_sweep_samples_once_per_permeability_and_mesh(monkeypatch):
    # The points of one (K, mesh) repeat one fit call exactly: only the first
    # samples the target, every later one finds its form by the call.
    mus, Ks, meshes = (1e-6, 1e-2, 1.0, 1e2), (1e-6, 1e-4), (32, 64)
    seen = fit_layer(monkeypatch)
    records = robustness_sweep(mu_grid=mus, K_grid=Ks, mesh_grid=meshes)
    assert len(records) == 16
    assert len(seen["points"]) == len(set(seen["points"])) == len(Ks) * len(meshes)
    assert seen["fits"] == seen["points"]


def test_interface_form_is_the_unit_viscosity_form_scaled():
    # 1/((1/mu) x^-1/2 + (K/mu) x^1/2) = mu / (x^-1/2 + K x^1/2): the poles are
    # those of the mu = 1 fit, bitwise, and c0, c1 and the residues mu times its.
    pencil, K = assemble_interface(64), 1e-2
    unit = aaa.fit_for_pencil(1.0, K, -0.5, 0.5, pencil, 1e-12)
    x = np.geomspace(1.0, pencil.rho_bound, 50)
    for mu in (1e-6, 3.7e-2, 1.0, 1e2):
        _, _, pf, _ = solve_interface(pencil, mu, K, tol_ra=1e-12)
        assert pf.poles.tobytes() == unit.poles.tobytes()
        assert (pf.c0, pf.c1) == (mu * unit.c0, mu * unit.c1)
        assert pf.residues.tobytes() == (mu * unit.residues).tobytes()
        assert (pf.fit_error, pf.validation_error) == (unit.fit_error, unit.validation_error)
        target = 1.0 / (x**-0.5 / mu + K / mu * x**0.5)
        assert np.max(np.abs(pf(x) / target - 1.0)) < 1e-10


# The fit of the 48-cell target reaches a rank-deficient greedy step and
# drops a pole with a non-finite residue.
@pytest.mark.filterwarnings("ignore:rank-deficient barycentric weight solve")
@pytest.mark.filterwarnings("ignore:dropping pole with non-finite residue")
def test_the_preconditioner_fit_is_the_unit_fit_scaled_bitwise():
    # The 48-cell K = 0.01 target carries a conjugate pair.
    pencil, K = assemble_interface(48), 1e-2
    unit = aaa.fit_for_pencil(1.0, K, -0.5, 0.5, pencil, 1e-12)
    assert unit.terms[2].any()
    fits = {}
    for mu in (1e-6, 3.0, 1e2):
        want = dataclasses.replace(unit, c0=mu * unit.c0, c1=mu * unit.c1,
                                   residues=mu * unit.residues)
        for pf in (experiments._fit_preconditioner(pencil, mu, K, 1e-12)[0],
                   experiments._fit_preconditioner(pencil, mu, K, 1e-12, fits)[0]):
            assert np.array([pf.c0, pf.c1]).tobytes() == np.array([want.c0, want.c1]).tobytes()
            assert pf.poles.tobytes() == want.poles.tobytes()
            assert pf.residues.tobytes() == want.residues.tobytes()
            assert (pf.fit_error, pf.validation_error) == (want.fit_error, want.validation_error)


def test_a_repeated_preconditioner_fit_builds_one_form(monkeypatch):
    # The lookup returns the stored form, and one construction rescales it
    # and scales it by mu.
    pencil = assemble_interface(64)
    fits = {}
    experiments._fit_preconditioner(pencil, 3.0, 1e-4, 1e-12, fits)
    built = []
    real_post_init = aaa.PartialFraction.__post_init__

    def counted(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(aaa.PartialFraction, "__post_init__", counted)
    pf, _ = experiments._fit_preconditioner(pencil, 1e2, 1e-4, 1e-12, fits)
    assert built == [pf]


def test_pole_sweep_fits_mirrored_rows_once(monkeypatch):
    # (s, t, alpha, beta) and (t, s, beta, alpha) are one function.
    seen = fit_layer(monkeypatch)
    forms = forms_of(monkeypatch, "fit_fractional_sum")
    records = pole_sweep(tolerance=1e-10, exponents=(-0.5, 0.5),
                         alphas=(1.0, 1e-2), betas=(1.0, 1e-2))
    assert seen["fits"] == list(dict.fromkeys(seen["points"]))
    by_point = {(r.s, r.t, r.alpha, r.beta): (i, r) for i, r in enumerate(records)}
    mirrored = 0
    for (s, t, alpha, beta), (i, rec) in by_point.items():
        j, mirror = by_point[(t, s, beta, alpha)]
        if s != t and i < j:
            mirrored += 1
            assert mirror.fit_reused and seen["points"][i] == seen["points"][j]
            assert np.array_equal(forms[i].poles, forms[j].poles)
            assert np.array_equal(forms[i].residues, forms[j].residues)
            assert not np.shares_memory(forms[i].poles, forms[j].poles)
            assert fit_fields(rec) == fit_fields(mirror)
    assert mirrored == 4


def test_consecutive_sweeps_fit_on_their_own(monkeypatch):
    seen = fit_layer(monkeypatch)
    for expected in (1, 2):
        (rec,) = pole_sweep(tolerance=1e-10, exponents=(0.5,), alphas=(1.0,), betas=(1.0,))
        assert len(seen["fits"]) == expected and rec.fit_reused is False
    for expected in (3, 4):
        (rec,) = robustness_sweep(mu_grid=(1.0,), K_grid=(1.0,), mesh_grid=(32,))
        assert len(seen["fits"]) == expected and rec.fit_reused is False


def test_complexity_study_fits_every_repeat(monkeypatch):
    seen = fit_layer(monkeypatch)
    records = complexity_study(mesh_grid=(32, 64), tolerance_grid=(1e-8,), repeats=3)
    assert len(seen["fits"]) == len(seen["points"]) == 6
    assert all(r.fit_reused is None for r in records)


# The record columns a point's fit decides.
FIT_COLUMNS = ("n_poles", "achieved_error", "pf_error", "real_negative", "real_zero",
               "real_positive", "complex_pair")


# The K = 1 fit on 32 cells warns of a rank-deficient weight solve.
@pytest.mark.filterwarnings("ignore:rank-deficient barycentric weight solve")
def test_complexity_study_fits_the_interface_preconditioner():
    # The study's form is the one solve_interface and robustness_sweep apply:
    # the mu = 1 target, scaled by mu.
    (rec,) = complexity_study(mesh_grid=(32,), mu=1e-4, K=1.0, repeats=1)
    _, _, pf, _ = solve_interface(assemble_interface(32), 1e-4, 1.0, 1e-12)
    assert not rec.failure
    assert (rec.n_poles, rec.achieved_error, rec.pf_error) == (
        pf.degree, pf.fit_error, pf.validation_error)


@pytest.mark.filterwarnings("ignore:rank-deficient barycentric weight solve")
@pytest.mark.parametrize("K", [1e-6, 1.0])
def test_complexity_study_forms_do_not_depend_on_viscosity(K):
    # mu scales the target exactly, so every mu gets the columns of one fit.
    columns = [[tuple(getattr(rec, key) for key in FIT_COLUMNS) for rec in
                complexity_study(mesh_grid=(32, 64), mu=mu, K=K, repeats=1)]
               for mu in ROBUSTNESS_MUS]
    assert all(None not in row for row in columns[0])
    assert all(study == columns[0] for study in columns)


def _no_fit(*_args, **_kwargs):
    raise AssertionError("a fit ran")


@pytest.mark.parametrize("run, message", [
    (lambda: pole_sweep(exponents=(0.0,), alphas=(1.0,), betas=(1.0,), max_degree=0),
     "max_degree must be at least 1"),
    (lambda: robustness_sweep(mu_grid=(1.0,), K_grid=(1.0,), mesh_grid=(16,), seed=-1),
     "expected non-negative integer"),
    (lambda: robustness_sweep(mu_grid=(1.0,), K_grid=(1.0,), mesh_grid=(16,),
                              audit_trials=0),
     "audit_trials must be at least 1"),
    (lambda: complexity_study(mesh_grid=(16,), repeats=0), "repeats must be at least 1"),
    (lambda: solve_interface(assemble_interface(16), 1.0, 1.0, tol_ra=1e-10, seed=-1),
     "expected non-negative integer"),
], ids=["poles-max-degree", "robustness-seed", "robustness-audit-trials",
        "complexity-repeats", "solve-interface-seed"])
def test_sweep_and_solve_arguments_are_checked_before_any_fit(run, message, monkeypatch):
    # An invalid argument raises ValueError before the first fit, rather
    # than failing every grid point on its own.
    monkeypatch.setattr(experiments, "fit_fractional_sum", _no_fit)
    monkeypatch.setattr(experiments, "fit_for_pencil", _no_fit)
    with pytest.raises(ValueError, match=message):
        run()


def test_robustness_sweep_shares_one_rhs_per_mesh(monkeypatch):
    # Each mesh's right-hand side is built once, before the grid, and read
    # only: every record equals that of a one-point sweep, which builds its
    # own.
    built = []
    real_rhs = experiments.interface_rhs

    def read_only_rhs(pencil, seed):
        built.append((pencil.n_c, seed))
        g = real_rhs(pencil, seed)
        g.flags.writeable = False
        return g

    monkeypatch.setattr(experiments, "interface_rhs", read_only_rhs)
    records = robustness_sweep(mu_grid=(1e-2, 1.0), K_grid=(1e-6, 1e-4),
                               mesh_grid=(32, 64), seed=3)
    assert built == [(32, 3), (64, 3)]
    assert len(records) == 8 and not any(r.failure for r in records)
    for rec in records:
        (alone,) = robustness_sweep(mu_grid=(rec.mu,), K_grid=(rec.K,),
                                    mesh_grid=(rec.n_cells,), seed=3)
        assert without_timings(alone) == without_timings(rec)


def _nth_call(n):
    """A predicate that is true on its n-th call only."""
    calls = itertools.count(1)
    return lambda *_args, **_kwargs: next(calls) == n


@pytest.mark.parametrize("name, fails, error, run, kwargs, failed, cli_args", [
    # The point (s, t) = (0.5, 0) of the pole atlas.
    ("fit_fractional_sum", lambda: lambda func, *_a, **_k: (func.s, func.t) == (0.5, 0.0),
     np.linalg.LinAlgError("SVD did not converge"), pole_sweep,
     dict(tolerance=1e-10, exponents=(0.0, 0.5), alphas=(1.0,), betas=(1e-2,)), 2,
     ["poles", "--tol", "1e-10", "--exponents", "0,0.5", "--alphas", "1", "--betas", "0.01"]),
    # The first build on the 64-cell mesh, at mu = 1e-2: the point at mu = 1
    # on that mesh then builds its own shifts.
    ("RationalOperator", lambda: _nth_call(2),
     FactorizationError("pole -1.0 is not definite"), robustness_sweep,
     dict(mu_grid=(1e-2, 1.0), K_grid=(1e-4,), mesh_grid=(32, 64)), 1,
     ["robustness", "--mus", "0.01,1", "--Ks", "1e-4", "--meshes", "32,64"]),
    # Every fit on the 64-cell mesh.
    ("fit_for_pencil", lambda: lambda *args, **_k: args[4].n_c == 64,
     np.linalg.LinAlgError("SVD did not converge"), complexity_study,
     dict(mesh_grid=(32, 64), tolerance_grid=(1e-8,), repeats=1), 1,
     ["complexity", "--meshes", "32,64", "--tols", "1e-8"]),
    # The build on the 64-cell mesh, after its fit returned.
    ("RationalOperator", lambda: lambda _pf, pencil: pencil.n_c == 64,
     FactorizationError("pole -1.0 is not definite"), complexity_study,
     dict(mesh_grid=(32, 64), tolerance_grid=(1e-8,), repeats=1), 1,
     ["complexity", "--meshes", "32,64", "--tols", "1e-8"]),
], ids=["poles", "robustness", "complexity", "complexity-build"])
def test_sweep_records_a_failed_point_and_goes_on(monkeypatch, tmp_path, capsys, name, fails,
                                                  error, run, kwargs, failed, cli_args):
    # A numerical error at one grid point is that point's failure: every other
    # record equals the clean sweep's, the failed row leaves its unset cells
    # empty, and the command line exits 3.  A point whose build raised keeps
    # what its fit recorded.
    clean = run(**kwargs)
    real = getattr(experiments, name)

    def inject(fails):
        def call(*args, **kwargs):
            if fails(*args, **kwargs):
                raise error
            return real(*args, **kwargs)
        monkeypatch.setattr(experiments, name, call)

    inject(fails())
    records = run(**kwargs)
    assert [bool(r.failure) for r in records] == [i == failed for i in range(len(clean))]
    assert records[failed].failure == f"{type(error).__name__}: {error}"
    for i, (rec, want) in enumerate(zip(records, clean)):
        if i != failed:
            assert without_timings(rec) == without_timings(want)
    rec = records[failed]
    assert rec.iterations_minres is None and rec.solve_seconds is None
    if name == "RationalOperator":
        for key in FIT_COLUMNS:
            assert getattr(rec, key) is not None
            assert getattr(rec, key) == getattr(clean[failed], key)
        assert rec.setup_seconds > 0
    else:
        assert rec.n_poles is None and rec.setup_seconds is None
    for key, value in dataclasses.asdict(rec).items():
        assert (value is None or value == getattr(clean[failed], key)
                or key in ("failure", "setup_seconds"))

    out = tmp_path / "sweep.csv"
    write_sweep_csv(records, out)
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    row = rows[failed]
    assert row["failure"] == rec.failure
    assert all((row[key] == "") == (getattr(rec, key) is None) for key in row)
    if name == "RationalOperator":
        # Every row shows whether its form met the tolerance, the failed row's too.
        assert all(r["achieved_error"] and r["pf_error"] for r in rows)

    inject(fails())
    assert main(["sweep", *cli_args, "--out", str(out)]) == 3
    assert f"({len(clean)} rows, 1 failures)" in capsys.readouterr().out
