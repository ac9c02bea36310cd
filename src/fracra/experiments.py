"""Sweep drivers: pole-count atlas, interface robustness, and timing studies.

The interface problem solves S lam = g where S realizes the symbol
mu^{-1} x^{-1/2} + K mu^{-1} x^{1/2} of the shifted closed-curve pencil, and
the preconditioner is the shifted-solve realization of the reciprocal symbol.
S is defined once, by :class:`FourierInterfaceSystem`, which applies it
exactly by two real FFTs; the robustness sweep multiplies by the same S
written out as a dense circulant matrix.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.linalg

from .aaa import MAX_DEGREE, PoleAudit, fit_for_pencil, fit_fractional_sum
from .functions import FractionalSumFunction, normalize
from .krylov import minres, pcg
from .operator import RationalOperator, spd_audit
from .pencil import _check_dense_cap, assemble_interface
# Unused here: bench/spans.py times the dense eigendecomposition through this name.
from .pencil import dense_eigendecomposition

__all__ = [
    "EXPONENT_GRID",
    "POLE_SWEEP_ALPHAS",
    "POLE_SWEEP_BETAS",
    "ROBUSTNESS_MUS",
    "ROBUSTNESS_KS",
    "ROBUSTNESS_MESHES",
    "COMPLEXITY_MESHES",
    "SweepRecord",
    "FourierInterfaceSystem",
    "build_interface_system_dense",
    "interface_rhs",
    "solve_interface",
    "pole_sweep",
    "robustness_sweep",
    "complexity_study",
    "write_sweep_csv",
    "write_sweep_summary",
    "summarize_records",
]

EXPONENT_GRID = tuple(float(v) for v in np.round(np.linspace(-1.0, 1.0, 11), 1))
POLE_SWEEP_ALPHAS = (1e-9, 1e-6, 1e-3, 1.0)
POLE_SWEEP_BETAS = (1e-10, 1e-6, 1e-2, 1e2)
ROBUSTNESS_MUS = (1e-6, 1e-4, 1e-2, 1.0, 1e2)
ROBUSTNESS_KS = (1e-6, 1e-4, 1e-2, 1.0)
ROBUSTNESS_MESHES = (64, 128, 256, 512)
COMPLEXITY_MESHES = (32, 64, 128, 256, 512, 1024)


@dataclass
class SweepRecord:
    """One grid point of a sweep; unused fields stay None."""

    kind: str
    s: float = None
    t: float = None
    alpha: float = None
    beta: float = None
    mu: float = None
    K: float = None
    n_cells: int = None
    n_c: int = None
    gamma: float = None
    swapped: bool = None
    tolerance: float = None
    tol_krylov: float = None
    n_poles: int = None
    achieved_error: float = None
    pf_error: float = None
    real_negative: int = None
    real_zero: int = None
    real_positive: int = None
    complex_pair: int = None
    iterations_minres: int = None
    iterations_pcg: int = None
    converged: bool = None
    min_rayleigh: float = None
    setup_seconds: float = None
    solve_seconds: float = None
    fit_reused: bool = None
    failure: str = ""

    def fill_pf(self, pf):
        self.n_poles = pf.degree
        self.achieved_error = pf.fit_error
        self.pf_error = pf.validation_error
        vars(self).update(pf.pole_audit.as_dict())

    @property
    def all_real_nonpositive(self):
        # PoleAudit's rule; False on a row whose fit failed, as its counts are None.
        audit = PoleAudit(*(getattr(self, f.name) for f in fields(PoleAudit)))
        return audit.all_real_nonpositive


_CSV_COLUMNS = {
    "poles": (
        "s", "t", "alpha", "beta", "gamma", "swapped", "tolerance", "n_poles",
        "achieved_error", "pf_error", "real_negative", "real_zero",
        "real_positive", "complex_pair", "setup_seconds", "fit_reused", "failure",
    ),
    "robustness": (
        "mu", "K", "n_cells", "n_c", "tolerance", "tol_krylov", "n_poles",
        "achieved_error", "pf_error", "iterations_minres", "iterations_pcg",
        "converged", "min_rayleigh", "setup_seconds", "solve_seconds",
        "fit_reused", "failure",
    ),
    "complexity": (
        "mu", "K", "n_cells", "n_c", "tolerance", "n_poles", "achieved_error",
        "pf_error", "iterations_minres", "setup_seconds", "solve_seconds", "failure",
    ),
}


def _circulant_symbol(mat):
    """Eigenvalues sum_j c_j cos(2 pi j k / n), k = 0..n/2, of a circulant matrix.

    Taken as sum_j c_j - 2 sum_j c_j sin^2(pi j k / n) over the first column's
    offsets j in (-n/2, n/2]; an rfft of c loses ~3e-8 relative on the lowest
    modes of a 131072-cell ring to the cancellation of c_0 ~ 2/h.  c is read
    off the CSR first row, c_{-j mod n} = mat[0, j].
    """
    n = mat.shape[0]
    first = slice(mat.indptr[0], mat.indptr[1])
    col = np.zeros(n)
    col[-mat.indices[first] % n] = mat.data[first]
    j = np.flatnonzero(col)
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    if (np.count_nonzero(mat.data) != n * j.size
            or not np.array_equal(mat.data, col[(rows - mat.indices) % n])):
        raise ValueError("pencil is not circulant")
    angles = np.pi / n * np.outer(np.arange(n // 2 + 1), np.where(j > n // 2, j - n, j))
    return math.fsum(col[j]) - 2.0 * np.sin(angles) ** 2 @ col[j]


class FourierInterfaceSystem:
    """Exact circulant realization of the closed-curve interface operator.

    The real Fourier modes diagonalize the uniform closed-curve pencil, so
    with a_k, m_k the eigenvalues of A, M (read from their first columns, so
    the stencil stays defined by the assembler) and lambda_k = a_k / m_k,
    S x = irfft(m_k F(lambda_k) rfft(x)),  F(x) = mu^-1 x^-1/2 + K mu^-1 x^1/2.
    """

    def __init__(self, pencil, mu, K):
        _check_positive("mu and K", (mu, K))
        a, m = _circulant_symbol(pencil.A), _circulant_symbol(pencil.M)
        if np.any(a <= 0) or np.any(m <= 0):
            raise ValueError("pencil is not definite")
        self.eigenvalues = m * ((a / m)**-0.5 + K * (a / m)**0.5) / mu
        self.n = pencil.n_c

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        return np.fft.irfft(self.eigenvalues * np.fft.rfft(x), self.n)


def build_interface_system_dense(pencil, mu, K):
    """:class:`FourierInterfaceSystem` written out as a dense circulant matrix.

    Its first column is S e_0, averaged with its reverse so that S is exactly
    symmetric.  Raises DenseCapExceededError beyond the dense cap.
    """
    _check_dense_cap(pencil)
    col = np.fft.irfft(FourierInterfaceSystem(pencil, mu, K).eigenvalues, pencil.n_c)
    col[1:] = 0.5 * (col[1:] + col[:0:-1])
    return scipy.linalg.circulant(col)


def interface_rhs(pencil, seed=0):
    """Deterministic pseudo-random right-hand side, orthogonal to constants.

    The component along the constant function is removed in the dual pairing,
    i.e. sum(g) = 0 against the mass-weighted constant.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(pencil.n_c)
    m_one = pencil.M @ np.ones(pencil.n_c)
    g -= (g.sum() / m_one.sum()) * m_one
    return g


def _check_positive(name, values):
    """Raise ValueError unless every one of ``values`` is positive and finite."""
    if not all(0 < value < math.inf for value in values):
        raise ValueError(f"{name} must be positive and finite: {tuple(values)}")


def _fit_preconditioner(pencil, mu, K, tol_ra, fits=None, floor_ratio=None):
    """Fit the reciprocal interface symbol mu / (x^-1/2 + K x^1/2).

    Viscosity is an exact scale of the symbol, so the mu = 1 target is
    fitted and :func:`fit_for_pencil` multiplies c0, c1 and the residues by
    mu as its ``scale``, in the one construction of the returned form: every
    mu on one (K, pencil) gets the poles of one fit, and a repeated call is
    a lookup plus one rescaling.  Returns ``(pf, fit_seconds)``; the time
    covers the fit, pole extraction and the scaling.  ``fits`` and
    ``floor_ratio`` are passed on to :func:`fit_for_pencil`.
    """
    tic = time.perf_counter()
    pf = fit_for_pencil(1.0, K, -0.5, 0.5, pencil, tol_ra, floor_ratio=floor_ratio,
                        fits=fits, scale=mu)
    return pf, time.perf_counter() - tic


def solve_interface(pencil, mu, K, tol_ra, tol_krylov=1e-10, method="minres", seed=0):
    """Fit the reciprocal symbol, precondition, and solve S lam = g on the
    closed-curve pencil for viscosity mu and permeability K.

    The Krylov solve stops after at most 500 iterations.  The solver
    arguments, ``seed`` among them, are checked before the fit.  Returns
    ``(solution, SolveReport, PartialFraction, setup_seconds)`` where
    ``setup_seconds`` covers the fit of the mu = 1 target, pole extraction
    and the scaling by mu only (factorizations excluded).
    """
    if method not in ("minres", "pcg"):
        raise ValueError(f"unknown method {method!r}")
    _check_positive("tolerances", (tol_krylov,))
    g = interface_rhs(pencil, seed)
    system = FourierInterfaceSystem(pencil, mu, K)
    pf, setup_seconds = _fit_preconditioner(pencil, mu, K, tol_ra)
    precond = RationalOperator(pf, pencil)
    solver = minres if method == "minres" else pcg
    solution, report = solver(system, precond, g, tol=tol_krylov, stop="abs")
    return solution, report, pf, setup_seconds


def pole_sweep(tolerance=1e-12, exponents=EXPONENT_GRID, alphas=POLE_SWEEP_ALPHAS,
               betas=POLE_SWEEP_BETAS, max_degree=MAX_DEGREE):
    """Fit every (s, t, alpha, beta) grid point on (0, 1] and record the poles.

    Each fit samples :func:`fit_fractional_sum`'s default grid.  Points
    whose normalized samples coincide, as the mirrored rows (s, t, alpha,
    beta) and (t, s, beta, alpha) do, share one fit through a ``fits`` dict
    made for this call and dropped when it returns; ``fit_reused`` marks a
    point that reused one, whose ``setup_seconds`` is the lookup and the
    rescaling.  A tolerance that is not positive and finite, a max_degree
    below 1, or a grid point that is no valid :class:`FractionalSumFunction`
    (an exponent outside [-1, 1], a negative weight, both weights zero),
    raises ValueError before the grid; per-point failures are recorded in
    the record instead of raised, so the grid is always fully enumerated.
    """
    _check_positive("tolerances", (tolerance,))
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    # Every point's function is built, and so checked, before any fit.
    funcs = [FractionalSumFunction(alpha, beta, s, t, 1.0)
             for s in exponents for t in exponents
             for alpha in alphas for beta in betas]
    fits = {}
    records = []
    for func in funcs:
        rec = SweepRecord(kind="poles", s=func.s, t=func.t, alpha=func.alpha,
                          beta=func.beta, tolerance=tolerance)
        try:
            norm = normalize(func)
            rec.gamma = norm.gamma
            rec.swapped = norm.swapped
            size = len(fits)
            tic = time.perf_counter()
            pf = fit_fractional_sum(func, tolerance, max_degree, fits=fits)
            rec.setup_seconds = time.perf_counter() - tic
            rec.fit_reused = len(fits) == size
            rec.fill_pf(pf)
        except Exception as exc:
            rec.failure = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def robustness_sweep(mu_grid=ROBUSTNESS_MUS, K_grid=ROBUSTNESS_KS,
                     mesh_grid=ROBUSTNESS_MESHES, tolerance=1e-12,
                     tol_krylov=1e-10, seed=0, audit_trials=1):
    """Solve the interface problem over the (mu, K, mesh) grid.

    Each point builds one preconditioner, runs both minres and pcg with it to
    the same absolute tolerance in at most 500 iterations, and records
    iteration counts, pole counts, and a definiteness probe of the
    preconditioner over ``audit_trials`` (at least 1) random vector pairs.
    ``solve_seconds`` is the minres solve's ``SolveReport.wall_time``.

    mu is an exact scale of the preconditioner, so every point fits the
    mu = 1 target of its (K, mesh) and scales it by mu.  The points of one
    (K, mesh) share one fit through a ``fits`` dict, which stores a fresh
    fit under its call and its samples' digest, so every later point repeats
    the first one's call and skips the sampling; they also share one set of
    factorized shifts through a dict of operators keyed by (K, mesh): the
    first point factorizes, and every later one takes
    :meth:`RationalOperator.reweighted`, which applies bitwise as a fresh
    build would.  Both dicts are made for this call and dropped when it
    returns.  ``setup_seconds`` times the fit, pole extraction and scaling
    by mu, or for a point marked ``fit_reused`` the lookup and the one
    rescaling, which folds in mu as :func:`fit_for_pencil`'s ``scale``; it
    and the fit's columns are recorded before the build.  The tolerances,
    mu and K (positive and finite) and audit_trials (>= 1) are checked, and
    each mesh's pencil and shared right-hand side built, before the grid.
    """
    _check_positive("tolerances", (tolerance, tol_krylov))
    _check_positive("mu and K", (*mu_grid, *K_grid))
    if audit_trials < 1:
        raise ValueError("audit_trials must be at least 1")
    pencils = {n_cells: assemble_interface(n_cells) for n_cells in mesh_grid}
    rhs = {n_cells: interface_rhs(pencil, seed) for n_cells, pencil in pencils.items()}
    fits, shifts = {}, {}
    records = []
    for mu in mu_grid:
        for K in K_grid:
            for n_cells in mesh_grid:
                pencil = pencils[n_cells]
                rec = SweepRecord(kind="robustness", mu=mu, K=K,
                                  n_cells=n_cells, n_c=pencil.n_c,
                                  tolerance=tolerance, tol_krylov=tol_krylov)
                try:
                    system = build_interface_system_dense(pencil, mu, K)
                    size = len(fits)
                    pf, rec.setup_seconds = _fit_preconditioner(pencil, mu, K, tolerance, fits)
                    rec.fit_reused = len(fits) == size
                    rec.fill_pf(pf)
                    if (K, n_cells) in shifts:
                        precond = shifts[K, n_cells].reweighted(pf)
                    else:
                        precond = shifts[K, n_cells] = RationalOperator(pf, pencil)
                    g = rhs[n_cells]
                    _, rep_minres = minres(system, precond, g, tol=tol_krylov, stop="abs")
                    _, rep_pcg = pcg(system, precond, g, tol=tol_krylov, stop="abs")
                    rec.solve_seconds = rep_minres.wall_time
                    rec.iterations_minres = rep_minres.iterations
                    rec.iterations_pcg = rep_pcg.iterations
                    rec.converged = rep_minres.converged and rep_pcg.converged
                    rec.min_rayleigh = spd_audit(precond, audit_trials, seed).min_rayleigh
                except Exception as exc:
                    rec.failure = f"{type(exc).__name__}: {exc}"
                records.append(rec)
    return records


def complexity_study(mesh_grid=COMPLEXITY_MESHES, tolerance_grid=(1e-12,),
                     mu=1e-2, K=1e-6, seed=0, repeats=3):
    """Time the fit setup and the preconditioned solve across mesh doublings.

    MinRes runs to the absolute tolerance 1e-10 in at most 500 iterations,
    each two real FFTs (the exact system) plus O(n) shifted solves.  Each
    repeat fits the mu = 1 target and scales it by mu, so the forms do not
    depend on mu; ``setup_seconds`` covers the fit, pole extraction and the
    scaling, and is recorded with the fit's columns before the build.
    ``solve_seconds`` is the MinRes ``SolveReport.wall_time``, the full Krylov
    loop including preconditioner applies.  Each timing is the best of
    ``repeats`` runs, so every repeat runs its own fit: this study passes no
    ``fits`` dict.  The tolerances and repeats >= 1 are checked before the grid.
    """
    _check_positive("tolerances", tolerance_grid)
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    pencils = {n: assemble_interface(n) for n in mesh_grid}
    # One fit window for the whole study keeps the setup cost comparable
    # across meshes; it must reach below the smallest scaled eigenvalue of the
    # finest pencil.
    floor = 0.5 / max(p.rho_bound for p in pencils.values())
    records = []
    for n_cells in mesh_grid:
        pencil = pencils[n_cells]
        system = FourierInterfaceSystem(pencil, mu, K)
        g = interface_rhs(pencil, seed)
        for tol in tolerance_grid:
            rec = SweepRecord(kind="complexity", mu=mu, K=K, n_cells=n_cells,
                              n_c=pencil.n_c, tolerance=tol)
            try:
                timed = [_fit_preconditioner(pencil, mu, K, tol, floor_ratio=floor)
                         for _ in range(repeats)]
                pf = timed[-1][0]
                rec.fill_pf(pf)
                rec.setup_seconds = min(seconds for _pf, seconds in timed)
                precond = RationalOperator(pf, pencil)
                reports = [minres(system, precond, g, tol=1e-10, stop="abs")[1]
                           for _ in range(repeats)]
                rec.solve_seconds = min(r.wall_time for r in reports)
                rec.iterations_minres = reports[-1].iterations
                rec.converged = reports[-1].converged
            except Exception as exc:
                rec.failure = f"{type(exc).__name__}: {exc}"
            records.append(rec)
    return records


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_sweep_csv(records, path):
    """One row per record with the fixed column order of the sweep kind."""
    if not records:
        raise ValueError("no records to write")
    kinds = {rec.kind for rec in records}
    if len(kinds) != 1:
        raise ValueError(f"records mix sweep kinds: {sorted(kinds)}")
    columns = _CSV_COLUMNS[records[0].kind]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_cell(getattr(rec, col)) for col in columns])


def summarize_records(records):
    """Aggregate extremes used by the CLI summaries.  ``n_tol_miss`` counts the
    fitted records with max(achieved_error, pf_error) > tolerance, NaN included."""
    def values(name):
        return [getattr(r, name) for r in records if getattr(r, name) is not None]

    summary = {
        "n_records": len(records),
        "n_failures": sum(1 for r in records if r.failure),
    }
    poles = values("n_poles")
    if poles:
        summary["max_poles"] = int(max(poles))
    for name in ("iterations_minres", "iterations_pcg"):
        vals = values(name)
        if vals:
            summary[f"max_{name}"] = int(max(vals))
    for name in ("setup_seconds", "solve_seconds"):
        vals = values(name)
        if vals:
            summary[f"{name}_min"] = float(min(vals))
            summary[f"{name}_max"] = float(max(vals))
    for name in ("achieved_error", "pf_error"):
        vals = values(name)
        if vals:
            # np.max keeps a NaN error, which max() could drop.
            summary[f"max_{name}"] = float(np.max(vals))
    summary["n_tol_miss"] = sum(1 for r in records if r.achieved_error is not None and not (
        r.achieved_error <= r.tolerance and r.pf_error <= r.tolerance))
    return summary


def write_sweep_summary(records, path, grids=None, seed=None):
    """JSON summary with the grid definitions, seed, and environment notes."""
    kind = records[0].kind if records else "empty"
    payload = {
        "schema": "fracra.sweep_summary/1",
        "kind": kind,
        "grids": grids or {},
        "seed": seed,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "summary": summarize_records(records),
    }
    Path(path).write_text(json.dumps(payload, indent=2))
    return payload
