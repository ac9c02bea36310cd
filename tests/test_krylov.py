import numpy as np
import pytest

from fracra.krylov import (
    CurvatureBreakdownError,
    IndefinitePreconditionerError,
    SolveReport,
    minres,
    pcg,
)
from fracra.pencil import assemble_interval


class InverseOf:
    """Dense exact-inverse preconditioner with the apply protocol."""

    def __init__(self, matrix):
        self._inv = np.linalg.inv(matrix)

    def apply(self, v):
        return self._inv @ v


def spd_test_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(1.0, 50.0, size=n)) @ q.T


@pytest.mark.parametrize("solver", [pcg, minres])
def test_exact_inverse_converges_in_one_iteration(solver):
    A = spd_test_matrix(30)
    b = np.random.default_rng(1).standard_normal(30)
    x, report = solver(A, InverseOf(A), b, tol=1e-10, stop="rel")
    assert report.converged
    assert report.iterations == 1
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_cg_finite_termination_dirichlet():
    pencil = assemble_interval(50, periodic=False)
    b = np.random.default_rng(2).standard_normal(pencil.n_c)
    x, report = pcg(pencil.A, None, b, tol=1e-8, max_iter=50, stop="rel")
    assert report.converged
    assert report.iterations <= 50
    assert np.linalg.norm(pencil.A @ x - b) <= 1e-6 * np.linalg.norm(b)


def test_minres_indefinite_two_eigenvalues():
    A = np.diag([1.0, -1.0])
    b = np.array([1.0, 2.0])
    x, report = minres(A, None, b, tol=1e-12, stop="rel")
    assert report.converged
    assert report.iterations <= 2
    assert x == pytest.approx(np.linalg.solve(A, b), abs=1e-10)


def test_minres_pcg_agree_on_spd():
    A = spd_test_matrix(40, seed=3)
    b = np.random.default_rng(4).standard_normal(40)
    tol = 1e-10
    x1, r1 = pcg(A, None, b, tol=tol, stop="rel")
    x2, r2 = minres(A, None, b, tol=tol, stop="rel")
    assert r1.converged and r2.converged
    assert np.linalg.norm(x1 - x2) <= 10 * tol * np.linalg.norm(x1)


def test_minres_residual_monotone():
    pencil = assemble_interval(80, periodic=False)
    b = np.random.default_rng(5).standard_normal(pencil.n_c)
    _, report = minres(pencil.A, None, b, tol=1e-10, max_iter=200, stop="rel")
    hist = np.array(report.preconditioned_residual_history)
    assert np.all(np.diff(hist) <= 1e-14 * hist[0])


def test_deterministic_iteration_counts():
    pencil = assemble_interval(60, periodic=False)
    b = np.random.default_rng(6).standard_normal(pencil.n_c)
    counts = set()
    for _ in range(3):
        _, report = pcg(pencil.A, None, b, tol=1e-8, stop="rel")
        counts.add(report.iterations)
    assert len(counts) == 1


def test_cg_curvature_breakdown():
    A = np.diag([1.0, -1.0])
    b = np.array([1.0, 1.0])
    with pytest.raises(CurvatureBreakdownError):
        pcg(A, None, b, tol=1e-10, stop="rel")


@pytest.mark.parametrize("solver", [pcg, minres])
def test_indefinite_preconditioner_raises(solver):
    with pytest.raises(IndefinitePreconditionerError, match="at start"):
        solver(np.eye(3), -np.eye(3), np.ones(3))
    # One negative eigenvalue of P: <r, P r> is positive at the start and
    # negative, far beyond roundoff, at the second iteration.
    with pytest.raises(IndefinitePreconditionerError, match="at iteration 2"):
        solver(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, -1.0, 1.0]),
               np.array([1.0, 0.1, 1.0]))


class NanAfter:
    """The identity for the first ``calls`` applies, NaN from then on."""

    def __init__(self, calls):
        self.calls = calls

    def apply(self, v):
        self.calls -= 1
        return v.copy() if self.calls >= 0 else np.full_like(v, np.nan)


@pytest.mark.parametrize("solver", [pcg, minres])
def test_non_finite_preconditioner_raises(solver):
    # A NaN <r, P r> is not negative, yet it defines no norm: it raises where
    # it appears instead of running out the iterations unconverged.
    A = spd_test_matrix(20, seed=3)
    b = np.random.default_rng(3).standard_normal(20)
    with pytest.raises(IndefinitePreconditionerError, match="nan at start"):
        solver(A, NanAfter(0), b)
    with pytest.raises(IndefinitePreconditionerError, match="nan at iteration 1"):
        solver(A, NanAfter(1), b)


def test_max_iter_exceeded_reports_not_converged():
    pencil = assemble_interval(100, periodic=False)
    b = np.random.default_rng(7).standard_normal(pencil.n_c)
    _, report = pcg(pencil.A, None, b, tol=1e-12, max_iter=3, stop="rel")
    assert not report.converged
    assert report.iterations == 3


def test_report_invariants_and_serialization():
    A = spd_test_matrix(20, seed=8)
    b = np.random.default_rng(9).standard_normal(20)
    _, report = pcg(A, None, b, tol=1e-10, stop="rel")
    assert isinstance(report, SolveReport)
    assert len(report.preconditioned_residual_history) == report.iterations + 1
    assert report.preconditioned_residual_history[-1] <= 1e-10 * report.preconditioned_residual_history[0]
    data = report.to_dict()
    assert data["schema"].startswith("fracra.solve_report/")
    assert data["iterations"] == report.iterations


def test_zero_rhs_trivial():
    A = spd_test_matrix(10, seed=10)
    x, report = minres(A, None, np.zeros(10), tol=1e-10)
    assert report.converged and report.iterations == 0
    assert np.array_equal(x, np.zeros(10))


def test_stop_mode_validation():
    A = np.eye(3)
    b = np.ones(3)
    with pytest.raises(ValueError):
        pcg(A, None, b, tol=1e-10, stop="bogus")
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            minres(A, None, b, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            pcg(A, None, b, tol=tol)
    with pytest.raises(ValueError):
        minres(A, None, b, tol=1e-10, max_iter=0)


def test_absolute_stop_mode():
    A = spd_test_matrix(25, seed=11)
    b = np.random.default_rng(12).standard_normal(25)
    _, report = pcg(A, None, b, tol=1e-8, stop="abs")
    assert report.converged
    assert report.preconditioned_residual_history[-1] <= 1e-8
