"""Preconditioned conjugate gradient and minimal residual iterations.

Both solvers start from a zero initial guess, track the preconditioned
residual norm sqrt(<r, P r>), and stop when it drops below the tolerance,
either absolutely (the default) or relative to its initial value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CurvatureBreakdownError",
    "IndefinitePreconditionerError",
    "SolveReport",
    "pcg",
    "minres",
]


class CurvatureBreakdownError(RuntimeError):
    """Conjugate gradients met a nonpositive curvature direction: the operator is indefinite."""


class IndefinitePreconditionerError(RuntimeError):
    """The preconditioner's <r, P r> is negative or not finite and defines no norm."""


@dataclass
class SolveReport:
    """Iteration record of one Krylov solve."""

    iterations: int
    converged: bool
    preconditioned_residual_history: list
    wall_time: float
    inner_solve_total: int
    method: str = ""

    def to_dict(self):
        return {
            "schema": "fracra.solve_report/1",
            "method": self.method,
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "preconditioned_residual_history": [
                float(v) for v in self.preconditioned_residual_history
            ],
            "wall_time": float(self.wall_time),
            "inner_solve_total": int(self.inner_solve_total),
        }


def _as_matvec(op):
    if hasattr(op, "apply") and callable(op.apply):
        return op.apply
    if sp.issparse(op) or isinstance(op, np.ndarray):
        return lambda v: op @ v
    raise TypeError(f"cannot interpret {type(op).__name__} as a linear operator")


class _Preconditioner:
    """A preconditioner (None is the identity) that counts its applies and
    builds the report of the solve it serves."""

    def __init__(self, precond, method):
        self.precond, self.method, self.calls = precond, method, 0
        self.matvec = None if precond is None else _as_matvec(precond)
        self.tic = time.perf_counter()

    def __call__(self, v):
        if self.matvec is None:
            return v.copy()
        self.calls += 1
        return self.matvec(v)

    def report(self, iterations, converged, history):
        solves_per = getattr(self.precond, "solves_per_apply", 1)
        return SolveReport(iterations, bool(converged), history,
                           time.perf_counter() - self.tic,
                           self.calls * solves_per, self.method)


def _energy(r, z, iteration):
    """<r, P r> for z = P r.  A value that is not finite raises, and so does a
    negative one at the start (iteration 0) and later unless it is within
    1e-8 ||r|| ||z||, roundoff that reads 0."""
    value = float(r @ z)
    if value < 0 and iteration and abs(value) <= 1e-8 * np.linalg.norm(r) * np.linalg.norm(z):
        return 0.0
    if not 0 <= value < np.inf:
        where = f"iteration {iteration}" if iteration else "start"
        raise IndefinitePreconditionerError(f"<r, Pr> = {value:.3e} at {where}")
    return value


def _check_stop(tol, max_iter, stop):
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if stop not in ("abs", "rel"):
        raise ValueError("stop must be 'abs' or 'rel'")


def _finite_rhs(b):
    """b as a float array; a NaN or infinite entry raises ValueError, before
    any apply could turn it into an indefinite-preconditioner verdict."""
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("the right-hand side must be finite")
    return b


def pcg(system, precond, b, tol=1e-10, max_iter=500, stop="abs"):
    """Preconditioned conjugate gradients from a zero initial guess.

    ``system`` and ``precond`` may be arrays, sparse matrices, or objects with
    an ``apply`` method; ``precond=None`` means no preconditioning.  Returns
    ``(x, SolveReport)``.  A nonpositive curvature direction raises
    CurvatureBreakdownError; exceeding ``max_iter`` returns with
    ``converged=False``.  A right-hand side with a NaN or infinite entry
    raises ValueError before the first apply.
    """
    _check_stop(tol, max_iter, stop)
    amat = _as_matvec(system)
    papply = _Preconditioner(precond, "pcg")
    b = _finite_rhs(b)

    x = np.zeros_like(b)
    r = b.copy()
    z = papply(r)
    rho = _energy(r, z, 0)
    norm0 = np.sqrt(rho)
    history = [norm0]
    threshold = tol if stop == "abs" else tol * norm0
    converged = norm0 <= threshold

    p = z.copy()
    it = 0
    while not converged and it < max_iter:
        q = amat(p)
        pq = float(p @ q)
        if pq <= 0:
            raise CurvatureBreakdownError(
                f"nonpositive curvature <p, Ap> = {pq:.3e} at iteration {it + 1}"
            )
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        z = papply(r)
        it += 1
        rho_new = _energy(r, z, it)
        norm_k = np.sqrt(rho_new)
        history.append(norm_k)
        converged = norm_k <= threshold
        if converged or rho_new == 0.0:
            break
        p = z + (rho_new / rho) * p
        rho = rho_new
    return x, papply.report(it, converged, history)


def minres(system, precond, b, tol=1e-10, max_iter=500, stop="abs"):
    """Preconditioned minimal residual iteration from a zero initial guess.

    The system must be symmetric (definiteness is not required); the
    preconditioner must be SPD.  The tracked quantity is the preconditioned
    residual norm, which is non-increasing.  Returns ``(x, SolveReport)``.
    A right-hand side with a NaN or infinite entry raises ValueError before
    the first apply.
    """
    _check_stop(tol, max_iter, stop)
    amat = _as_matvec(system)
    papply = _Preconditioner(precond, "minres")
    b = _finite_rhs(b)

    n = b.size
    x = np.zeros(n)
    r1 = b.copy()
    y = papply(r1)
    beta1 = np.sqrt(_energy(r1, y, 0))
    history = [beta1]
    threshold = tol if stop == "abs" else tol * beta1
    if beta1 <= threshold:
        return x, papply.report(0, True, history)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1.copy()
    converged = False
    it = 0

    # Lanczos recursion on the preconditioned pencil with a QR update of the
    # tridiagonal factor; phibar tracks the preconditioned residual norm.
    while it < max_iter:
        it += 1
        v = y / beta
        y = amat(v)
        if it >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = papply(r2)
        oldb = beta
        beta = np.sqrt(_energy(r2, y, it))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.sqrt(gbar * gbar + beta * beta), np.finfo(float).tiny)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        history.append(abs(phibar))
        if abs(phibar) <= threshold:
            converged = True
            break
        if beta == 0.0:
            break

    return x, papply.report(it, converged, history)
