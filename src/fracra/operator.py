"""Shifted-solve realization of a partial fraction acting on a pencil.

An operator built from the form c0 + c1*x + sum(c_i / (x - p_i)) maps a
residual r to

    z = c0 * M^{-1} r + c1 * M^{-1} A M^{-1} r + sum_i c_i * (A - p_i M)^{-1} r,

which applies the reciprocal symbol of the pencil through one solve per pole;
the linear term reuses the mass solve of the constant term and adds one
matrix product and one more mass solve.

Every operator orders the unknowns once by reverse Cuthill-McKee on the
pattern of |A| + |M| and keeps the lower bands of A and M in that order.  The
definite shifts are factorized by LAPACK banded Cholesky (``pbtrf``) straight
from those bands, and the factorization is their definiteness check:

* the mass matrix and every real nonpositive pole give the SPD matrix
  A - p M;
* a real pole above the pencil's ``rho_bound`` gives a negative definite
  A - p M, so p M - A is factorized and the solve negated.

A factorization costs O(n kd^2) and a solve O(n kd) for half-bandwidth kd,
which is 2 for every 1D pencil and about the number of cells per side on the
unit square, where large meshes factorize slower than sparse LU would.  The
indefinite shifts, real poles in (0, rho_bound] and complex conjugate pairs,
are factorized by sparse LU (``splu``) of the reordered matrix.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

__all__ = [
    "FactorizationError",
    "RationalOperator",
    "SpdAuditReport",
    "spd_audit",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class FactorizationError(RuntimeError):
    """A shifted matrix could not be factorized (or is not definite where required)."""


def _half_bandwidth(matrix):
    coo = matrix.tocoo()
    return int(np.max(coo.row - coo.col, initial=0))


def _lower_band(matrix, kd):
    """LAPACK lower band storage: ``band[i - j, j] = matrix[i, j]`` for i >= j."""
    coo = matrix.tocoo()
    low = coo.row >= coo.col
    band = np.zeros((kd + 1, matrix.shape[0]), order="F")
    band[coo.row[low] - coo.col[low], coo.col[low]] = coo.data[low]
    return band


class _BandCholesky:
    """Banded Cholesky factor L of an SPD matrix given by its lower bands.

    A failed pivot, or a smallest pivot L_ii^2 at most n*eps times the
    largest, raises FactorizationError.  Factor entries below the smallest
    normal double are set to zero: on a closed curve in reverse Cuthill-McKee
    order the fill coupling the two arms of the ordering decays geometrically
    through the subnormal range, and subnormal operands make every later
    solve several times slower, while the flush moves the solution by less
    than 1e-300 relative.
    """

    def __init__(self, band, label):
        factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise FactorizationError(
                f"shifted matrix for {label} is not positive definite (pbtrf info {info})"
            )
        pivots = factor[0] ** 2
        if pivots.min() <= factor.shape[1] * _EPS * pivots.max():
            raise FactorizationError(
                f"shifted matrix for {label} is numerically singular "
                f"(pivot ratio {pivots.min() / pivots.max():.3e})"
            )
        factor[np.abs(factor) < _TINY] = 0.0
        self.factor = factor
        self.nnz = int(np.count_nonzero(factor))

    def solve(self, rhs):
        x, _info = dpbtrs(self.factor, rhs, lower=1)
        return x


def _sparse_lu(matrix, label):
    """Sparse LU of an indefinite or complex shift; the result has ``solve`` and ``nnz``."""
    try:
        return splu(matrix.tocsc())
    except RuntimeError as exc:
        raise FactorizationError(f"factorization failed for {label}: {exc}") from exc


class RationalOperator:
    """Applies a partial fraction to a pencil via cached shifted solves.

    Conjugate pole pairs share one complex factorization; the pair contributes
    2*Re(c*w) so the output stays real.  A linear coefficient c1 is realized
    as c1 * M^{-1} A y with y = M^{-1} r the mass solve the constant term
    already needs, and costs nothing when c1 = 0.  Every term is accumulated
    in the reverse Cuthill-McKee order of the pencil, so an apply permutes its
    input once and its output once.  Contributions are accumulated in
    ascending |pole| order, which makes repeated applies bitwise reproducible.

    Only real poles in (0, rho_bound] warn: their shifted matrix may be
    indefinite, so it is solved by sparse LU without a definiteness check.  A
    built operator is immutable apart from its telemetry counters, so
    concurrent applies are safe when the telemetry is not needed.
    """

    def __init__(self, pf, pencil):
        self.pf = pf
        self.pencil = pencil
        pattern = (abs(pencil.A) + abs(pencil.M)).tocsr()
        self._perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        A = pencil.A.tocsr()[self._perm][:, self._perm]
        M = pencil.M.tocsr()[self._perm][:, self._perm]
        self._A = A
        kd = max(_half_bandwidth(A), _half_bandwidth(M))
        a_band, m_band = _lower_band(A, kd), _lower_band(M, kd)
        self.apply_count = 0

        units = []
        for k in pf._real_idx:
            units.append(("real", pf.poles[k].real, pf.residues[k].real))
        for k in pf._pair_idx:
            units.append(("pair", pf.poles[k], pf.residues[k]))
        units.sort(key=lambda u: (abs(u[1]), u[1].real, abs(u[1].imag)))

        rho = pencil.rho_bound
        tic = time.perf_counter()
        self._mass_solver = _BandCholesky(m_band.copy(order="F"), "mass matrix")
        factor_seconds = [time.perf_counter() - tic]
        factor_nnz = [self._mass_solver.nnz]
        # Each term is (kind, pole, weight, solver); the weight is the residue,
        # negated where the solver factorizes p M - A instead of A - p M.
        self._terms = []
        for kind, pole, residue in units:
            tic = time.perf_counter()
            label = f"pole {pole:.6e}"
            weight = residue
            if kind == "pair":
                solver = _sparse_lu(A.astype(complex) - pole * M, label)
            elif pole <= 0:
                solver = _BandCholesky(a_band - pole * m_band, label)
            elif 0 < rho < pole:
                solver = _BandCholesky(pole * m_band - a_band, label)
                weight = -residue
            else:
                warnings.warn(
                    f"positive pole {pole:.3e} not above rho_bound {rho:.3e}: "
                    "shifted matrix may be indefinite, solving it by sparse LU",
                    RuntimeWarning,
                )
                solver = _sparse_lu(A - pole * M, label)
            self._terms.append((kind, pole, weight, solver))
            factor_seconds.append(time.perf_counter() - tic)
            factor_nnz.append(int(solver.nnz))
        self.factor_seconds = factor_seconds
        self.factor_nnz = factor_nnz
        self.shift_seconds = np.zeros(len(self._terms) + 1)

    @property
    def n(self):
        return self.pencil.n_c

    @property
    def n_poles(self):
        return self.pf.degree

    @property
    def solves_per_apply(self):
        """Mass solve, a second one for a linear term, and one solve per real
        pole or conjugate pair."""
        return 1 + int(self.pf.c1 != 0.0) + len(self._terms)

    def apply(self, r):
        """z = c0 M^{-1} r + c1 M^{-1} A M^{-1} r + sum_i c_i (A - p_i M)^{-1} r.

        The output is real; ``shift_seconds[0]`` times the mass solves of the
        constant and linear terms.
        """
        r = np.asarray(r, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        rp = r[self._perm]
        tic = time.perf_counter()
        c0, c1 = self.pf.c0, self.pf.c1
        if c0 != 0.0 or c1 != 0.0:
            y = self._mass_solver.solve(rp)
            z = c0 * y
            if c1 != 0.0:
                z = z + c1 * self._mass_solver.solve(self._A @ y)
        else:
            z = np.zeros_like(rp)
        self.shift_seconds[0] += time.perf_counter() - tic
        for k, (kind, _pole, weight, solver) in enumerate(self._terms):
            tic = time.perf_counter()
            if kind == "real":
                z = z + weight * solver.solve(rp)
            else:
                w = solver.solve(rp.astype(complex))
                z = z + 2.0 * np.real(weight * w)
            self.shift_seconds[k + 1] += time.perf_counter() - tic
        self.apply_count += 1
        out = np.empty_like(z)
        out[self._perm] = z
        return out

    @property
    def telemetry(self):
        """Apply counters plus per-shift factorization time and stored factor
        entries; the per-shift lists share the order of ``shift_seconds``
        (the mass matrix first)."""
        return {
            "apply_count": self.apply_count,
            "solves_per_apply": self.solves_per_apply,
            "shift_seconds": self.shift_seconds.tolist(),
            "factor_seconds": list(self.factor_seconds),
            "factor_nnz": list(self.factor_nnz),
        }


@dataclass(frozen=True)
class SpdAuditReport:
    """Random-probe estimates of definiteness and symmetry of the realized map."""

    min_rayleigh: float
    max_symmetry_defect: float
    trials: int

    @property
    def positive_definite(self):
        return self.min_rayleigh > 0


def spd_audit(operator, trials, seed=0):
    """Probe the operator with random vector pairs.

    Reports the smallest Rayleigh quotient <z, r> / <r, r> over the trials and
    the largest relative symmetry defect |<apply(r), q> - <r, apply(q)>|.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = operator.n
    min_ray = np.inf
    defect = 0.0
    for _ in range(trials):
        r = rng.standard_normal(n)
        q = rng.standard_normal(n)
        zr = operator.apply(r)
        zq = operator.apply(q)
        min_ray = min(min_ray, float(zr @ r) / float(r @ r))
        scale = np.linalg.norm(zr) * np.linalg.norm(q) + np.linalg.norm(zq) * np.linalg.norm(r)
        defect = max(defect, abs(float(zr @ q) - float(r @ zq)) / max(scale, np.finfo(float).tiny))
    return SpdAuditReport(float(min_ray), float(defect), trials)
