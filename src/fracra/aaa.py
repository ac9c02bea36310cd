"""Greedy barycentric rational fitting and pole/residue conversion.

The fitter is one greedy pass: it picks support points where the current
deviation is largest and solves for barycentric weights with the smallest
singular vector of the column-equilibrated Loewner matrix restricted to the
remaining samples.  Each step rebuilds both matrices in buffers allocated
once per fit, and the weights come from one SVD, of the m x m R factor of
the Loewner matrix, which LAPACK ``dgeqrf`` computes in place.  Fitted
interpolants are converted to the partial fraction form
``c0 + c1*x + sum(c_i / (x - p_i))`` whose poles drive the shifted-solve
operators in :mod:`fracra.operator`; the linear term carries a pole of the
interpolant at infinity.  The coefficients are the least-squares fit of the
interpolant on its grid in the Cauchy basis of the poles, solved by
Householder QR.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr

from .functions import (
    FractionalSumFunction,
    evaluate,
    normalize,
    sample_grid,
    to_unit_interval,
)

__all__ = [
    "BarycentricForm",
    "PartialFraction",
    "PoleAudit",
    "PoleExtractionError",
    "aaa_fit",
    "bary_eval",
    "to_partial_fraction",
    "eval_pf",
    "sup_error",
    "scale_to_interval",
    "denormalize",
    "fit_fractional_sum",
    "fit_for_pencil",
    "partial_fraction_to_dict",
    "partial_fraction_from_dict",
]

# |Im p| below this (relative to the pole scale) is eigensolver noise.
REAL_IMAG_RTOL = 1e-11
# A real pole with |p| at most this counts as a pole at zero.
ZERO_POLE_ATOL = 1e-10
# Residues smaller than this (relative to the largest) mark spurious
# pole/zero cancellation pairs and are dropped.
FROISSART_RTOL = 1e-13
# Default lower end of the fit grid, relative to the interval length. The
# tolerance is absolute, so the window must keep the sampled values below
# roughly tolerance/eps for the fit to be able to terminate; deep floors also
# force the root-exponential regime of fractional-power approximation and
# inflate the pole count beyond what the MAX_DEGREE budget can absorb.
DEFAULT_FLOOR_RATIO = 5e-3
# The greedy loop stops once the deviation is safely below tolerance. Iterates
# that only just meet the target are transitional and occasionally carry stray
# positive or complex denominator roots that the next step resolves.
STOP_SAFETY = 0.5
# A real pole beyond this multiple of the fit grid's extent is a candidate for
# the pole at infinity, folded into the linear term of the partial fraction.
FOLD_RATIO = 1e3
# Default cap on the support additions of a fit beyond the first.
MAX_DEGREE = 30
# Default grid samples of a scalar fit, on the window of its floor ratio.
FIT_SAMPLES = 750
# Grid samples of a pencil fit.
PENCIL_SAMPLES = 1000


class PoleExtractionError(RuntimeError):
    """Pole or residue computation from a barycentric form failed."""


@dataclass
class BarycentricForm:
    """Rational interpolant sum(w*f/(x-z)) / sum(w/(x-z)).

    ``achieved_error`` is the largest absolute deviation on the non-support
    samples of the returned iterate, and ``converged`` says whether it is
    within ``tolerance``.  ``error_history`` holds the best such deviation
    achieved up to each iteration and is therefore non-increasing.
    """

    support_points: np.ndarray
    support_values: np.ndarray
    weights: np.ndarray
    achieved_error: float
    tolerance: float
    error_history: tuple = ()
    grid: np.ndarray = field(default=None, repr=False)
    grid_values: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.support_points = np.asarray(self.support_points, dtype=float)
        self.support_values = np.asarray(self.support_values, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        m = self.support_points.size
        if self.support_values.size != m or self.weights.size != m:
            raise ValueError("support points, values and weights must have equal length")
        if m == 0:
            raise ValueError("a barycentric form needs at least one support point")
        if np.unique(self.support_points).size != m:
            raise ValueError("support points must be pairwise distinct")
        if not np.any(self.weights):
            raise ValueError("weights must not all be zero")
        if self.achieved_error < 0:
            raise ValueError("achieved_error must be nonnegative")

    @property
    def degree(self):
        return self.support_points.size - 1

    @property
    def converged(self):
        return bool(self.achieved_error <= self.tolerance)

    def __call__(self, x):
        return bary_eval(self, x)


def bary_eval(form, x):
    """Evaluate a barycentric form at scalar or array ``x``.

    Points that hit a support node exactly return the stored node value.
    """
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    zj, fj, wj = form.support_points, form.support_values, form.weights
    diff = xv[:, None] - zj[None, :]
    hit_row, hit_col = np.nonzero(diff == 0.0)
    diff[hit_row, hit_col] = 1.0
    cauchy = np.divide(1.0, diff, out=diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (cauchy @ (wj * fj)) / (cauchy @ wj)
    out[hit_row] = fj[hit_col]
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(x))


def aaa_fit(x, y, tolerance, max_degree=MAX_DEGREE):
    """Fit a barycentric rational approximant to the samples ``(x, y)``.

    Support points are added greedily at the sample of largest deviation until
    the absolute deviation on the remaining samples drops safely below
    ``tolerance`` or ``max_degree`` support additions beyond the first have
    been made.  The deviation can oscillate between iterations, so the best
    iterate seen is returned; ``converged`` is False when the target was
    missed.

    Each step rebuilds the Cauchy and Loewner matrices on the remaining
    samples, in row-major buffers allocated once per fit.  The weights are
    the last right singular vector of the m x m R factor of the
    column-equilibrated Loewner matrix, which has the singular values and
    right singular vectors of the tall matrix; its SVD needs no left singular
    vectors, and each step takes one.  R comes from LAPACK ``dgeqrf`` run in
    place on a column-major copy, with its workspace sized once per fit.
    The fit is one greedy pass, also when it misses the tolerance.  The
    support points are returned in ascending order.

    A rank-deficient weight solve (the data is exactly rational of lower
    degree) is reported with a RuntimeWarning and the smallest singular vector
    is used regardless.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("sample abscissae and values must have equal length")
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0 < tolerance < np.inf:
        raise ValueError("tolerance must be positive and finite")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    if np.any(np.diff(x) == 0):
        raise ValueError("sample abscissae must be distinct")

    # The greedy stops only once the deviation is safely inside the tolerance,
    # but convergence is judged against the tolerance itself.
    target = STOP_SAFETY * tolerance
    # The matrices of the remaining samples are rebuilt in buffers allocated
    # once (zeroed support rows would change the rounding of the BLAS sums).
    n = x.size
    steps = min(n, max_degree + 1)
    cauchy_buf = np.empty(n * steps)
    loewner_buf = np.empty(n * steps)
    scaled_buf = np.empty(n * steps)
    # dgeqrf leaves its Householder vectors below R's diagonal.
    below_diagonal = np.tri(steps, k=-1, dtype=bool)
    lwork = int(dgeqrf_lwork(n, steps)[0])
    in_support = np.zeros(n, dtype=bool)
    # |y - approx|, zero on the support points.
    deviation = np.abs(y - y.mean())
    best = None
    history = []
    warned_degenerate = False

    for m in range(1, steps + 1):
        # Greedy pick: argmax returns the first (smallest abscissa) on ties.
        j = int(np.argmax(deviation))
        deviation[j] = 0.0
        in_support[j] = True
        idx_s = np.flatnonzero(in_support)
        idx_r = np.flatnonzero(~in_support)
        zj, fj = x[idx_s], y[idx_s]
        rows = idx_r.size
        yr = y[idx_r]

        cauchy = cauchy_buf[:rows * m].reshape(rows, m)
        loewner = loewner_buf[:rows * m].reshape(rows, m)
        np.subtract.outer(x[idx_r], zj, out=cauchy)
        np.divide(1.0, cauchy, out=cauchy)
        np.subtract.outer(yr, fj, out=loewner)
        loewner *= cauchy
        # The scaled copy is column-major, as LAPACK works, and dgeqrf
        # factorizes it in place; its R factor keeps the singular values and
        # right singular vectors, and needs no U.
        scaled = scaled_buf[:rows * m].reshape(m, rows)
        col_scale = np.sqrt(np.einsum("ij,ij->j", loewner, loewner))
        col_scale[col_scale == 0.0] = 1.0
        np.divide(loewner.T, col_scale[:, None], out=scaled)
        if rows:  # none remain once every sample is a support point
            _, _, _, info = dgeqrf(scaled.T, lwork=lwork, overwrite_a=True)
            if info:
                raise np.linalg.LinAlgError(f"QR factorization failed (dgeqrf info {info})")
        r = scaled.T[:min(rows, m)]
        r[below_diagonal[:r.shape[0], :m]] = 0.0
        _, sing, vh = np.linalg.svd(r)
        wj = vh[-1, :] / col_scale
        wj /= np.sqrt(wj.dot(wj))
        if not warned_degenerate and sing.size >= 2 and (
                sing[-2] <= 1e-14 * max(sing[0], np.finfo(float).tiny)):
            warnings.warn(
                "rank-deficient barycentric weight solve; the data is rational "
                "of lower degree and the interpolant is not unique",
                RuntimeWarning,
            )
            warned_degenerate = True

        with np.errstate(divide="ignore", invalid="ignore"):
            deviation[idx_r] = np.abs(yr - (cauchy @ (wj * fj)) / (cauchy @ wj))

        err = np.max(deviation)
        err = float(err) if np.isfinite(err) else float("inf")
        if best is None or err < best[3]:
            best = (zj, fj, wj, err)
        history.append(min(err, history[-1]) if history else err)
        if err <= target:
            break

    zj, fj, wj, err_best = best
    return BarycentricForm(
        zj,
        fj,
        wj,
        err_best,
        tolerance,
        error_history=tuple(history),
        grid=x,
        grid_values=y,
    )


@dataclass(frozen=True)
class PoleAudit:
    """Counts of pole locations; complex_pair counts poles living in pairs."""

    real_negative: int
    real_zero: int
    real_positive: int
    complex_pair: int

    @property
    def total(self):
        return self.real_negative + self.real_zero + self.real_positive + self.complex_pair

    @property
    def all_real_nonpositive(self):
        return self.real_positive == 0 and self.complex_pair == 0

    def as_dict(self):
        return {
            "real_negative": self.real_negative,
            "real_zero": self.real_zero,
            "real_positive": self.real_positive,
            "complex_pair": self.complex_pair,
        }


def _audit_poles(p, pair):
    """Counts of the poles of the terms ``(p, c, pair)`` of a form."""
    realp = p[~pair].real
    zero = int(np.count_nonzero(np.abs(realp) <= ZERO_POLE_ATOL))
    negative = int(np.count_nonzero(realp < -ZERO_POLE_ATOL))
    positive = int(np.count_nonzero(realp > ZERO_POLE_ATOL))
    return PoleAudit(negative, zero, positive, 2 * int(np.count_nonzero(pair)))


@dataclass
class PartialFraction:
    """Pole/residue form c0 + c1*x + sum(c_i / (x - p_i)).

    Complex poles must come in exact conjugate pairs with conjugate residues,
    and residues attached to real poles must be real, so that evaluation is
    real on real arguments.  The linear coefficient ``c1`` (0 unless the
    fitted interpolant has a pole at infinity) is a keyword field, so forms
    built from positional arguments have none.  ``tolerance`` records the
    absolute deviation target the fit was run at and ``fit_error`` the
    deviation it achieved on the fit grid; both refer to the normalized
    unit-interval fit and are left untouched by rescaling.
    ``validation_error`` is the largest deviation of this converted form from
    the normalized target where it was validated (None when unknown):
    :func:`to_partial_fraction` validates on the fit grid, and
    :func:`fit_fractional_sum` also at the geometric midpoints between the
    grid points.  ``converged`` is
    derived, the verdict ``max(fit_error, validation_error) <= tolerance``
    (``fit_error`` alone when ``validation_error`` is unknown, None when
    ``fit_error`` is), and so survives rescaling.  ``terms`` is the arrays
    ``(p, c, pair)``: the real poles and the upper pole of each conjugate
    pair in ascending |pole| order, their residues, and the mask of the
    pairs; it and ``pole_audit`` are derived from the poles at construction.
    So the form keeps read-only copies of ``poles``, ``residues`` and the
    ``terms`` arrays, and reassigning ``poles``, ``residues``, ``c0`` or
    ``c1`` raises AttributeError; :func:`dataclasses.replace` makes a new
    form instead.
    """

    c0: float
    residues: np.ndarray
    poles: np.ndarray
    tolerance: float
    fit_error: float = None
    validation_error: float = None
    c1: float = 0.0
    pole_audit: PoleAudit = field(init=False)
    terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.residues = _read_only(np.array(self.residues, dtype=complex, ndmin=1))
        self.poles = _read_only(np.array(self.poles, dtype=complex, ndmin=1))
        if self.residues.size != self.poles.size:
            raise ValueError("residues and poles must have equal length")
        self.c0 = float(self.c0)
        self.c1 = float(self.c1)
        real_mask = self.poles.imag == 0.0
        if np.any(self.residues[real_mask].imag != 0.0):
            raise ValueError("residues of real poles must be real")
        nonreal = ~real_mask
        if np.any(nonreal):
            units = Counter(zip(self.poles[nonreal].tolist(), self.residues[nonreal].tolist()))
            mirrored = Counter(
                (np.conj(p), np.conj(c)) for (p, c) in units.elements()
            )
            if units != mirrored:
                raise ValueError("complex poles must form exact conjugate pairs with conjugate residues")
        idx = np.flatnonzero(self.poles.imag >= 0.0)
        idx = idx[_by_modulus(self.poles[idx])]
        p = self.poles[idx]
        self.terms = tuple(map(_read_only, (p, self.residues[idx], p.imag > 0.0)))
        self.pole_audit = _audit_poles(p, self.terms[2])

    def __setattr__(self, name, value):
        # terms and pole_audit are derived from the poles and residues, and
        # an operator's weights from the residues and c0.
        if name in ("poles", "residues", "c0", "c1") and "terms" in self.__dict__:
            raise AttributeError(
                f"{name} of a PartialFraction is fixed; use dataclasses.replace")
        super().__setattr__(name, value)

    @property
    def degree(self):
        return self.poles.size

    @property
    def converged(self):
        if self.fit_error is None:
            return None
        return all(e is None or e <= self.tolerance
                   for e in (self.fit_error, self.validation_error))

    def __call__(self, x):
        return eval_pf(self, x)


def _read_only(a):
    a.flags.writeable = False
    return a


def _symmetrize_conjugates(poles, residues):
    """Strip eigensolver noise off real poles and average each complex pole
    with its nearest conjugate.  Returns complex ``(p, c, pair)``: the real
    poles first, then each conjugate pair as its upper pole, and the mask of
    the pairs.  Raises PoleExtractionError if a complex pole has no
    conjugate."""
    poles = np.asarray(poles, dtype=complex)
    residues = np.asarray(residues, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(poles))) if poles.size else 1.0)
    real_mask = np.abs(poles.imag) <= REAL_IMAG_RTOL * scale

    cpoles = poles[~real_mask]
    cres = residues[~real_mask]
    upper = sorted(
        np.flatnonzero(cpoles.imag > 0), key=lambda k: (cpoles[k].real, cpoles[k].imag)
    )
    lower = list(np.flatnonzero(cpoles.imag < 0))
    if len(upper) != len(lower):
        raise PoleExtractionError(
            f"unpaired complex pole: {len(upper)} above the real axis, {len(lower)} below")
    partner = []
    for i in upper:
        partner.append(min(lower, key=lambda k: abs(np.conj(cpoles[i]) - cpoles[k])))
        lower.remove(partner[-1])
    upper, partner = np.array(upper, dtype=int), np.array(partner, dtype=int)
    p = np.concatenate([poles[real_mask].real,
                        0.5 * (cpoles[upper] + np.conj(cpoles[partner]))], dtype=complex)
    c = np.concatenate([residues[real_mask].real,
                        0.5 * (cres[upper] + np.conj(cres[partner]))], dtype=complex)
    return p, c, np.arange(p.size) >= np.count_nonzero(real_mask)


def _by_modulus(poles):
    """Stable order of ``poles`` by ascending |p|, then Re p, then |Im p|."""
    return np.lexsort((np.abs(poles.imag), poles.real, np.abs(poles)))


def _polish_poles(poles, zj, wj):
    """Newton-refine roots of the barycentric denominator sum(w/(x-z)).

    The arrowhead eigensolve locates poles with absolute accuracy only, which
    is poor relative accuracy for poles much smaller than the support scale.
    Up to ten Newton steps on the denominator restore componentwise accuracy;
    a pole's step is kept only while it decreases |denominator|, and that
    pole stops at the first step that does not.
    """
    polished = np.array(poles, dtype=complex)
    with np.errstate(all="ignore"):
        best_val = np.abs((wj / (polished[:, None] - zj)).sum(axis=1))
        active = np.arange(polished.size)
        for _ in range(10):
            if active.size == 0:
                break
            current = polished[active]
            diff = current[:, None] - zj
            step = (wj / diff).sum(axis=1) / -(wj / diff**2).sum(axis=1)
            candidate = current - step
            cval = np.abs((wj / (candidate[:, None] - zj)).sum(axis=1))
            # A node hit or a vanishing derivative gives a non-finite value.
            ok = np.isfinite(step) & np.isfinite(cval) & (cval < best_val[active])
            polished[active[ok]] = candidate[ok]
            best_val[active[ok]] = cval[ok]
            tiny_step = np.abs(step) <= 4 * np.finfo(float).eps * (
                np.abs(candidate) + np.finfo(float).tiny)
            active = active[ok & ~tiny_step]
    return polished


def _refit_residues(p, pair, x, values, linear=False):
    """Re-solve the constant term and residues with the poles held fixed.

    The pole-limit formula loses a few digits for exponentially clustered pole
    sets, so the coefficients are recomputed as the least-squares projection
    of the interpolant values onto the Cauchy basis at the fixed poles ``p``,
    plus the column x when ``linear`` is set.  Each conjugate pair (``pair``
    marks its upper pole) is folded to two real columns, keeping the pairing
    exact; the real poles' columns come first, then the pairs' interleaved.
    The column-scaled basis is built column-major and reduced by Householder
    QR (``dgeqrf``, then ``dormqr`` for Q^T values); the k x k triangle is
    solved by minimum-norm ``lstsq`` with singular values below
    eps * max(n, k) times the largest cut, the truncation an SVD solve of the
    tall basis applies.  Returns ``(residues, c0, c1)``, the residues in the
    order of ``p``.  Raises PoleExtractionError when ``dgeqrf`` or ``dormqr``
    reports a nonzero info or a coefficient is not finite.
    """
    head = 1 + int(linear)
    real_poles, upper = p[~pair].real, p[pair]
    start = head + real_poles.size  # the first column of the pairs
    k = start + 2 * upper.size
    basis = np.empty((x.size, k), order="F")
    basis[:, 0] = 1.0
    if linear:
        basis[:, 1] = x
    np.divide(1.0, x[:, None] - real_poles, out=basis[:, head:start])
    q = 1.0 / (x[:, None] - upper)
    np.multiply(2.0, q.real, out=basis[:, start::2])
    np.multiply(-2.0, q.imag, out=basis[:, start + 1::2])
    col_scale = np.linalg.norm(basis, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    basis /= col_scale
    # The optimal dgeqrf workspace, k times the block size, also covers dormqr
    # on one column.
    lwork = int(dgeqrf_lwork(x.size, k)[0])
    qr, tau, _, qr_info = dgeqrf(basis, lwork=lwork, overwrite_a=True)
    qtb, _, info = dormqr("L", "T", qr, tau, values[:, None], lwork)
    if qr_info or info:
        raise PoleExtractionError(
            f"residue least squares failed (dgeqrf info {qr_info}, dormqr info {info})")
    coef, *_ = np.linalg.lstsq(np.triu(qr[:k]), qtb[:k, 0],
                               rcond=np.finfo(float).eps * max(x.size, k))
    coef = coef / col_scale
    if not np.all(np.isfinite(coef)):
        raise PoleExtractionError("residue least squares gave a non-finite coefficient")
    c1 = float(coef[1]) if linear else 0.0
    residues = np.empty(p.size, dtype=complex)
    residues[~pair] = coef[head:start]
    residues[pair] = coef[start:].view(complex)  # (Re, Im) column pairs
    return residues, float(coef[0]), c1


def _checked_form(p, pair, c, c0, c1, form):
    """Partial fraction of the terms ``c / (x - p)``, each pair given by its
    upper pole, validated against the form's samples.  The poles are sorted
    by :func:`_by_modulus`, each upper pole followed by its conjugate."""
    order = _by_modulus(p)
    p, pair, c = p[order], pair[order], c[order]
    poles, residues = np.repeat(p, 1 + pair), np.repeat(c, 1 + pair)
    lower = np.cumsum(1 + pair)[pair] - 1
    poles[lower], residues[lower] = np.conj(p[pair]), np.conj(c[pair])
    pf = PartialFraction(c0, residues, poles, form.tolerance,
                         fit_error=form.achieved_error, c1=c1)
    deviation = np.max(np.abs(eval_pf(pf, form.grid) - form.grid_values))
    pf.validation_error = float(deviation)
    return pf


def to_partial_fraction(form):
    """Convert a barycentric interpolant to pole/residue form.

    The form must carry its fit grid in ascending order, as every form of
    :func:`aaa_fit` does; a form without one raises ValueError.  Poles are the finite generalized
    eigenvalues of the arrowhead pencil built from the weights and support
    points, polished by Newton steps on the barycentric denominator.
    Residues start from the numerator over the denominator derivative at each
    pole and are then re-solved by least squares on the grid, which keeps the
    converted form consistent with the interpolant to machine level.
    A pole whose residue is not finite, as one exactly on a support node, is
    dropped with a RuntimeWarning.  Spurious poles with negligible residues
    are dropped and the form is validated on the grid points only: its
    ``validation_error`` is the largest deviation from the grid samples.

    An interpolant whose denominator has lost a degree (weights summing to
    zero) has a pole at infinity, which the eigensolve returns as a huge or
    infinite eigenvalue.  The largest real pole beyond ``FOLD_RATIO`` times
    the grid, or the lost pole, is then folded into the linear term ``c1*x``,
    with c0, c1 and the remaining residues re-solved by least squares.  The
    fold is kept only if the folded form meets the fit tolerance on the
    samples and its deviation there is at most the larger of the unfolded
    form's and the interpolant's, so a genuine large pole is not traded for a
    worse form.

    A one-node (constant) form has no finite eigenvalue and converts to c0.

    Raises PoleExtractionError when the eigenvalue computation or the
    least-squares re-solve fails, a complex pole has no conjugate partner, or
    a coefficient is not finite, and warns about nearly coincident poles.
    """
    if form.grid is None:
        raise ValueError("conversion needs the fit grid the form was fitted on")
    zj, fj, wj = form.support_points, form.support_values, form.weights
    m = zj.size
    arrow = np.zeros((m + 1, m + 1))
    arrow[0, 1:] = wj
    arrow[1:, 0] = 1.0
    arrow[1:, 1:] = np.diag(zj)
    mass = np.eye(m + 1)
    mass[0, 0] = 0.0
    try:
        eigvals = scipy.linalg.eigvals(arrow, mass)
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise PoleExtractionError(f"generalized eigenvalue solve failed: {exc}") from exc
    finite_eigs = eigvals[np.isfinite(eigvals)]
    # The denominator has degree m - 1; fewer finite roots means one
    # went to infinity.
    at_infinity = finite_eigs.size < m - 1
    poles = _polish_poles(finite_eigs, zj, wj)
    # A pole exactly on a support node, a spurious zero/pole cancellation
    # there, has 1/0 in its Cauchy row and so a non-finite residue.
    with np.errstate(divide="ignore", invalid="ignore"):
        cauchy = 1.0 / (poles[:, None] - zj[None, :])
        numer = cauchy @ (wj * fj)
        dderiv = (-(cauchy**2)) @ wj
        residues = numer / dderiv
    finite = np.isfinite(residues)
    if not np.all(finite):
        warnings.warn("dropping pole with non-finite residue", RuntimeWarning)
        poles, residues = poles[finite], residues[finite]
    if poles.size >= 2:
        sorted_p = np.sort_complex(poles)
        gaps = np.abs(np.diff(sorted_p))
        if np.any(gaps <= 1e-12 * max(1.0, float(np.max(np.abs(poles))))):
            warnings.warn("nearly coincident pole pair detected", RuntimeWarning)

    p, c, pair = _symmetrize_conjugates(poles, residues)

    grid = form.grid
    values = bary_eval(form, grid)
    if p.size:
        # Spurious-pole cleanup, one keep-mask of two tests: a residue that
        # vanishes relative to the largest one marks a zero/pole cancellation
        # pair, and a largest contribution over the grid far below the
        # deviation target marks a pole the approximant does not actually
        # use.  Either way pruning moves the approximant by less than the
        # deviation target.
        size = np.abs(c)
        # |x - p| is smallest at a grid neighbour of Re p.
        hi = np.minimum(np.searchsorted(grid, p.real), grid.size - 1)
        lo = np.maximum(hi - 1, 0)
        gap = np.minimum(np.abs(grid[lo] - p.real), np.abs(grid[hi] - p.real))
        dist = np.maximum(np.hypot(gap, p.imag), np.finfo(float).tiny)
        weight = np.where(pair, 2.0, 1.0) * size
        keep = ((size > FROISSART_RTOL * size.max())
                & (weight / dist > 0.05 * form.tolerance))
        p, pair = p[keep], pair[keep]
        pf = _checked_form(p, pair, *_refit_residues(p, pair, grid, values), form)
    else:
        # A constant interpolant keeps its exact barycentric value as c0.
        with np.errstate(divide="ignore", invalid="ignore"):
            c0 = float((wj * fj).sum() / wj.sum())
        pf = _checked_form(p, pair, c, c0, 0.0, form)

    reach = FOLD_RATIO * np.max(np.abs(grid))
    modulus = np.where(pair, 0.0, np.abs(p))  # of the real poles
    far = np.max(modulus, initial=0.0) > reach
    if far or at_infinity:
        # The farthest real pole beyond reach, if any, becomes the linear term.
        keep = np.arange(p.size) != (np.argmax(modulus) if far else -1)
        p, pair = p[keep], pair[keep]
        folded = _checked_form(
            p, pair, *_refit_residues(p, pair, grid, values, linear=True), form)
        bound = min(form.tolerance,
                    max(pf.validation_error, form.achieved_error))
        if folded.validation_error <= bound:
            pf = folded
    if not np.isfinite(pf.c0):
        raise PoleExtractionError("interpolant has no finite value at infinity")
    return pf


def eval_pf(pf, x):
    """Evaluate a partial fraction at scalar or array ``x``.

    Conjugate pairs are folded as 2*Re(c/(x-p)) so the result is real.
    Raises ValueError when an evaluation point hits a real pole exactly.
    """
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    out = np.full(xv.shape, pf.c0)
    if pf.c1 != 0.0:
        out += pf.c1 * xv
    p, c, pair = pf.terms
    if not pair.all():
        diff = xv[:, None] - p[~pair].real[None, :]
        if np.any(diff == 0.0):
            raise ValueError("evaluation at a real pole is undefined")
        out += (1.0 / diff) @ c[~pair].real
    for pk, ck in zip(p[pair], c[pair]):
        out += 2.0 * np.real(ck / (xv - pk))
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(x))


def sup_error(pf, func, validation_grid):
    """Largest absolute deviation |func(x) - pf(x)| over the grid."""
    grid = np.asarray(validation_grid, dtype=float)
    return float(np.max(np.abs(evaluate(func, grid) - eval_pf(pf, grid))))


def scale_to_interval(pf, rho):
    """Push a fit on (0, 1] forward to (0, rho].

    Poles and residues are multiplied by rho, the linear coefficient is
    divided by rho and the constant term is kept, so the scaled form at x
    equals the original at x/rho identically.
    """
    if rho <= 0:
        raise ValueError("interval scaling factor must be positive")
    return replace(pf, residues=pf.residues * rho, poles=pf.poles * rho,
                   c1=pf.c1 / rho)


def denormalize(pf, leading_weight):
    """Undo the unit-leading-weight rescaling: divide c0, c1 and residues."""
    if leading_weight <= 0:
        raise ValueError("leading_weight must be positive")
    return replace(pf, c0=pf.c0 / leading_weight,
                   residues=pf.residues / leading_weight,
                   c1=pf.c1 / leading_weight)


def fit_fractional_sum(func, tolerance, max_degree=MAX_DEGREE, n_samples=FIT_SAMPLES,
                       floor_ratio=DEFAULT_FLOOR_RATIO, fits=None):
    """Fit the reciprocal fractional-sum ``func`` on its interval.

    The function is pulled back to (0, 1], its dominant weight divided out,
    fitted on a logarithmic grid of ``n_samples`` points, converted to
    pole/residue form, and the two rescalings undone.  The returned form
    approximates ``func`` on the sampled window [floor_ratio *
    interval_upper, interval_upper], not on all of (0, interval_upper]:
    below the window it is unconstrained and may carry poles, positive ones
    included.

    The converted normalized form is validated on the grid and at the
    geometric midpoints ``sqrt(x[:-1] * x[1:])`` between its points, against
    the normalized target; ``validation_error`` is the larger of the two
    deviations, so ``converged`` also judges the form between its samples.

    ``fits``, a dict the caller holds, reuses converted forms across calls.
    A fit that runs stores the validated normalized form, before the
    rescalings, under two keys: its call ``(func, tolerance, max_degree,
    n_samples, floor_ratio)``, which fixes the samples, and the SHA-256
    digest of the normalized samples with ``tolerance`` and ``max_degree``.
    A repeated call finds its form without sampling; another call whose
    samples are already in the dict finds it by the digest and stores
    nothing.  Either hit skips the fit, the conversion and the midpoint
    check, so the dict grows exactly when a fit runs, and the rescalings
    give the caller a new form, bitwise equal to a fresh fit's.
    """
    norm = normalize(to_unit_interval(func))
    fits = {} if fits is None else fits
    call = (func, tolerance, max_degree, n_samples, floor_ratio)
    pf = fits.get(call)
    if pf is None:
        xs, ys = sample_grid(norm.scaled, n_samples, floor_ratio)
        key = (hashlib.sha256(xs.tobytes() + ys.tobytes()).digest(), tolerance, max_degree)
        pf = fits.get(key)
        if pf is None:
            pf = to_partial_fraction(aaa_fit(xs, ys, tolerance, max_degree))
            mid = np.sqrt(xs[:-1] * xs[1:])
            between = np.max(np.abs(eval_pf(pf, mid) - evaluate(norm.scaled, mid)))
            # np.maximum keeps a NaN deviation, which max() could drop.
            pf.validation_error = float(np.maximum(pf.validation_error, between))
            fits[call] = fits[key] = pf
    # One form for both rescalings, each value in the order denormalize and
    # then scale_to_interval compute it.
    weight, rho = norm.leading_weight, func.interval_upper
    return replace(pf, c0=pf.c0 / weight, residues=pf.residues / weight * rho,
                   poles=pf.poles * rho, c1=pf.c1 / weight / rho)


def fit_for_pencil(alpha, beta, s, t, pencil, tolerance, floor_ratio=None, fits=None):
    """Fit 1/(alpha*x**s + beta*x**t) over the pencil's spectral interval.

    The fit interval is (0, rho] with rho the pencil's stored upper bound on
    the generalized spectrum, sampled at ``PENCIL_SAMPLES`` points, and the
    degree is at most ``MAX_DEGREE``.  By default the sample grid starts half
    a possible eigenvalue below the smallest one (the generalized spectrum of
    an assembled pencil lies in [lambda_min, rho] and the fit only has to be
    accurate there), which keeps the pole count low on fine meshes.
    ``fits`` is passed on to :func:`fit_fractional_sum`.
    """
    if floor_ratio is None:
        floor_ratio = min(DEFAULT_FLOOR_RATIO, 0.5 / pencil.rho_bound)
    func = FractionalSumFunction(alpha, beta, s, t, pencil.rho_bound)
    return fit_fractional_sum(func, tolerance, MAX_DEGREE, PENCIL_SAMPLES, floor_ratio,
                              fits=fits)


def partial_fraction_to_dict(pf):
    """JSON-ready dictionary with poles and residues as [re, im] pairs."""
    return {
        "schema": "fracra.partial_fraction/2",
        "c0": pf.c0,
        "c1": pf.c1,
        "poles": [[float(p.real), float(p.imag)] for p in pf.poles],
        "residues": [[float(c.real), float(c.imag)] for c in pf.residues],
        "tolerance": float(pf.tolerance),
        "audit": pf.pole_audit.as_dict(),
        "fit_error": None if pf.fit_error is None else float(pf.fit_error),
        "validation_error": (
            None if pf.validation_error is None else float(pf.validation_error)
        ),
        "converged": pf.converged,
    }


def partial_fraction_from_dict(data):
    """Inverse of :func:`partial_fraction_to_dict`.

    A dictionary without ``"c1"`` (schema 1, written before the linear term
    existed) reads as c1 = 0.  ``"converged"`` is ignored: the form derives it
    from ``fit_error``, ``validation_error`` and ``tolerance``.
    """
    poles = np.array([complex(re, im) for re, im in data["poles"]], dtype=complex)
    residues = np.array([complex(re, im) for re, im in data["residues"]], dtype=complex)
    return PartialFraction(
        data["c0"],
        residues,
        poles,
        data["tolerance"],
        fit_error=data.get("fit_error"),
        validation_error=data.get("validation_error"),
        c1=data.get("c1", 0.0),
    )
