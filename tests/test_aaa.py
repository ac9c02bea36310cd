import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import fracra.aaa as aaa_module
from fracra.aaa import (
    DEFAULT_FLOOR_RATIO,
    FIT_SAMPLES,
    STOP_SAFETY,
    BarycentricForm,
    PartialFraction,
    PoleExtractionError,
    aaa_fit,
    bary_eval,
    denormalize,
    eval_pf,
    fit_for_pencil,
    fit_fractional_sum,
    partial_fraction_from_dict,
    partial_fraction_to_dict,
    scale_to_interval,
    sup_error,
    to_partial_fraction,
)
from fracra.experiments import EXPONENT_GRID, POLE_SWEEP_ALPHAS, POLE_SWEEP_BETAS
from fracra.functions import FractionalSumFunction, evaluate, normalize, sample_grid
from fracra.pencil import assemble_interface

EPS = np.finfo(float).eps


def grid_of(func, n=2000, floor=DEFAULT_FLOOR_RATIO):
    return sample_grid(func, n, floor)


def test_constant_single_step():
    x = np.geomspace(1e-3, 1, 100)
    form = aaa_fit(x, np.ones_like(x), 1e-12)
    assert form.converged
    assert form.support_points.size == 1
    assert form.achieved_error == 0.0
    # One support node: the arrowhead eigensolve has no finite eigenvalue.
    pf = to_partial_fraction(form)
    assert pf.degree == 0
    assert pf.c0 == 1.0
    assert pf.validation_error == 0.0


def fake_eigvals(monkeypatch, change, real_eigvals=scipy.linalg.eigvals):
    """Make the conversion's generalized eigensolve, its SciPy boundary,
    return ``change`` applied to the true eigenvalues."""
    monkeypatch.setattr(scipy.linalg, "eigvals", lambda *args: change(real_eigvals(*args)))


def test_unpaired_complex_pole_raises(monkeypatch):
    # 1/(x + 1) plus a conjugate pair.  Its eigenvalues come back with the
    # pair's members moved apart by different amounts, and the form still
    # holds exact conjugates, each pole with its own residue.
    form = rational_form([-1.0, -0.5 + 0.3j, -0.5 - 0.3j], [1.0, 0.2 - 0.1j, 0.2 + 0.1j])

    def asymmetric(eigs):
        lower = np.isfinite(eigs) & (eigs.imag < 0)
        assert np.count_nonzero(lower) == 1
        eigs = eigs.copy()
        eigs[lower] = eigs[lower] * (1 + 1e-9) + 1e-10j
        return eigs

    fake_eigvals(monkeypatch, asymmetric)
    pf = to_partial_fraction(form)
    assert pf.pole_audit.as_dict() == {"real_negative": 1, "real_zero": 0,
                                       "real_positive": 0, "complex_pair": 2}
    assert pf.poles[1] == np.conj(pf.poles[0]) and pf.poles[0].imag > 0
    assert pf.residues[1] == np.conj(pf.residues[0])
    assert pf.poles[:2] == pytest.approx([-0.5 + 0.3j, -0.5 - 0.3j], rel=1e-12)
    assert pf.residues[:2] == pytest.approx([0.2 - 0.1j, 0.2 + 0.1j], rel=1e-10)
    assert (pf.poles[2], pf.residues[2]) == pytest.approx((-1.0, 1.0), rel=1e-12)
    assert pf.validation_error <= pf.tolerance
    # Without one member of the pair, either one, the other has no partner.
    for side in (1.0, -1.0):
        fake_eigvals(monkeypatch,
                     lambda eigs: eigs[~(np.isfinite(eigs) & (side * eigs.imag > 0))])
        with pytest.raises(PoleExtractionError, match="unpaired complex pole"):
            to_partial_fraction(form)


def test_one_over_two_x():
    x = np.geomspace(1e-3, 1, 500)
    form = aaa_fit(x, 0.5 / x, 1e-12)
    assert form.converged
    assert form.support_points.size <= 2
    assert form.achieved_error <= 1e-12
    pf = to_partial_fraction(form)
    assert pf.degree == 1
    assert abs(pf.poles[0]) <= 1e-10
    assert pf.residues[0].real == pytest.approx(0.5, abs=1e-10)
    assert abs(pf.c0) <= 1e-10


def test_sqrt_case_converges_with_few_poles():
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    pf = fit_fractional_sum(f, 1e-12)
    assert pf.fit_error <= 1e-12
    assert pf.degree <= 22
    assert pf.pole_audit.all_real_nonpositive


def test_sqrt_case_pole_sign_scan_oracle():
    # Count sign changes of the barycentric denominator on the negative axis
    # and compare with the audit; for this function every pole is a simple
    # real negative root.
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    x, y = grid_of(normalize(f).scaled)
    form = aaa_fit(x, y, 1e-12)
    pf = to_partial_fraction(form)
    audit = pf.pole_audit
    assert audit.complex_pair == 0 and audit.real_positive == 0

    lo = 10.0 * float(np.abs(pf.poles).max())
    hi = 0.1 * float(np.abs(pf.poles).min())
    scan = -np.geomspace(lo, hi, 400001)
    denom = (1.0 / (scan[:, None] - form.support_points[None, :])) @ form.weights
    signs = np.sign(denom)
    changes = int(np.count_nonzero(signs[1:] * signs[:-1] < 0))
    assert changes == audit.real_negative


def test_interpolation_exact_at_support():
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    x, y = grid_of(f)
    form = aaa_fit(x, y, 1e-10)
    values = bary_eval(form, form.support_points)
    assert np.array_equal(values, form.support_values)


def test_error_history_non_increasing():
    f = FractionalSumFunction(1e-3, 1e2, 0.3, -0.7, 1.0)
    x, y = grid_of(normalize(f).scaled)
    form = aaa_fit(x, y, 1e-12)
    hist = np.array(form.error_history)
    assert np.all(np.diff(hist) <= 0)


def test_partial_fraction_consistency():
    for (s, t, a, b) in [(-0.5, 0.5, 1, 1), (0.2, 0.4, 1e-9, 1e2), (1.0, 0.8, 1, 1e-2)]:
        f = FractionalSumFunction(a, b, s, t, 1.0)
        x, y = grid_of(normalize(f).scaled)
        form = aaa_fit(x, y, 1e-12)
        pf = to_partial_fraction(form)
        deviation = np.max(np.abs(eval_pf(pf, x) - bary_eval(form, x)))
        assert deviation <= 10 * form.tolerance


def test_non_convergence_reported():
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    x, y = grid_of(f, n=400)
    form = aaa_fit(x, y, 1e-12, max_degree=3)
    assert not form.converged
    assert form.achieved_error > 1e-12
    # The verdict travels with the applied form through both rescalings.
    pf = to_partial_fraction(form)
    assert pf.converged is False
    assert denormalize(pf, 2.0).converged is False
    assert scale_to_interval(pf, 4.0).converged is False
    assert fit_fractional_sum(f, 1e-12, max_degree=3).converged is False
    assert fit_fractional_sum(f, 1e-12).converged is True
    assert PartialFraction(0.0, [1.0], [-1.0], 1e-12).converged is None



@pytest.mark.parametrize("fit_error,validation_error,want", [
    pytest.param(1e-13, None, True, id="1e-13-True"),
    pytest.param(1e-12, None, True, id="1e-12-True"),
    pytest.param(2e-12, None, False, id="2e-12-False"),
    pytest.param(None, None, None, id="None-None"),
    pytest.param(1e-13, 1e-12, True, id="1e-13-validated-1e-12-True"),
    pytest.param(1e-13, 2e-12, False, id="1e-13-validated-2e-12-False"),
    pytest.param(2e-12, 1e-13, False, id="2e-12-validated-1e-13-False"),
    pytest.param(None, 1e-13, None, id="None-validated-1e-13-None"),
])
def test_converged_follows_fit_error_and_tolerance(fit_error, validation_error, want):
    # The verdict is derived, not stored: it is max(fit_error,
    # validation_error) <= tolerance on the normalized fit (fit_error alone
    # when the form was never validated), which both rescalings and the JSON
    # form keep, and a "converged" key in a file is ignored.
    pf = PartialFraction(0.5, [2.0], [-4.0], 1e-12, fit_error=fit_error,
                         validation_error=validation_error)
    assert pf.converged is want
    assert denormalize(pf, 3.0).converged is want
    assert scale_to_interval(pf, 8.0).converged is want
    data = json.loads(json.dumps(partial_fraction_to_dict(pf)))
    assert data["converged"] is want
    data["converged"] = not want
    assert partial_fraction_from_dict(data).converged is want
    looser = partial_fraction_from_dict({**data, "tolerance": 1e-6})
    assert looser.converged is (None if fit_error is None else True)

def test_conversion_needs_the_fit_grid():
    x = np.geomspace(1e-3, 1, 200)
    form = aaa_fit(x, 0.5 / x, 1e-12)
    gridless = BarycentricForm(form.support_points, form.support_values,
                               form.weights, form.achieved_error, form.tolerance)
    with pytest.raises(ValueError, match="fit grid"):
        to_partial_fraction(gridless)


def test_rank_deficient_warns():
    x = np.linspace(0.1, 1, 200)
    y = 1.0 / (x + 1.0)
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        form = aaa_fit(x, y, 1e-30, max_degree=6)
    assert form.achieved_error <= 1e-14


def whole_loewner_weights(form):
    """Weights for the form's support points from the SVD of the whole
    Loewner matrix: support rows deleted, columns equilibrated."""
    x, y = form.grid, form.grid_values
    zj, fj = form.support_points, form.support_values
    rest = ~np.isin(x, zj)
    loewner = (y[rest, None] - fj[None, :]) / (x[rest, None] - zj[None, :])
    col_scale = np.linalg.norm(loewner, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    _, _, vh = np.linalg.svd(loewner / col_scale, full_matrices=False)
    return vh[-1] / col_scale


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
@pytest.mark.parametrize("alpha, beta, s, t", [
    (1.0, 0.0, -0.5, -0.5),   # x**0.5
    (1.0, 1e-2, -0.5, 0.5),   # 1/(x**-0.5 + 1e-2 x**0.5)
    (1.0, 1e-3, -1.0, -1.0),  # x/(1 + 1e-3), exactly linear
])
def test_weights_match_whole_loewner_svd(alpha, beta, s, t, tol):
    x, y = grid_of(FractionalSumFunction(alpha, beta, s, t, 1.0))
    with warnings.catch_warnings():
        # The linear target is rational of lower degree than its 2 nodes.
        warnings.simplefilter("ignore", RuntimeWarning)
        form = aaa_fit(x, y, tol)
    assert form.converged
    assert np.all(np.diff(form.support_points) > 0)
    ref = BarycentricForm(form.support_points, form.support_values,
                          whole_loewner_weights(form), form.achieved_error, tol)
    want = bary_eval(ref, x)
    assert np.max(np.abs(bary_eval(form, x) - want)) <= 1e-12 * np.max(np.abs(want))


def reference_fit(x, y, tolerance, max_degree):
    """(support points, weights, error history) of aaa_fit's greedy pass,
    written with NumPy's own QR and norm: fresh matrices of the remaining
    samples at every step, R from ``np.linalg.qr(mode="r")`` (which zeroes
    the lower triangle by ``np.triu``), weights normalized by
    ``np.linalg.norm``."""
    target = STOP_SAFETY * tolerance
    n = x.size
    in_support = np.zeros(n, dtype=bool)
    approx = np.full(n, y.mean())
    best, history = None, []
    for m in range(1, min(n, max_degree + 1) + 1):
        j = int(np.argmax(np.abs(y - approx)))
        in_support[j] = True
        idx_s, idx_r = np.flatnonzero(in_support), np.flatnonzero(~in_support)
        zj, fj = x[idx_s], y[idx_s]
        cauchy = 1.0 / np.subtract.outer(x[idx_r], zj)
        loewner = np.subtract.outer(y[idx_r], fj) * cauchy
        col_scale = np.sqrt(np.einsum("ij,ij->j", loewner, loewner))
        col_scale[col_scale == 0.0] = 1.0
        scaled = np.asfortranarray(loewner / col_scale)
        _, _, vh = np.linalg.svd(np.linalg.qr(scaled, mode="r"))
        wj = vh[-1, :] / col_scale
        wj /= np.linalg.norm(wj)
        approx = y.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            approx[idx_r] = (cauchy @ (wj * fj)) / (cauchy @ wj)
        err = np.max(np.abs(y - approx))
        err = float(err) if np.isfinite(err) else float("inf")
        if best is None or err < best[3]:
            best = (zj, fj, wj, err)
        history.append(min(err, history[-1]) if history else err)
        if err <= target:
            break
    return best[0], best[2], tuple(history)


def pencil_fit_samples(monkeypatch, n, mu, K):
    """The samples, tolerance and degree fit_for_pencil hands to aaa_fit."""
    calls = []

    def recording_fit(*args):
        calls.append(args)
        return aaa_fit(*args)

    monkeypatch.setattr(aaa_module, "aaa_fit", recording_fit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit_for_pencil(1.0 / mu, K / mu, -0.5, 0.5, assemble_interface(n), 1e-12)
    monkeypatch.undo()
    (args,) = calls
    return args


@pytest.mark.parametrize("case", ["atlas", "pencil-miss", "rank-deficient"])
def test_greedy_is_bitwise_the_numpy_qr_step(case, monkeypatch):
    # The greedy step runs dgeqrf in place and skips work around it; support
    # points, weights and the error history stay bitwise those of the same
    # step written with np.linalg.qr, np.triu and np.linalg.norm.
    if case == "atlas":
        x, y = grid_of(FractionalSumFunction(1.0, 1e-2, -0.5, 0.5, 1.0))
        tol, max_degree = 1e-12, 30
    elif case == "pencil-miss":
        x, y, tol, max_degree = pencil_fit_samples(monkeypatch, 128, 1.0, 1e-2)
    else:
        # 1/(x + 1) is rational of degree 1, so later weight solves are
        # rank-deficient and the tolerance cannot be met.
        x = np.linspace(0.1, 1, 200)
        y = 1.0 / (x + 1.0)
        tol, max_degree = 1e-30, 6
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        form = aaa_fit(x, y, tol, max_degree)
    zj, wj, history = reference_fit(x, y, tol, max_degree)
    if case == "rank-deficient":
        assert any("rank-deficient" in str(w.message) for w in caught)
    # The atlas fit meets its tolerance, the other two miss it.
    assert form.converged == (case == "atlas")
    assert np.array_equal(form.support_points, zj)
    assert np.array_equal(form.weights, wj)
    assert form.error_history == history


def test_a_missed_fit_takes_one_svd_per_greedy_step(monkeypatch):
    # A fit that misses its tolerance is still one greedy pass: one SVD per
    # entry of the error history, and no second pass.
    x, y, tol, max_degree = pencil_fit_samples(monkeypatch, 128, 1.0, 1e-2)
    real_svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        calls.append(args)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        form = aaa_fit(x, y, tol, max_degree)
    monkeypatch.undo()
    assert tol == 1e-12 and not form.converged
    assert len(calls) == len(form.error_history)


def test_pole_on_a_support_node_is_dropped_as_non_finite(monkeypatch):
    # In this pencil fit the eigensolve returns one denominator root exactly
    # on a support node, and the polish leaves it there.  Its Cauchy row
    # holds 1/0, so its residue is not finite, and that one drop gives the
    # form converted without the pole.
    x, y, tol, max_degree = pencil_fit_samples(monkeypatch, 128, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        form = aaa_fit(x, y, tol, max_degree)
    eigenvalues = []
    fake_eigvals(monkeypatch, lambda eigs: eigenvalues.append(eigs) or eigs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pf = to_partial_fraction(form)
    on_node = np.isin(eigenvalues[0], form.support_points)
    assert np.count_nonzero(on_node) == 1
    assert [str(w.message) for w in caught] == ["dropping pole with non-finite residue"]
    # The polished poles hold the samples as closely as the interpolant does
    # (unpolished, the deviation is about 500 times larger).
    assert pf.validation_error <= 2 * form.achieved_error
    # Without that eigenvalue the denominator is one finite root short, so
    # the conversion tries the fold; it must reject it to give the same form.
    fake_eigvals(monkeypatch, lambda eigs: eigs[~np.isin(eigs, form.support_points)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        without = to_partial_fraction(form)
    assert pf.c1 == without.c1 == 0.0
    assert pf.c0 == without.c0
    assert np.array_equal(pf.poles, without.poles)
    assert np.array_equal(pf.residues, without.residues)


def rational_form(poles, residues, fit_error=1e-13, tolerance=1e-12):
    """The barycentric form of sum(residues / (x - poles)) on len(poles) + 1
    support points, with its samples on a logarithmic grid of (0, 1].  Its
    weights are q(z_j) / prod(z_j - z_k, k != j) for q the monic polynomial
    with roots ``poles``, so its denominator is q over the node polynomial."""
    poles, residues = np.asarray(poles), np.asarray(residues)
    grid = np.geomspace(1e-3, 1.0, 200)
    support = grid[np.linspace(0, grid.size - 1, poles.size + 1).astype(int)]
    # Conjugate pairs make both real up to rounding.
    weights = np.real([np.prod(z - poles) / np.prod(z - np.delete(support, j))
                       for j, z in enumerate(support)])

    def r(x):
        return np.real((residues / (x[:, None] - poles)).sum(axis=1))

    return BarycentricForm(support, r(support), weights, fit_error, tolerance,
                           grid=grid, grid_values=r(grid))


@pytest.mark.parametrize("pole, residue, tolerance", [
    (-10.0, 1e-7, 1e-6), (-1e-2, 1e-14, 1e-12),
], ids=["unused-on-the-grid", "froissart"])
def test_cleanup_drops_a_negligible_pole(pole, residue, tolerance):
    # The second term of 1/(x + 1) + residue/(x - pole) either stays far below
    # the deviation target on the whole grid, though its residue is above the
    # Froissart cut, or has a residue below the cut, though it is not
    # negligible on the grid.  Each test of the keep-mask drops it alone.
    pf = to_partial_fraction(rational_form([-1.0, pole], [1.0, residue],
                                           tolerance=tolerance))
    assert pf.degree == 1
    assert pf.poles[0] == pytest.approx(-1.0, rel=1e-12)
    assert pf.validation_error <= pf.tolerance


@pytest.mark.parametrize("reverse", [False, True], ids=["as-found", "reversed"])
def test_fold_takes_the_farthest_real_pole(monkeypatch, reverse):
    # Two real poles lie beyond FOLD_RATIO times the grid.  Only the farther
    # one is linear on the grid to within the tolerance, so in whichever order
    # the eigensolve returns the poles, it is the one folded into c1.
    fake_eigvals(monkeypatch, lambda eigs: eigs[::-1 if reverse else 1])
    pf = to_partial_fraction(rational_form([-1.0, -1e4, -1e6], [1.0, 1e2, 1e4]))
    assert pf.c1 != 0.0
    assert np.sort(pf.poles.real) == pytest.approx([-1e4, -1.0], rel=1e-3)
    assert pf.validation_error <= 1e-13


def two_node_form(func):
    """The two-node form with weights (1, -1) of ``func`` sampled on 50
    points of [1e-2, 1], its nodes at the ends.  The weights sum to zero, so
    the denominator has no finite root and the interpolant is the line
    through the two nodes."""
    grid = np.geomspace(1e-2, 1.0, 50)
    support = grid[[0, -1]]
    line = func(support[0]) + (grid - support[0]) * (
        (func(support[1]) - func(support[0])) / (support[1] - support[0]))
    return BarycentricForm(support, func(support), [1.0, -1.0],
                           np.max(np.abs(line - func(grid))), 1e-12,
                           grid=grid, grid_values=func(grid))


def test_a_lost_degree_folds_into_the_linear_term():
    # Samples of 3x + 1: unfolded, the form has no pole and c0 = -inf, the
    # interpolant's value at infinity.  The fold replaces it with the line.
    pf = to_partial_fraction(two_node_form(lambda x: 3 * x + 1))
    assert pf.degree == 0
    assert pf.c0 == pytest.approx(1.0, rel=1e-14)
    assert pf.c1 == pytest.approx(3.0, rel=1e-14)
    assert pf.validation_error <= 1e-14


def test_no_finite_value_at_infinity_raises():
    # Samples of 1/x: the line through the two nodes misses the samples
    # between them, so the fold is rejected and c0 stays +inf.
    with pytest.raises(PoleExtractionError, match="no finite value at infinity"):
        to_partial_fraction(two_node_form(lambda x: 1 / x))


def scalar_newton_polish(poles, zj, wj, max_steps=10):
    """Per-pole Newton on sum(w/(x-z)), stopping a pole at its first step
    that does not decrease |denominator|."""
    polished = np.array(poles, dtype=complex)
    for k, pole in enumerate(polished):
        current = pole
        with np.errstate(divide="ignore", invalid="ignore"):
            best_val = abs(np.sum(wj / (current - zj)))
        for _ in range(max_steps):
            diff = current - zj
            if np.any(diff == 0):
                break
            den = np.sum(wj / diff)
            dden = -np.sum(wj / diff**2)
            if dden == 0 or not np.isfinite(den) or not np.isfinite(dden):
                break
            step = den / dden
            candidate = current - step
            cdiff = candidate - zj
            if np.any(cdiff == 0):
                break
            cval = abs(np.sum(wj / cdiff))
            if not np.isfinite(cval) or cval >= best_val:
                break
            current, best_val = candidate, cval
            if abs(step) <= 4 * EPS * (abs(current) + np.finfo(float).tiny):
                break
        polished[k] = current
    return polished


@pytest.mark.parametrize("alpha, beta, s, t", [
    (1.0, 1.0, -0.5, 0.5), (1e-2, 1.0, -1.0, 1.0), (1.0, 1e-6, 0.2, -0.8),
])
def test_polish_matches_scalar_newton(alpha, beta, s, t):
    x, y = grid_of(normalize(FractionalSumFunction(alpha, beta, s, t, 1.0)).scaled)
    form = aaa_fit(x, y, 1e-12)
    zj, wj = form.support_points, form.weights
    m = zj.size
    arrow = np.diag(np.concatenate([[0.0], zj]))
    arrow[0, 1:], arrow[1:, 0] = wj, 1.0
    eigs = scipy.linalg.eigvals(arrow, np.diag(np.r_[0.0, np.ones(m)]))
    eigs = eigs[np.isfinite(eigs)]
    # Perturbed starts make Newton take several steps, overshoot and stop at
    # different counts; a start on a support node must stay where it is.
    rng = np.random.default_rng(3)
    starts = np.concatenate([
        eigs,
        eigs * (1 + 10.0 ** rng.uniform(-8, -1, eigs.size)),
        eigs + 1e-3j * np.abs(eigs),
        zj[:2],
    ])
    got = aaa_module._polish_poles(starts, zj, wj)
    want = scalar_newton_polish(starts, zj, wj)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, starts)
    assert np.array_equal(got[-2:], zj[:2])


def test_invalid_inputs():
    x = np.array([0.1, 0.2, 0.2])
    with pytest.raises(ValueError):
        aaa_fit(x, np.ones(3), 1e-6)
    with pytest.raises(ValueError):
        aaa_fit(np.array([1.0]), np.array([1.0]), 1e-6)
    for tolerance in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            aaa_fit(np.array([0.1, 0.2]), np.ones(2), tolerance)
    with pytest.raises(ValueError):
        aaa_fit(np.array([0.1, 0.2]), np.ones(2), 1e-6, max_degree=0)


def test_eval_pf_examples():
    pf = PartialFraction(1.0, [2.0], [-1.0], 1e-12)
    assert eval_pf(pf, 1.0) == pytest.approx(2.0, abs=1e-15)

    pf = PartialFraction(0.0, [0.5], [0.0], 1e-12)
    assert eval_pf(pf, 0.25) == pytest.approx(2.0, abs=1e-15)
    assert pf.c1 == 0.0

    pf = PartialFraction(0.5, [2.0], [-1.0], 1e-12, c1=4.0)
    x = np.array([0.25, 1.0, 3.0])
    assert np.allclose(eval_pf(pf, x), 0.5 + 4.0 * x + 2.0 / (x + 1.0),
                       rtol=4 * EPS, atol=0)


def test_eval_pf_conjugate_pair_real():
    c, p = 1.0 + 2.0j, -1.0 + 3.0j
    pf = PartialFraction(0.5, [c, np.conj(c)], [p, np.conj(p)], 1e-12)
    x = np.linspace(0.1, 5.0, 50)
    values = eval_pf(pf, x)
    assert values.dtype == np.float64
    direct = 0.5 + c / (x - p) + np.conj(c) / (x - np.conj(p))
    assert np.max(np.abs(values - direct.real)) <= 1e-14 * np.max(np.abs(direct))
    assert np.max(np.abs(direct.imag)) <= 1e-12


def test_eval_pf_rejects_pole_hit():
    pf = PartialFraction(0.0, [1.0], [-1.0], 1e-12)
    with pytest.raises(ValueError):
        eval_pf(pf, -1.0)


def test_partial_fraction_validation():
    with pytest.raises(ValueError):
        PartialFraction(0.0, [1.0, 2.0], [-1.0], 1e-12)
    with pytest.raises(ValueError):
        # complex pole without its conjugate partner
        PartialFraction(0.0, [1.0 + 0j, 1.0 + 1j], [-1.0 + 0j, -1.0 + 1j], 1e-12)
    with pytest.raises(ValueError):
        # complex residue on a real pole
        PartialFraction(0.0, [1.0 + 1j], [-1.0 + 0j], 1e-12)


def test_sup_error_cases():
    f = FractionalSumFunction(1, 1, 1, 1, 1.0)
    pf = PartialFraction(0.0, [0.5], [0.0], 1e-12)
    grid = np.geomspace(1e-3, 1, 1000)
    assert sup_error(pf, f, grid) <= 1e-15 * np.max(1.0 / (2 * grid))

    const = FractionalSumFunction(1, 0, 0, 0, 1.0)
    pf0 = PartialFraction(1.0, [], [], 1e-12)
    assert sup_error(pf0, const, grid) == 0.0


def test_sup_error_on_denser_grid():
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    pf = fit_fractional_sum(f, 1e-12)
    dense = np.geomspace(DEFAULT_FLOOR_RATIO, 1.0, 20000)
    assert sup_error(pf, f, dense) <= 1e-11


def test_scale_to_interval_example():
    pf = PartialFraction(1.0, [2.0], [-1.0], 1e-12, c1=3.0)
    scaled = scale_to_interval(pf, 4.0)
    assert scaled.c0 == 1.0
    assert scaled.c1 == 0.75
    assert scaled.residues[0] == 8.0
    assert scaled.poles[0] == -4.0

    same = scale_to_interval(pf, 1.0)
    assert same.residues[0] == 2.0 and same.poles[0] == -1.0
    assert same.c1 == 3.0

    for rho in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            scale_to_interval(pf, rho)


def test_scale_to_interval_identity_random():
    # Positive residues and nonpositive poles avoid cancellation, keeping the
    # two evaluation orders within a few ulps of each other.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 6)
        poles = -(10.0 ** rng.uniform(-3, 3, size=n))
        residues = 10.0 ** rng.uniform(-2, 2, size=n)
        pf = PartialFraction(rng.uniform(0, 2), residues, poles, 1e-12,
                             c1=rng.uniform(0, 2))
        for rho in (1e-3, 1.0, 1e6):
            scaled = scale_to_interval(pf, rho)
            x = rho * 10.0 ** rng.uniform(-6, 0, size=100)
            a = eval_pf(scaled, x)
            b = eval_pf(pf, x / rho)
            assert np.all(np.abs(a - b) <= 8 * EPS * np.abs(b))


def test_denormalize():
    pf = PartialFraction(1.0, [2.0], [-1.0], 1e-12, c1=3.0)
    assert denormalize(pf, 1.0).residues[0] == 2.0
    assert denormalize(pf, 1.0).c1 == 3.0
    scaled = denormalize(pf, 100.0)
    assert scaled.c0 == pytest.approx(0.01)
    assert scaled.c1 == pytest.approx(0.03)
    assert scaled.residues[0] == pytest.approx(0.02)
    assert scaled.poles[0] == -1.0
    x = np.linspace(0.1, 2.0, 20)
    assert np.allclose(eval_pf(scaled, x), eval_pf(pf, x) / 100.0,
                       rtol=4 * EPS, atol=0)
    for weight in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="leading_weight must be positive and finite"):
            denormalize(pf, weight)


def test_denormalized_fit_approximates_original():
    # Composite check: the full pipeline (normalize, fit, denormalize)
    # approximates the original function to the tolerance divided by the
    # dominant weight.
    f = FractionalSumFunction(100.0, 1.0, -0.5, 0.5, 1.0)
    tol = 1e-10
    pf = fit_fractional_sum(f, tol)
    dense = np.geomspace(DEFAULT_FLOOR_RATIO, 1.0, 5000)
    assert sup_error(pf, f, dense) <= 10 * tol / 100.0


def test_json_round_trip():
    c, p = 1.0 + 2.0j, -1.0 + 3.0j
    pf = PartialFraction(0.5, [c, np.conj(c), 2.0], [p, np.conj(p), -4.0], 1e-10,
                         fit_error=1e-11, c1=0.125)
    data = partial_fraction_to_dict(pf)
    assert data["schema"].startswith("fracra.partial_fraction/")
    text = json.dumps(data)
    back = partial_fraction_from_dict(json.loads(text))
    assert back.c0 == pf.c0
    assert back.c1 == pf.c1
    assert back.converged is True
    assert np.array_equal(back.poles, pf.poles)
    assert np.array_equal(back.residues, pf.residues)
    assert back.pole_audit.as_dict() == pf.pole_audit.as_dict()

    unknown = PartialFraction(0.5, [2.0], [-4.0], 1e-10)
    back = partial_fraction_from_dict(json.loads(json.dumps(
        partial_fraction_to_dict(unknown))))
    assert back.converged is None

    # A file written before the linear term existed has neither "c1" nor
    # "converged"; the verdict is derived from its fit_error.
    old = json.loads(text)
    del old["c1"], old["converged"]
    legacy = partial_fraction_from_dict(old)
    assert legacy.c1 == 0.0
    assert legacy.converged is True
    assert legacy.c0 == pf.c0
    assert np.array_equal(legacy.poles, pf.poles)


def test_conjugate_closure_on_fitted_pairs():
    # s = -1, t = 1 makes the target exactly rational with one conjugate pole
    # pair at +/- i*sqrt(gamma); the fit must reproduce it in closed form.
    gamma = 1e-2
    pf = fit_fractional_sum(FractionalSumFunction(gamma, 1.0, -1.0, 1.0, 1.0), 1e-12)
    assert pf.degree == 2
    assert pf.pole_audit.complex_pair == 2
    nonreal = pf.poles[pf.poles.imag != 0]
    assert np.array_equal(np.sort_complex(nonreal), np.sort_complex(np.conj(nonreal)))
    assert abs(pf.poles[0]) == pytest.approx(np.sqrt(gamma), rel=1e-8)
    x = np.geomspace(0.01, 1.0, 50)
    values = eval_pf(pf, x)
    assert values.dtype == np.float64
    target = x / (gamma + x * x)
    assert np.max(np.abs(values - target)) <= 1e-11


def test_audit_zero_band_does_not_scale_with_the_largest_pole():
    # |p| <= ZERO_POLE_ATOL is a pole at zero whatever the other poles are.
    audit = PartialFraction(0.0, [1.0, 1.0], [-1.0, -1e12], 1e-12).pole_audit
    assert audit.as_dict() == {"real_negative": 2, "real_zero": 0,
                               "real_positive": 0, "complex_pair": 0}
    audit = PartialFraction(0.0, [1.0, 1.0, 1.0], [-1e-11, 1e-11, -1e12], 1e-12).pole_audit
    assert (audit.real_zero, audit.real_negative) == (2, 1)


def test_audit_counts_sum_to_degree():
    for (s, t, a, b) in [(-0.5, 0.5, 1, 1), (-1.0, 1.0, 1, 1), (1, 1, 1, 1)]:
        pf = fit_fractional_sum(FractionalSumFunction(a, b, s, t, 1.0), 1e-12)
        assert pf.pole_audit.total == pf.degree


def test_terms_of_a_scrambled_mixed_form():
    # Negative, zero and positive real poles (-3 and 3 tie in |pole|) and two
    # conjugate pairs, given out of order with each pair's poles apart: the
    # terms are the real poles and each upper pole in ascending |pole| order,
    # then Re p, with their residues and the pair mask, and the audit counts
    # what the imag == 0 split of all the poles counts.
    q1, a1, q2, a2 = -2.0 + 1.5j, 0.3 - 0.1j, 1.0 + 4.0j, -0.2 + 0.4j
    poles = np.array([7.0, np.conj(q2), -0.5, q1, 3.0, -1e-12, q2, np.conj(q1), -3.0])
    residues = np.array([1.5, np.conj(a2), 2.0, a1, -0.75, 0.25, a2, np.conj(a1), 0.6])
    pf = PartialFraction(0.1, residues, poles, 1e-12)
    p, c, pair = pf.terms
    assert p.tolist() == [-1e-12, -0.5, q1, -3.0, 3.0, q2, 7.0]
    assert c.tolist() == [0.25, 2.0, a1, 0.6, -0.75, a2, 1.5]
    assert pair.tolist() == [False, False, True, False, False, True, False]
    real = poles[poles.imag == 0.0].real
    zero = np.abs(real) <= aaa_module.ZERO_POLE_ATOL
    assert pf.pole_audit.as_dict() == {
        "real_negative": int(np.count_nonzero(real[~zero] < 0)),
        "real_zero": int(np.count_nonzero(zero)),
        "real_positive": int(np.count_nonzero(real[~zero] > 0)),
        "complex_pair": int(np.count_nonzero(poles.imag != 0.0)),
    } == {"real_negative": 2, "real_zero": 1, "real_positive": 2, "complex_pair": 4}
    x = np.linspace(0.1, 0.4, 7)
    want = 0.1 + sum(r / (x - q) for r, q in zip(residues, poles)).real
    assert np.allclose(eval_pf(pf, x), want, rtol=1e-13, atol=0.0)
    # A NaN pole is not counted as positive, nor anywhere else.
    assert PartialFraction(0.0, [1.0], [np.nan], 1e-12).pole_audit.total == 0


def test_degenerate_rational_cases():
    # (s,t)=(1,1) equal weights: a single pole at zero with residue 1/(2a).
    pf = fit_fractional_sum(FractionalSumFunction(2.0, 2.0, 1, 1, 1.0), 1e-12)
    assert pf.degree == 1
    assert abs(pf.poles[0]) <= 1e-10
    assert pf.residues[0].real == pytest.approx(0.25, abs=1e-8)
    # (s,t)=(0,0): a constant, no poles.
    pf = fit_fractional_sum(FractionalSumFunction(3.0, 1.0, 0, 0, 1.0), 1e-12)
    assert pf.degree == 0
    assert pf.c0 == pytest.approx(0.25, abs=1e-12)


def test_linear_symbol_carries_linear_term():
    # s = t = -1 makes the target exactly x/(alpha + beta): the interpolant's
    # pole at infinity must come out as the linear coefficient, not as a
    # finite pole far outside the grid.
    for alpha in POLE_SWEEP_ALPHAS:
        for beta in POLE_SWEEP_BETAS:
            pf = fit_fractional_sum(FractionalSumFunction(alpha, beta, -1, -1, 1.0),
                                    1e-12)
            assert pf.degree == 0, (alpha, beta)
            assert pf.c1 == pytest.approx(1.0 / (alpha + beta), rel=1e-12)
            assert pf.validation_error <= 1e-12, (alpha, beta)


def test_partial_fraction_poles_and_residues_cannot_go_stale():
    # Reassigning the poles would leave terms and the audit at the old ones.
    pf = PartialFraction(0.0, [1.0], [-1.0], 1e-12)
    with pytest.raises(AttributeError, match="use dataclasses.replace"):
        pf.poles = pf.poles * 2
    with pytest.raises(AttributeError, match="use dataclasses.replace"):
        pf.residues = pf.residues * 2
    for array in (pf.poles, pf.residues, *pf.terms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = -2.0
    assert eval_pf(pf, 1.0) == 0.5
    # The form copies its inputs, so the caller's arrays cannot reach it.
    poles, residues = np.array([-1.0 + 0j]), np.array([1.0 + 0j])
    pf = PartialFraction(0.0, residues, poles, 1e-12)
    poles[0], residues[0] = 1.0, 3.0
    assert eval_pf(pf, 1.0) == 0.5
    assert pf.pole_audit.real_negative == 1
    # replace builds a new form, derived from the new poles.
    moved = replace(pf, poles=pf.poles * 2)
    assert eval_pf(moved, 1.0) == 1.0 / 3.0
    assert moved.terms[0].tolist() == [-2.0]
    assert eval_pf(pf, 1.0) == 0.5


def test_partial_fraction_c0_and_c1_are_fixed():
    # An operator holds c0 in its row weights and reads c1 from the form, so
    # a later assignment to either would reach one and not the other.
    pf = PartialFraction(0.25, [1.0], [-1.0], 1e-12, c1=0.5)
    for name in ("c0", "c1"):
        with pytest.raises(AttributeError, match=f"{name} of a PartialFraction is fixed"):
            setattr(pf, name, 3.0)
    assert (pf.c0, pf.c1) == (0.25, 0.5)
    moved = replace(pf, c0=1.0, c1=2.0)
    assert (moved.c0, moved.c1) == (1.0, 2.0)
    assert eval_pf(moved, 1.0) == 1.0 + 2.0 + 0.5


def counted_fits(monkeypatch):
    """Record the samples of every aaa_fit call through fracra.aaa."""
    calls = []
    real_fit = aaa_module.aaa_fit

    def fit(x, y, tolerance, max_degree):
        calls.append((x.tobytes() + y.tobytes(), tolerance, max_degree))
        return real_fit(x, y, tolerance, max_degree)

    monkeypatch.setattr(aaa_module, "aaa_fit", fit)
    return calls


def same_form(a, b):
    return (a.c0 == b.c0 and a.c1 == b.c1 and a.fit_error == b.fit_error
            and a.validation_error == b.validation_error
            and np.array_equal(a.poles, b.poles)
            and np.array_equal(a.residues, b.residues))


def stored_forms(fits):
    """The distinct forms of a fits dict, which keys each one more than once."""
    return list({id(form): form for form in fits.values()}.values())


def test_fits_dict_reuses_a_fit_of_the_same_normalized_samples(monkeypatch):
    # The first two functions normalize to 1/(x**-0.5 + 0.5 x**0.5) on (0, 1].
    # The other two normalize to functions whose small weights differ in the
    # last bit (1.0000000000000001e-07 against 1e-07), yet their samples are
    # bitwise equal, so only the digest of the samples finds the fit.  Each
    # pair takes one fit, and each call's form is bitwise that of a fit
    # without a dict.
    pairs = [tuple(FractionalSumFunction(a, 0.5 * a, -0.5, 0.5, 1.0) for a in (2.0, 4.0)),
             (FractionalSumFunction(1e-9, 1e-2, -0.8, -1.0),
              FractionalSumFunction(1e-3, 1e-10, -1.0, -0.8))]
    f, g = pairs[1]
    assert normalize(f).scaled != normalize(g).scaled
    fresh = [[fit_fractional_sum(func, 1e-10) for func in pair] for pair in pairs]
    calls = counted_fits(monkeypatch)
    for pair, want in zip(pairs, fresh):
        calls.clear()
        fits = {}
        forms, sizes = [], []
        for func in pair:
            forms.append(fit_fractional_sum(func, 1e-10, fits=fits))
            sizes.append(len(fits))
        # The call that found its samples in the dict adds no entry.
        assert len(calls) == 1 and len(stored_forms(fits)) == 1 and sizes[0] == sizes[1]
        assert all(map(same_form, forms, want))
        assert not same_form(forms[0], forms[1])


def test_writing_into_a_reused_form_cannot_reach_the_dict_entry():
    f = FractionalSumFunction(1.0, 1.0, -0.5, 0.5, 1.0)
    fits = {}
    first = fit_fractional_sum(f, 1e-10, fits=fits)
    hit = fit_fractional_sum(f, 1e-10, fits=fits)
    (entry,) = stored_forms(fits)
    for array in (hit.poles, hit.residues, *hit.terms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        assert not any(np.shares_memory(array, e)
                       for e in (entry.poles, entry.residues, *entry.terms))
    # Even with the flag lifted, a write stays in the caller's form.
    hit.poles.flags.writeable = True
    hit.poles[:] = 0.0
    assert same_form(fit_fractional_sum(f, 1e-10, fits=fits), first)


def test_fits_dict_fits_again_at_another_tolerance_or_degree(monkeypatch):
    f = FractionalSumFunction(1.0, 1e-2, -0.5, 0.5, 1.0)
    calls = counted_fits(monkeypatch)
    fits = {}
    for tol, degree in ((1e-10, 30), (1e-8, 30), (1e-10, 12), (1e-10, 30), (1e-8, 30)):
        fit_fractional_sum(f, tol, degree, fits=fits)
    assert [c[1:] for c in calls] == [(1e-10, 30), (1e-8, 30), (1e-10, 12)]
    assert len({c[0] for c in calls}) == 1
    assert len(stored_forms(fits)) == 3


def test_a_repeated_call_skips_the_sampling_and_the_fit(monkeypatch):
    f = FractionalSumFunction(1.0, 1e-2, -0.5, 0.5, 4.0)
    fresh = fit_fractional_sum(f, 1e-10)
    grids = []
    real_grid = aaa_module.sample_grid

    def counted_grid(*args):
        grids.append(args)
        return real_grid(*args)

    monkeypatch.setattr(aaa_module, "sample_grid", counted_grid)
    calls = counted_fits(monkeypatch)
    fits = {}
    first = fit_fractional_sum(f, 1e-10, fits=fits)
    size = len(fits)
    again = fit_fractional_sum(f, 1e-10, fits=fits)
    assert len(grids) == len(calls) == 1 and len(fits) == size
    assert same_form(again, fresh) and same_form(first, fresh)
    assert again.poles.tobytes() == fresh.poles.tobytes()
    assert again.residues.tobytes() == fresh.residues.tobytes()
    assert not any(np.shares_memory(a, b)
                   for a in (again.poles, again.residues, *again.terms)
                   for b in (first.poles, first.residues, *first.terms))


def scaled_by(pf, mu):
    """The form mu * pf, as a caller would scale a returned form."""
    return replace(pf, c0=mu * pf.c0, c1=mu * pf.c1, residues=mu * pf.residues)


def bitwise_form(a, b):
    return (np.array([a.c0, a.c1]).tobytes() == np.array([b.c0, b.c1]).tobytes()
            and a.poles.tobytes() == b.poles.tobytes()
            and a.residues.tobytes() == b.residues.tobytes()
            and (a.fit_error, a.validation_error) == (b.fit_error, b.validation_error))


# The fit of the 48-cell target reaches a rank-deficient greedy step and
# drops a pole with a non-finite residue.
@pytest.mark.filterwarnings("ignore:rank-deficient barycentric weight solve")
@pytest.mark.filterwarnings("ignore:dropping pole with non-finite residue")
@pytest.mark.parametrize("mu", [1e-6, 3.0, 1e2])
def test_a_scaled_fit_is_the_unscaled_form_times_the_scale(mu):
    # The 48-cell K = 0.01 target carries a conjugate pair, and s = t = -1
    # is the line x / 3, whose form has c1 != 0.
    pencil = assemble_interface(48)
    unit = fit_for_pencil(1.0, 0.01, -0.5, 0.5, pencil, 1e-12)
    assert unit.terms[2].any()
    fits = {}
    for _ in range(2):  # a fresh fit, then a repeated call on the dict
        pf = fit_for_pencil(1.0, 0.01, -0.5, 0.5, pencil, 1e-12, fits=fits, scale=mu)
        assert bitwise_form(pf, scaled_by(unit, mu))
    line = FractionalSumFunction(1.0, 2.0, -1, -1, 4.0)
    unit = fit_fractional_sum(line, 1e-12)
    assert unit.c1 != 0.0
    assert bitwise_form(fit_fractional_sum(line, 1e-12, scale=mu), scaled_by(unit, mu))


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_a_scale_that_is_not_positive_and_finite_raises(scale, monkeypatch):
    # The scale is checked before the fit, so nothing is fitted or stored.
    calls = counted_fits(monkeypatch)
    fits = {}
    f = FractionalSumFunction(1.0, 1.0, -0.5, 0.5, 1.0)
    with pytest.raises(ValueError, match=f"scale must be positive and finite, got {scale!r}"):
        fit_fractional_sum(f, 1e-10, fits=fits, scale=scale)
    assert not calls and not fits
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        fit_for_pencil(1.0, 1.0, -0.5, 0.5, assemble_interface(16), 1e-10, scale=scale)


def spike_between_samples(monkeypatch, tol):
    """Make every conversion add a positive pole just off the midpoint of two
    middle grid points, with a residue that keeps the form within ``tol`` on
    the grid; returns the on-grid deviations of the spiked forms."""
    real_convert = aaa_module.to_partial_fraction
    on_grid = []

    def convert(form):
        pf = real_convert(form)
        x = form.grid
        k = x.size // 2
        pole = np.sqrt(x[k] * x[k + 1]) * (1 + 1e-9)
        residue = 1e-3 * tol * (x[k + 1] - x[k])
        spiked = PartialFraction(pf.c0, [*pf.residues, residue], [*pf.poles, pole],
                                 pf.tolerance, fit_error=pf.fit_error, c1=pf.c1)
        spiked.validation_error = float(
            np.max(np.abs(eval_pf(spiked, x) - form.grid_values)))
        on_grid.append(spiked.validation_error)
        return spiked

    monkeypatch.setattr(aaa_module, "to_partial_fraction", convert)
    return on_grid


def test_validation_checks_between_the_grid_points(monkeypatch):
    # The spike is invisible on the grid: only the midpoint check sees it.
    f = FractionalSumFunction(1.0, 1.0, -0.5, 0.5, 1.0)
    tol = 1e-10
    assert fit_fractional_sum(f, tol).converged is True
    on_grid = spike_between_samples(monkeypatch, tol)
    pf = fit_fractional_sum(f, tol)
    assert pf.fit_error <= tol and len(on_grid) == 1
    assert on_grid[0] <= tol < pf.validation_error
    assert pf.converged is False


def test_a_reused_fit_keeps_its_midpoint_verdict_without_checking_again(monkeypatch):
    f = FractionalSumFunction(2.0, 1.0, -0.5, 0.5, 1.0)
    g = FractionalSumFunction(4.0, 2.0, -0.5, 0.5, 1.0)  # the same normalized samples
    tol = 1e-10
    on_grid = spike_between_samples(monkeypatch, tol)
    fresh = fit_fractional_sum(f, tol)
    checks = []
    real_evaluate = aaa_module.evaluate

    def counted_evaluate(func, x):
        checks.append(x.size)
        return real_evaluate(func, x)

    monkeypatch.setattr(aaa_module, "evaluate", counted_evaluate)
    fits = {}
    first = fit_fractional_sum(f, tol, fits=fits)
    hit = fit_fractional_sum(g, tol, fits=fits)
    assert len(stored_forms(fits)) == 1 and checks == [FIT_SAMPLES - 1] and len(on_grid) == 2
    assert fresh.validation_error == first.validation_error == hit.validation_error > tol
    assert hit.converged is False


# (s, t) = (-1, -1) and (-1, 1) are exactly rational of low degree.
@pytest.mark.filterwarnings("ignore:rank-deficient barycentric weight solve")
@pytest.mark.parametrize("s, t_values", [
    pytest.param(-0.5, (0.5,), id="s=-0.5,t=0.5"),
    pytest.param(-1.0, EXPONENT_GRID, id="s=-1"),
])
def test_accepted_atlas_forms_hold_on_a_dense_window_grid(s, t_values):
    # At the default sample count, every form the grid-plus-midpoint
    # validation accepts meets the tolerance on 20,000 log-spaced points of
    # the window, judged on the normalized form as the validation is.
    tol = 1e-12
    dense = np.geomspace(DEFAULT_FLOOR_RATIO, 1.0, 20000)
    accepted = 0
    for t in t_values:
        for alpha in POLE_SWEEP_ALPHAS:
            for beta in POLE_SWEEP_BETAS:
                func = FractionalSumFunction(alpha, beta, s, t, 1.0)
                fits = {}
                if not fit_fractional_sum(func, tol, fits=fits).converged:
                    continue
                (form,) = stored_forms(fits)
                deviation = np.max(np.abs(eval_pf(form, dense)
                                          - evaluate(normalize(func).scaled, dense)))
                assert deviation <= tol, (s, t, alpha, beta, deviation)
                accepted += 1
    assert accepted >= 10 * len(t_values)
