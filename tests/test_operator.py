import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs

import fracra.operator as operator_module
from fracra.aaa import PartialFraction, fit_for_pencil
from fracra.krylov import pcg
from fracra.operator import (
    FactorizationError,
    RationalOperator,
    spd_audit,
)
from fracra.pencil import (
    OperatorPencil,
    assemble_interface,
    assemble_interval,
    assemble_unit_square,
    dense_inverse_fractional_apply,
)


def dense_apply(pf, pencil, r):
    A = pencil.A.toarray()
    M = pencil.M.toarray()
    out = pf.c0 * np.linalg.solve(M, r)
    for p, c in zip(pf.poles, pf.residues):
        out = out + (c * np.linalg.solve(A - p * M, r.astype(complex))).real
    return out


def test_mass_only_operator():
    pencil = assemble_interface(32)
    pf = PartialFraction(1.0, [], [], 1e-12)
    op = RationalOperator(pf, pencil)
    assert op.solves_per_apply == 1
    r = np.random.default_rng(0).standard_normal(pencil.n_c)
    out = op.apply(r)
    ref = np.linalg.solve(pencil.M.toarray(), r)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_linear_term_matches_dense_spectral_apply():
    # z = c0 M^-1 r + c1 M^-1 A M^-1 r + sum c_i (A - p_i M)^-1 r is the
    # spectral map of c0 + c1*x + sum c_i/(x - p_i).
    pencil = assemble_interface(40)
    pf = PartialFraction(0.3, [1.0, 2.0], [-1.0, -4.0], 1e-12, c1=0.05)
    op = RationalOperator(pf, pencil)
    # the linear term adds one mass solve, no factorization
    assert op.solves_per_apply == 4
    r = np.random.default_rng(9).standard_normal(pencil.n_c)
    symbol = lambda lam: 0.3 + 0.05 * lam + 1.0 / (lam + 1.0) + 2.0 / (lam + 4.0)
    ref = dense_inverse_fractional_apply(pencil, symbol, r)
    out = op.apply(r)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    linear_only = RationalOperator(
        PartialFraction(0.0, [], [], 1e-12, c1=2.0), pencil)
    ref = dense_inverse_fractional_apply(pencil, lambda lam: 2.0 * lam, r)
    out = linear_only.apply(r)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    # c1 = 0 costs nothing: same solve count and the same result as before
    plain = RationalOperator(PartialFraction(0.3, [1.0, 2.0], [-1.0, -4.0], 1e-12),
                             pencil)
    assert plain.solves_per_apply == 3
    ref = dense_apply(plain.pf, pencil, r)
    assert np.linalg.norm(plain.apply(r) - ref) <= 1e-11 * np.linalg.norm(ref)


def test_two_negative_poles_match_dense():
    pencil = assemble_interface(48)
    pf = PartialFraction(0.3, [1.0, 2.0], [-1.0, -4.0], 1e-12)
    op = RationalOperator(pf, pencil)
    # one solver per pole plus the mass solver
    assert op.solves_per_apply == 3
    r = np.random.default_rng(1).standard_normal(pencil.n_c)
    out = op.apply(r)
    ref = dense_apply(pf, pencil, r)
    assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)


def test_inverse_recovery_via_fit():
    # The reciprocal of alpha*x + beta*x is 1/x; applying its fit to b = A x
    # recovers x.
    pencil = assemble_interval(100, periodic=False)
    pf = fit_for_pencil(0.5, 0.5, 1.0, 1.0, pencil, 1e-12)
    op = RationalOperator(pf, pencil)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(pencil.n_c)
    b = pencil.A @ x
    out = op.apply(b)
    assert np.linalg.norm(out - x) <= 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("mu,K", [(1.0, 1.0), (1.0, 1e-6), (1e-2, 1.0)])
def test_oracle_agreement(mu, K):
    pencil = assemble_interface(128)
    eps_ra = 1e-8
    pf = fit_for_pencil(1.0 / mu, K / mu, -0.5, 0.5, pencil, eps_ra)
    op = RationalOperator(pf, pencil)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(pencil.n_c)
    reciprocal = lambda lam: 1.0 / ((1.0 / mu) * lam**-0.5 + (K / mu) * lam**0.5)
    ref = dense_inverse_fractional_apply(pencil, reciprocal, b)
    M = pencil.M.toarray()
    diff = op.apply(b) - ref
    m_norm = lambda v: np.sqrt(v @ (M @ v))
    assert m_norm(diff) <= 100 * eps_ra * m_norm(ref)


def test_conjugate_pair_single_factorization():
    # On the ring the border couples to both ends of the leading block, on
    # the Dirichlet interval to its last unknown only.
    c, p = 0.5 + 0.25j, -2.0 + 1.0j
    pf = PartialFraction(0.1, [c, np.conj(c)], [p, np.conj(p)], 1e-12)
    for pencil in (assemble_interface(40), assemble_interval(40, periodic=False)):
        op = RationalOperator(pf, pencil)
        # the pair shares one complex factorization
        assert op.solves_per_apply == 2
        r = np.random.default_rng(4).standard_normal(pencil.n_c)
        out = op.apply(r)
        assert out.dtype == np.float64
        ref = dense_apply(pf, pencil, r)
        assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)
    # SciPy's tridiagonal LU takes no 2 x 2 block
    with pytest.raises(ValueError, match="at least four unknowns"):
        RationalOperator(pf, assemble_interface(3))


def test_singular_pair_shift_reports_pole(monkeypatch):
    # A pair whose tridiagonal LU meets an exactly zero pivot cannot be
    # solved; gttrf reports it with info > 0 and the error names the pole.
    real_zgttrf = operator_module.zgttrf

    def singular_zgttrf(dl, d, du):
        *lu, _info = real_zgttrf(dl, d, du)
        return (*lu, 3)

    monkeypatch.setattr(operator_module, "zgttrf", singular_zgttrf)
    c, p = 0.5 + 0.25j, -2.0 + 1.0j
    pf = PartialFraction(0.1, [c, np.conj(c)], [p, np.conj(p)], 1e-12)
    with pytest.raises(FactorizationError, match=(
            r"pole -2\.000000e\+00[+-]1\.000000e\+00j is singular \(gttrf info 3\)")):
        RationalOperator(pf, assemble_interface(40))


@pytest.mark.parametrize("make", [
    lambda: assemble_unit_square(6),
    lambda: _permuted(assemble_interval(32, periodic=True), 0),
    lambda: assemble_interval(3, periodic=False),
], ids=["square-6", "scrambled-ring-32", "interval-3"])
def test_pencil_that_is_not_bordered_tridiagonal_raises(make, monkeypatch):
    # A pencil that is not tridiagonal once its last unknown is removed, or
    # has fewer than three unknowns, has no solver: it raises before any
    # factorization.
    monkeypatch.setattr(operator_module, "dpttrf", _no_factorization)
    monkeypatch.setattr(operator_module, "zgttrf", _no_factorization)
    c, p = 0.5 + 0.25j, -2.0 + 1.0j
    pf = PartialFraction(0.1, [1.0, c, np.conj(c)], [-1.0, p, np.conj(p)], 1e-12)
    with pytest.raises(ValueError, match="tridiagonal once its last unknown is removed"):
        RationalOperator(pf, make())


@pytest.mark.parametrize("pole", [0.5, 3e4], ids=["below-spectrum", "above-spectrum-no-rho"])
def test_positive_pole_off_the_spectrum_is_a_definite_shift(pole, monkeypatch):
    # A ring pole in (0, lambda_min) makes A - p M definite, so it takes the
    # bordered tridiagonal LDL^T without a warning.  A pole above the spectrum
    # (3e4 > rho_bound = 12289) fails as A - p M and is factorized as p M - A
    # with its residue negated; the rule reads no bound on the spectrum.
    monkeypatch.setattr(operator_module, "splu", _no_sparse_lu)
    pencil = assemble_interface(32)
    assert pencil.rho_bound == 12289.0
    pf = PartialFraction(0.0, [1.0], [pole], 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = RationalOperator(pf, pencil)
    r = np.random.default_rng(5).standard_normal(pencil.n_c)
    out = op.apply(r)
    ref = dense_apply(pf, pencil, r)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("make,match", [
    (lambda: assemble_interface(64), r"\(pttrf info \d+\)"),
], ids=["ring-64"])
def test_pole_on_the_spectrum_raises_naming_it(make, match):
    # Neither A - p M nor p M - A is definite for a pole inside
    # [lambda_min, lambda_max]; the error names the pole in the middle of the
    # term list.
    pf = PartialFraction(0.0, [1.0, 1.0, 1.0], [-1.0, 2000.0, -1e4], 1e-12)
    with pytest.raises(FactorizationError, match=(
            r"pole 2\.000000e\+03 is not positive definite " + match
            + r", nor is its negation: pole 2\.000000e\+03 lies on the spectrum")):
        RationalOperator(pf, make())


@pytest.mark.parametrize("n", [64, 512])
def test_definite_shifts_share_one_buffer(n):
    # With a lumped mass matrix the mass shift and the strongest shift solve
    # their border vectors on end blocks, the others (one of them p M - A,
    # above rho_bound) on all of T.  D and E of every shift live in the one
    # buffer the apply reads, each equal to pttrf of the shift's own freshly
    # assembled diagonals; a full-length border vector lives there too, and
    # end blocks do not.
    tiny = np.finfo(float).tiny
    ring = assemble_interface(n)
    lumped = sp.diags(np.asarray(ring.M.sum(axis=1)).ravel())
    pencil = OperatorPencil(ring.A, lumped, spatial_dimension=1)
    poles = [-1.0, -1e3, 2.0 * pencil.rho_bound, -1e20]
    op = RationalOperator(PartialFraction(0.5, [1.0, 2.0, 3.0, 4.0], poles, 1e-12), pencil)
    buffer = op._buffer
    assert buffer.shape == (3, 5, n - 1)
    assert op._full.tolist() == [False, True, True, True, False]
    assert [row for row, _blocks in op._split] == [0, 4]
    shifts = [pencil.M] + [pencil.A - p * pencil.M if p < 0 else p * pencil.M - pencil.A
                           for p in poles]
    for row, shifted in enumerate(shifts):
        d, e, info = dpttrf(shifted.diagonal()[:-1], shifted.diagonal(-1)[:-1])
        e[np.abs(e) < tiny] = 0.0
        assert info == 0
        assert np.array_equal(buffer[0, row], d) and np.array_equal(buffer[1, row, :-1], e)
        if op._full[row]:
            w, _info = dpttrs(d, e, shifted[-1, :-1].toarray().ravel())
            w[np.abs(w) < tiny] = 0.0
            assert np.array_equal(buffer[2, op._full_rows[row]], w)
    for _row, blocks in op._split:
        assert [w.size < n - 1 for _lo, w in blocks] == [True, True]
        assert not any(np.shares_memory(buffer, w) for _lo, w in blocks)


def test_singular_shift_reports_pole():
    # The plain periodic stiffness is singular, so a pole at zero cannot be
    # factorized as an SPD shift.
    ring = assemble_interval(32, periodic=True)
    pf = PartialFraction(0.0, [1.0], [0.0], 1e-12)
    with pytest.raises(FactorizationError, match="pole .* is numerically singular"):
        RationalOperator(pf, ring)


def test_linearity():
    pencil = assemble_interface(64)
    pf = fit_for_pencil(1.0, 1.0, -0.5, 0.5, pencil, 1e-10)
    op = RationalOperator(pf, pencil)
    rng = np.random.default_rng(6)
    r1 = rng.standard_normal(pencil.n_c)
    r2 = rng.standard_normal(pencil.n_c)
    a, b = 2.5, -1.25
    lhs = op.apply(a * r1 + b * r2)
    rhs = a * op.apply(r1) + b * op.apply(r2)
    scale = np.linalg.norm(lhs)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_determinism_bitwise():
    pencil = assemble_interface(64)
    pf = fit_for_pencil(1.0, 1e-4, -0.5, 0.5, pencil, 1e-10)
    op = RationalOperator(pf, pencil)
    r = np.random.default_rng(7).standard_normal(pencil.n_c)
    assert np.array_equal(op.apply(r), op.apply(r))
    op2 = RationalOperator(pf, pencil)
    assert np.array_equal(op.apply(r), op2.apply(r))


def _row_solve(pencil, pole, r):
    """The stacked solve's row of a real pole for r, as the apply of the pole's
    one-term operator with unit residue shows it: negated back for a pole
    above rho_bound, whose row factorizes p M - A."""
    x = RationalOperator(PartialFraction(0.0, [1.0], [pole], 1e-12), pencil).apply(r)
    return -x if pole > pencil.rho_bound else x


def _stacked_sum(weights, solutions):
    """weights @ X of per-shift solutions, taken as the stacked apply takes it:
    one product over the leading unknowns and one over the last, with
    contiguous operands."""
    weights = np.ascontiguousarray(weights)
    heads = np.ascontiguousarray([x[:-1] for x in solutions])
    lasts = np.array([x[-1] for x in solutions])
    return np.append(weights @ heads, weights @ lasts)


def test_apply_sums_the_terms_bitwise():
    # Every real shift is solved in one stacked pttrs call whose rows are
    # bitwise the solves of one-term operators, and the terms are summed by
    # one weighted product, the residue of the p M - A row negated.  With no
    # constant term no larger mass solve absorbs a last-bit difference of the
    # terms.
    pencil = assemble_interface(64)
    poles = [-1.0, -40.0, 3.0 * pencil.rho_bound]
    op = RationalOperator(PartialFraction(0.0, [0.7, 1.9, -2.3], poles, 1e-12), pencil)
    r = np.random.default_rng(3).standard_normal(pencil.n_c)
    want = _stacked_sum(np.array([0.7, 1.9, 2.3]), [_row_solve(pencil, p, r) for p in poles])
    assert np.array_equal(op.apply(r), want)


def _poisoned_empty(monkeypatch):
    """Fill every array np.empty returns with NaN bytes, so a read of an entry
    nothing wrote shows in the result."""
    real_empty = np.empty

    def empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.view(np.uint8).fill(0xFF)
        return out

    monkeypatch.setattr(np, "empty", empty)


def test_apply_in_several_blocks_matches_per_shift_solves(monkeypatch):
    # At 131072 cells one stacked pttrs call takes four rows: the mass row
    # and four real shifts take two blocks, the last one partial, and the
    # linear term's second mass solve is a one-row call.  Each block must
    # stay uncoupled from its neighbours in the stack (the unused last
    # multiplier of every row is zero), whatever the buffer held before.  The
    # exact FFT symbol of the whole form is
    # c0 / lam_M + c1 lam_A / lam_M^2 + sum c_i / (lam_A - p_i lam_M).
    # c1 and the residue above rho_bound are chosen so that every row carries
    # at least 1e-10 of the result, the last block's row 3e-7: a row dropped,
    # negated or weighted by another row's residue shows at the bound.
    _poisoned_empty(monkeypatch)
    n = 131072
    pencil = assemble_interface(n)
    c, p = 0.5 + 0.25j, -3.0 + 2.0j
    poles = [-1.0, p, np.conj(p), -40.0, -1e7, 3.0 * pencil.rho_bound]
    residues = [0.7, c, np.conj(c), 1.9, 3e4, -2.3e10]
    op = RationalOperator(PartialFraction(0.2, residues, poles, 1e-12, c1=1e-6), pencil)
    real_dpttrs, rows = dpttrs, []

    def counting_dpttrs(d, e, b, **kwargs):
        rows.append(d.size // (n - 1))
        return real_dpttrs(d, e, b, **kwargs)

    monkeypatch.setattr(operator_module, "dpttrs", counting_dpttrs)
    lam_m, lam_a = _circulant_symbols(n)
    symbol = 0.2 / lam_m + 1e-6 * lam_a / lam_m ** 2 + sum(
        c / (lam_a - p * lam_m) for c, p in zip(residues, poles))
    r = np.random.default_rng(16).standard_normal(n)
    ref = np.fft.ifft(np.fft.fft(r) * symbol).real
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-12 * np.linalg.norm(ref)
    assert rows == [4, 1, 1]


def test_ring_form_without_constant_term_matches_dense_spectral_apply(monkeypatch):
    # c0 = 0 with c1 != 0 keeps the mass row in the stack at weight 0, for
    # the linear term's first solve; a pole above the spectrum is factorized
    # as p M - A and a conjugate pair is solved on its own.
    _poisoned_empty(monkeypatch)
    pencil = assemble_interface(64)
    c, p = 0.5 + 0.25j, -3.0 + 2.0j
    above = 3.0 * pencil.rho_bound
    residues = [0.7, c, np.conj(c), 1.9, -2.3]
    poles = [-1.0, p, np.conj(p), -40.0, above]
    pf = PartialFraction(0.0, residues, poles, 1e-12, c1=2e-3)
    op = RationalOperator(pf, pencil)
    assert op.solves_per_apply == 6
    r = np.random.default_rng(17).standard_normal(pencil.n_c)
    symbol = lambda lam: 2e-3 * lam + sum(c / (lam - p) for c, p in zip(residues, poles))
    ref = dense_inverse_fractional_apply(pencil, symbol, r)
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_term_order_does_not_depend_on_input_order():
    # Real poles, a complex pair and a pole above rho_bound, given sorted by
    # |pole| and scrambled: the form's terms, and so the factorizations and
    # the apply, come out in the same ascending |pole| order.
    pencil = assemble_interface(64)
    c, p = 0.5 + 0.25j, -3.0 + 2.0j
    above = 3.0 * pencil.rho_bound
    ordered = PartialFraction(0.2, [0.7, c, np.conj(c), 1.9, -2.3],
                              [-1.0, p, np.conj(p), -40.0, above], 1e-12)
    scrambled = PartialFraction(0.2, [-2.3, np.conj(c), 1.9, 0.7, c],
                                [above, np.conj(p), -40.0, -1.0, p], 1e-12)
    poles, residues, pair = scrambled.terms
    assert poles.tolist() == [-1.0, p, -40.0, above]
    assert residues.tolist() == [0.7, c, 1.9, -2.3]
    assert pair.tolist() == [False, True, False, False]
    ops = [RationalOperator(pf, pencil) for pf in (ordered, scrambled)]
    r = np.random.default_rng(4).standard_normal(pencil.n_c)
    assert np.array_equal(ops[0].apply(r), ops[1].apply(r))
    telemetry = [op.telemetry for op in ops]
    assert telemetry[0]["factor_nnz"] == telemetry[1]["factor_nnz"]


def _ring_form(pencil, scale):
    # A pole above rho_bound is factorized as p M - A with its residue negated.
    c, p = 0.5 + 0.25j, -3.0 + 2.0j
    return PartialFraction(0.2 * scale, np.array([0.7, c, np.conj(c), 1.9, -2.3]) * scale,
                           [-1.0, p, np.conj(p), -40.0, 3.0 * pencil.rho_bound], 1e-12,
                           c1=1e-3 * scale)


@pytest.mark.parametrize("make,form", [
    (lambda: assemble_interface(64), _ring_form),
], ids=["ring-pM-A"])
def test_reweighted_operator_applies_as_a_fresh_build(make, form, monkeypatch):
    # Same poles on the same pencil: the reweighted operator factorizes
    # nothing, keeps the operator's factorization record and applies bitwise
    # as a fresh build of the new form, whose spectral map is the form's.
    pencil = make()
    op = RationalOperator(form(pencil, 1.0), pencil)
    pf = form(pencil, -7.3e-3)
    fresh = RationalOperator(pf, pencil)
    with monkeypatch.context() as patch:
        patch.setattr(operator_module, "dpttrf", _no_factorization)
        patch.setattr(operator_module, "zgttrf", _no_factorization)
        reweighted = op.reweighted(pf)
    for key in ("factor_seconds", "factor_nnz"):
        assert reweighted.telemetry[key] == op.telemetry[key]
    r = np.random.default_rng(9).standard_normal(pencil.n_c)
    out = reweighted.apply(r)
    assert np.array_equal(out, fresh.apply(r))
    ref = dense_inverse_fractional_apply(pencil, pf, r)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
    assert (reweighted.apply_count, op.apply_count) == (1, 0)
    assert reweighted.pf is pf and op.pf is not pf
    assert reweighted.pencil is pencil


def test_reweighted_operator_needs_its_poles():
    pencil = assemble_interface(64)
    op = RationalOperator(_ring_form(pencil, 1.0), pencil)
    c, p = 0.5 + 0.25j, -3.0 + 2.0j
    rho = pencil.rho_bound
    others = [
        PartialFraction(0.2, [0.7, c, np.conj(c), 1.9, -2.3],
                        [-1.0, p, np.conj(p), -40.0 * (1 + 2**-52), 3.0 * rho], 1e-12),
        PartialFraction(0.2, [0.7, c, np.conj(c), 1.9], [-1.0, p, np.conj(p), -40.0], 1e-12),
        # a real pole in place of the pair
        PartialFraction(0.2, [0.7, 0.5, 1.9, -2.3], [-1.0, -3.0, -40.0, 3.0 * rho], 1e-12),
    ]
    for pf in others:
        with pytest.raises(ValueError, match="poles"):
            op.reweighted(pf)


def test_apply_count_telemetry():
    pencil = assemble_interface(32)
    pf = PartialFraction(1.0, [1.0], [-1.0], 1e-12)
    op = RationalOperator(pf, pencil)
    r = np.ones(pencil.n_c)
    op.apply(r)
    op.apply(r)
    assert op.apply_count == 2
    telemetry = op.telemetry
    assert telemetry["solves_per_apply"] == 2
    # the total apply time, and per shift, mass matrix first, the
    # factorization time and fill
    assert "shift_seconds" not in telemetry
    assert telemetry["apply_seconds"] > 0
    for key in ("factor_seconds", "factor_nnz"):
        assert len(telemetry[key]) == 2
    assert all(t >= 0 for t in telemetry["factor_seconds"])
    assert all(nnz >= pencil.n_c for nnz in telemetry["factor_nnz"])
    reweighted = op.reweighted(pf)
    assert (reweighted.apply_count, reweighted.telemetry["apply_seconds"]) == (0, 0.0)


def test_spd_audit_positive_operator():
    pencil = assemble_interface(48)
    pf = PartialFraction(0.5, [1.0, 2.0], [-1.0, -3.0], 1e-12)
    op = RationalOperator(pf, pencil)
    report = spd_audit(op, trials=5, seed=0)
    assert report.positive_definite
    assert report.min_rayleigh > 0
    assert report.max_symmetry_defect <= 1e-12


def test_spd_audit_mass_only_symmetric():
    pencil = assemble_interface(48)
    pf = PartialFraction(1.0, [], [], 1e-12)
    op = RationalOperator(pf, pencil)
    report = spd_audit(op, trials=3, seed=1)
    assert report.max_symmetry_defect <= 1e-12
    with pytest.raises(ValueError):
        spd_audit(op, trials=0)


@pytest.mark.parametrize("nan_apply", [0, 2, 3])
def test_spd_audit_carries_nan(nan_apply):
    # An apply that returns NaN, of r or q, first or in a later trial, leaves
    # NaN in both fields, so the report does not read positive definite.
    class NanOnce:
        n, calls = 8, 0

        def apply(self, r):
            self.calls += 1
            return np.full_like(r, np.nan) if self.calls == nan_apply + 1 else r.copy()

    report = spd_audit(NanOnce(), trials=3)
    assert np.isnan(report.min_rayleigh) and np.isnan(report.max_symmetry_defect)
    assert not report.positive_definite


@pytest.mark.parametrize("field,value", [("c0", np.nan), ("c1", np.inf), ("pole", np.nan),
                                         ("pole", -np.inf), ("residue", np.nan)])
def test_form_that_is_not_finite_raises_naming_it(field, value, monkeypatch):
    # A non-finite c0, c1 or residue would make every apply NaN, and a
    # non-finite pole has no shift: each is rejected before any
    # factorization, in a reweighted form too.
    pencil = assemble_interface(32)
    op = RationalOperator(PartialFraction(0.2, [1.0, 2.0], [-1.0, -40.0], 1e-12), pencil)
    monkeypatch.setattr(operator_module, "dpttrf", _no_factorization)
    monkeypatch.setattr(operator_module, "zgttrf", _no_factorization)
    form = {"c0": 0.2, "c1": 0.0, "pole": -1.0, "residue": 1.0, field: value}
    pf = PartialFraction(form["c0"], [form["residue"], 2.0], [form["pole"], -40.0], 1e-12,
                         c1=form["c1"])
    with pytest.raises(ValueError, match=f"form's {field} is not finite"):
        RationalOperator(pf, pencil)
    if field != "pole":
        with pytest.raises(ValueError, match=f"form's {field} is not finite"):
            op.reweighted(pf)


def test_apply_rejects_wrong_length():
    pencil = assemble_interface(32)
    op = RationalOperator(PartialFraction(1.0, [], [], 1e-12), pencil)
    with pytest.raises(ValueError):
        op.apply(np.ones(pencil.n_c + 1))


def test_solve_count_leaves_out_a_mass_row_that_is_skipped(monkeypatch):
    # With c0 = c1 = 0 the apply skips the mass row, so it solves one row per
    # pole, and so do the count and the solve report of a Krylov loop.
    pencil = assemble_interface(64)
    op = RationalOperator(PartialFraction(0.0, [1.0, 2.0], [-1.0, -10.0], 1e-12), pencil)
    real_dpttrs, rows = dpttrs, []

    def counting_dpttrs(d, e, b, **kwargs):
        rows.append(d.size // (pencil.n_c - 1))
        return real_dpttrs(d, e, b, **kwargs)

    monkeypatch.setattr(operator_module, "dpttrs", counting_dpttrs)
    r = np.random.default_rng(5).standard_normal(pencil.n_c)
    op.apply(r)
    assert sum(rows) == op.solves_per_apply == 2
    rows.clear()
    _, report = pcg(pencil.A + pencil.M, op, r, tol=1e-6)
    assert report.inner_solve_total == sum(rows) > 0


def _no_sparse_lu(*_args, **_kwargs):
    raise AssertionError("a shift reached sparse LU")


def _no_factorization(*_args, **_kwargs):
    raise AssertionError("a shift was factorized")


def _permuted(pencil, seed):
    """The pencil with its unknowns numbered at random."""
    perm = np.random.default_rng(seed).permutation(pencil.n_c)
    return OperatorPencil(pencil.A[perm][:, perm], pencil.M[perm][:, perm],
                          spatial_dimension=1)


@pytest.mark.parametrize("make", [
    lambda: assemble_interval(60, periodic=False),
    lambda: assemble_interface(64),
], ids=["interval-60", "ring-64"])
def test_definite_apply_matches_dense_spectral_apply(make, monkeypatch):
    # The mass matrix and nonpositive poles are definite shifts, which the
    # bordered LDL^T path factorizes without sparse LU.
    calls = []
    real_splu = operator_module.splu

    def recording_splu(matrix, **options):
        calls.append(options)
        return real_splu(matrix, **options)

    monkeypatch.setattr(operator_module, "splu", recording_splu)
    pencil = make()
    pf = PartialFraction(0.2, [1.0, 0.5, 3.0], [-2.0, 0.0, -50.0], 1e-12)
    op = RationalOperator(pf, pencil)
    assert calls == []
    r = np.random.default_rng(10).standard_normal(pencil.n_c)
    symbol = lambda lam: 0.2 + 1.0 / (lam + 2.0) + 0.5 / lam + 3.0 / (lam + 50.0)
    ref = dense_inverse_fractional_apply(pencil, symbol, r)
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_pole_above_rho_is_a_negative_definite_shift(monkeypatch):
    # A - p M is negative definite for p > rho_bound: it is factorized as
    # p M - A by the ring's bordered tridiagonal LDL^T at once, without a
    # warning.
    monkeypatch.setattr(operator_module, "splu", _no_sparse_lu)
    pencil = assemble_interface(256)
    rho = pencil.rho_bound
    pf = PartialFraction(0.1, [0.5, 1.0], [-1.0, 2.0 * rho], 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = RationalOperator(pf, pencil)
    r = np.random.default_rng(11).standard_normal(pencil.n_c)
    symbol = lambda lam: 0.1 + 0.5 / (lam + 1.0) + 1.0 / (lam - 2.0 * rho)
    ref = dense_inverse_fractional_apply(pencil, symbol, r)
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_negative_definite_pencil_reports_pole():
    # -A of a Dirichlet interval is negative definite, so the pole at zero is
    # not an SPD shift, and pttrf fails.
    interval = assemble_interval(32, periodic=False)
    pf = PartialFraction(0.0, [1.0], [0.0], 1e-12)
    pencil = OperatorPencil(-interval.A, interval.M, spatial_dimension=1)
    with pytest.raises(FactorizationError, match=r"pole .* not positive definite \(pttrf info 1\)"):
        RationalOperator(pf, pencil)


def _row_arrays(op, row):
    """What the apply reads of a buffer row: D, E, the blocks (lo, w) of the
    border vector and the Schur pivot."""
    blocks = dict(op._split).get(row) or [(0, op._buffer[2, op._full_rows[row]])]
    return op._buffer[0, row], op._buffer[1, row, :-1], blocks, op._pivots[row]


def _stored_arrays(op):
    """Every array the apply reads of each shift, in telemetry order: the mass
    matrix first, then one shift per term."""
    rows, pairs, stored = iter(range(op._pivots.size)), iter(op._pairs), []
    for pair in [False, *op.pf.terms[2]]:
        if pair:
            solver = next(pairs)
            stored.append([*solver.lu[:4], solver.w, np.array([solver.s])])
        else:
            d, e, blocks, s = _row_arrays(op, next(rows))
            stored.append([d, e, *(w for _lo, w in blocks), np.array([s])])
    return stored


def _circulant_symbols(n):
    """The eigenvalues of M and A of assemble_interface(n), in FFT order.

    A = K + M with K and M the circulant P1 stiffness and mass of the ring, so
    one FFT diagonalizes every shift exactly, a complex one too.
    """
    h = 1.0 / n
    cos = np.cos(2.0 * np.pi * np.arange(n) / n)
    lam_m = h * (4.0 + 2.0 * cos) / 6.0
    return lam_m, (2.0 - 2.0 * cos) / h + lam_m


def _circulant_solve(n, pole, r):
    """(A - pole M)^{-1} r on assemble_interface(n), or M^{-1} r for pole None,
    as a complex vector."""
    lam_m, lam_a = _circulant_symbols(n)
    symbol = lam_m if pole is None else lam_a - pole * lam_m
    return np.fft.ifft(np.fft.fft(r) / symbol)


def test_band_factors_hold_no_subnormal_entries():
    # A strongly shifted ring's border solve w = T^-1 b decays geometrically
    # from both ends of the leading block through the subnormal range; stored
    # entries below the smallest normal double are flushed to zero, which
    # keeps every solve at full speed.  The same holds for the real and
    # imaginary parts of a strongly shifted conjugate pair's border vector.
    tiny = np.finfo(float).tiny
    poles = [-1.0, -1e6, -1e11]
    c, p = 0.5 + 0.25j, -1e9 + 1e9j
    pf = PartialFraction(1.0, [1.0] * 3 + [c, np.conj(c)], poles + [p, np.conj(p)], 1e-12)
    ring = assemble_interface(4096)
    op = RationalOperator(pf, ring)
    stored = _stored_arrays(op)
    for array in (a.view(float) for arrays in stored for a in arrays):
        assert not np.any((array != 0.0) & (np.abs(array) < tiny))
    assert op.telemetry["factor_nnz"] == [
        sum(int(np.count_nonzero(a)) for a in arrays) for arrays in stored]
    r = np.random.default_rng(12).standard_normal(ring.n_c)
    ref = (sum(_circulant_solve(ring.n_c, q, r).real for q in [None] + poles)
           + 2.0 * np.real(c * _circulant_solve(ring.n_c, p, r)))
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-10 * np.linalg.norm(ref)
    # the strongest shift's border vector decayed below tiny, so only its end
    # blocks are stored
    assert sum(w.size for _lo, w in _row_arrays(op, 3)[2]) < ring.n_c - 1


@pytest.mark.parametrize("pole", [None, -1e-3, -1.0, -1e3, -1e6, -1e9, -1e11, "2rho",
                                  -1.0 + 1e-3j, -3e4 + 2e4j, -1e9 + 1e9j])
def test_ring_shifts_match_circulant_fft_solve(pole, monkeypatch):
    # Every shift of a 4096-cell ring, definite or of a conjugate pair,
    # against the exact FFT solve of its circulant matrix; none of them may
    # fall back to sparse LU.  A pair contributes 2 Re(c x).
    monkeypatch.setattr(operator_module, "splu", _no_sparse_lu)
    pencil = assemble_interface(4096)
    if pole == "2rho":
        pole = 2.0 * pencil.rho_bound
    c = 0.5 + 0.25j
    if pole is None:
        pf = PartialFraction(1.0, [], [], 1e-12)
    elif isinstance(pole, complex):
        pf = PartialFraction(0.0, [c, np.conj(c)], [pole, np.conj(pole)], 1e-12)
    else:
        pf = PartialFraction(0.0, [1.0], [pole], 1e-12)
    op = RationalOperator(pf, pencil)
    r = np.random.default_rng(13).standard_normal(pencil.n_c)
    x = _circulant_solve(pencil.n_c, pole, r)
    ref = 2.0 * np.real(c * x) if isinstance(pole, complex) else x.real
    bound = 1e-12 if pole is None or abs(pole) >= 1e6 else 1e-7
    assert np.linalg.norm(op.apply(r) - ref) <= bound * np.linalg.norm(ref)


def test_linear_term_with_end_block_rows_matches_circulant_fft_apply():
    # c1 M^-1 A M^-1 r solves through the mass row twice; on a 4096-cell
    # ring the mass row, and the p M - A row above rho_bound, store their
    # border vectors as end blocks.  The exact FFT symbol of the whole form
    # is c1 lam_A / lam_M^2 + sum c_i / (lam_A - p_i lam_M); the p M - A
    # row's residue is large enough for a sign error to show at the bound.
    n = 4096
    pencil = assemble_interface(n)
    poles = [-1e6, 2.0 * pencil.rho_bound]
    residues = [1e6, -2.3e4]
    op = RationalOperator(PartialFraction(0.0, residues, poles, 1e-12, c1=1e-3), pencil)
    assert [row for row, _blocks in op._split] == [0, 2]
    lam_m, lam_a = _circulant_symbols(n)
    symbol = 1e-3 * lam_a / lam_m ** 2 + sum(
        c / (lam_a - p * lam_m) for c, p in zip(residues, poles))
    r = np.random.default_rng(18).standard_normal(n)
    ref = np.fft.ifft(np.fft.fft(r) * symbol).real
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_singular_ring_fails_at_the_schur_pivot():
    # The periodic stiffness without its last unknown is definite, so pttrf
    # succeeds; the singularity shows only in the border's Schur pivot.
    pencil = assemble_interval(64, periodic=True)
    pf = PartialFraction(0.0, [1.0], [0.0], 1e-12)
    with pytest.raises(FactorizationError, match=r"pole 0\.0+e\+00 is numerically singular"):
        RationalOperator(pf, pencil)


def test_negative_ring_fails_in_pttrf():
    base = assemble_interface(64)
    pencil = OperatorPencil(-base.A, base.M, spatial_dimension=1)
    pf = PartialFraction(0.0, [1.0], [0.0], 1e-12)
    with pytest.raises(FactorizationError, match=r"pole 0\.0+e\+00 .*pttrf info 1\)"):
        RationalOperator(pf, pencil)


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 13])
@pytest.mark.parametrize("pole", [None, -1.0, -5.26e5, -1e6, -1.414e6, -1e7, -1e9, -1e11])
@pytest.mark.parametrize("n", [4096, 131072])
def test_border_blocks_match_full_length_solve(n, pole, scale):
    # The border vector w = T^-1 b, stored as two end blocks where it decays
    # below the smallest normal double in between, against one full-length
    # pttrs with the same factor, flushed the same way.  Scaling the last
    # unknown by 2^13 (S A S, S M S: the same pencil in another basis) scales
    # w by 2^13, so the first block size leaves its inner entries above tiny
    # and has to double.
    tiny = np.finfo(float).tiny
    base = assemble_interface(n)
    weights = np.ones(n)
    weights[-1] = scale
    S = sp.diags(weights)
    pencil = OperatorPencil(S @ base.A @ S, S @ base.M @ S, spatial_dimension=1)
    if pole is None:
        op = RationalOperator(PartialFraction(1.0, [], [], 1e-12), pencil)
        row, shifted = 0, pencil.M
    else:
        op = RationalOperator(PartialFraction(0.0, [1.0], [pole], 1e-12), pencil)
        row, shifted = 1, pencil.A - pole * pencil.M
    d, e, blocks, s = _row_arrays(op, row)
    m = n - 1
    b = shifted[-1, :-1].toarray().ravel()
    ref, _info = dpttrs(d, e, b)
    ref[np.abs(ref) < tiny] = 0.0
    w = np.zeros(m)
    for lo, block in blocks:
        w[lo:lo + block.size] = block
        assert not np.any((block != 0) & (np.abs(block) < tiny))
    assert np.all(np.abs(w - ref) < 4 * tiny)
    assert s == pytest.approx(shifted[-1, -1] - b @ ref, rel=1e-12)
    assert not np.any((e != 0) & (np.abs(e) < tiny))
    stored = [d, e] + [block for _lo, block in blocks]
    assert op.telemetry["factor_nnz"][-1] == sum(np.count_nonzero(x) for x in stored) + 1
    if n == 131072 and scale == 1.0 and pole is not None and pole <= -1e7:
        assert sum(block.size for _lo, block in blocks) < n / 2
    if n == 131072 and pole in (-5.26e5, -1.414e6):
        # |E| = 0.99 and above: the first blocks already reach past the
        # middle, so w is solved on all of T.
        assert [(lo, block.size) for lo, block in blocks] == [(0, m)]
    first = {4096: {None: 539, -1e7: 895, -1e9: 476},
             131072: {None: 539, -1e7: 29363, -1e9: 2931}}[n]
    if pole in first:
        # The unscaled w fits the first block size; the scaled one doubles it once.
        k = first[pole] if scale == 1.0 else 2 * first[pole]
        assert [(lo, block.size) for lo, block in blocks] == [(0, k), (m - k, k)]


def test_multipliers_below_tiny_are_flushed():
    # Two subnormal off-diagonal entries of A give multipliers below the
    # smallest normal double, of either sign; the factor stores them as zeros
    # and counts only its nonzero entries.
    tiny = np.finfo(float).tiny
    base = assemble_interval(64, periodic=False)
    A = base.A.tolil()
    for i, value in ((5, 1e-310), (20, -1e-310)):
        A[i, i + 1] = A[i + 1, i] = value
    pencil = OperatorPencil(A.tocsr(), base.M, spatial_dimension=1)
    op = RationalOperator(PartialFraction(0.0, [1.0], [0.0], 1e-12), pencil)
    d, e, blocks, _s = _row_arrays(op, 1)
    assert e[5] == e[20] == 0.0
    assert not np.any((e != 0) & (np.abs(e) < tiny))
    stored = [d, e] + [block for _lo, block in blocks]
    assert op.telemetry["factor_nnz"][1] == sum(np.count_nonzero(x) for x in stored) + 1


def test_mid_coupled_border_takes_the_full_length_solve(monkeypatch):
    # A Dirichlet interval whose last row also couples to a middle unknown,
    # through the PSD rank-one term (e_last - e_mid)(e_last - e_mid)^T added
    # to A.  No pair of end blocks short of the whole leading block holds
    # both border positions, so every definite shift solves w on all of T, as
    # the conjugate pair's shift always does.
    monkeypatch.setattr(operator_module, "splu", _no_sparse_lu)
    base = assemble_interval(1500, periodic=False)
    n = base.n_c
    mid = n // 2
    v = sp.csr_matrix(([1.0, -1.0], ([0, 0], [n - 1, mid])), shape=(1, n))
    pencil = OperatorPencil(base.A + v.T @ v, base.M, spatial_dimension=1)
    c, p = 2e4 - 1e4j, -3e4 + 2e4j
    residues = [1.0, c, np.conj(c), 1e9, 1e11]
    poles = [-1.0, p, np.conj(p), -1e9, -1e11]
    pf = PartialFraction(0.5, residues, poles, 1e-12)
    op = RationalOperator(pf, pencil)
    assert op._buffer.shape == (3, 4, n - 1)
    assert op._full.all() and op._split == []
    assert [solver.w.size for solver in op._pairs] == [n - 1]
    r = np.random.default_rng(15).standard_normal(n)
    symbol = lambda lam: np.real(0.5 + sum(c / (lam - p) for c, p in zip(residues, poles)))
    ref = dense_inverse_fractional_apply(pencil, symbol, r)
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-10 * np.linalg.norm(ref)
