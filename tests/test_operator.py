import warnings

import numpy as np
import pytest

import fracra.operator as operator_module
from fracra.aaa import PartialFraction, fit_for_pencil
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
    pencil = assemble_interface(40)
    c, p = 0.5 + 0.25j, -2.0 + 1.0j
    pf = PartialFraction(0.1, [c, np.conj(c)], [p, np.conj(p)], 1e-12)
    op = RationalOperator(pf, pencil)
    # the pair shares one complex factorization
    assert op.solves_per_apply == 2
    r = np.random.default_rng(4).standard_normal(pencil.n_c)
    out = op.apply(r)
    assert out.dtype == np.float64
    ref = dense_apply(pf, pencil, r)
    assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)


def test_positive_pole_warns_but_solves():
    pencil = assemble_interface(32)
    pf = PartialFraction(0.0, [1.0], [0.5], 1e-12)
    with pytest.warns(RuntimeWarning, match="positive pole"):
        op = RationalOperator(pf, pencil)
    r = np.random.default_rng(5).standard_normal(pencil.n_c)
    out = op.apply(r)
    ref = dense_apply(pf, pencil, r)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


def test_singular_shift_reports_pole():
    # The plain periodic stiffness is singular, so a pole at zero cannot be
    # factorized as an SPD shift.
    pencil = assemble_interval(32, periodic=True)
    pf = PartialFraction(0.0, [1.0], [0.0], 1e-12)
    with pytest.raises(FactorizationError, match="pole"):
        RationalOperator(pf, pencil)


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
    # per shift, mass matrix first: apply time, factorization time and fill
    for key in ("shift_seconds", "factor_seconds", "factor_nnz"):
        assert len(telemetry[key]) == 2
    assert all(t >= 0 for t in telemetry["factor_seconds"])
    assert all(nnz >= pencil.n_c for nnz in telemetry["factor_nnz"])


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


def test_apply_rejects_wrong_length():
    pencil = assemble_interface(32)
    op = RationalOperator(PartialFraction(1.0, [], [], 1e-12), pencil)
    with pytest.raises(ValueError):
        op.apply(np.ones(pencil.n_c + 1))


def _no_sparse_lu(*_args, **_kwargs):
    raise AssertionError("a definite shift reached sparse LU")


@pytest.mark.parametrize("make,kd_min", [
    (lambda: assemble_interval(60, periodic=False), 1),
    (lambda: assemble_interface(64), 2),
    (lambda: assemble_unit_square(8), 3),
])
def test_banded_apply_matches_dense_spectral_apply(make, kd_min, monkeypatch):
    # The mass matrix and nonpositive poles are banded Cholesky shifts in
    # reverse Cuthill-McKee order; none of them may fall back to sparse LU.
    monkeypatch.setattr(operator_module, "splu", _no_sparse_lu)
    pencil = make()
    pf = PartialFraction(0.2, [1.0, 0.5, 3.0], [-2.0, 0.0, -50.0], 1e-12)
    op = RationalOperator(pf, pencil)
    assert op._mass_solver.factor.shape[0] - 1 >= kd_min
    r = np.random.default_rng(10).standard_normal(pencil.n_c)
    symbol = lambda lam: 0.2 + 1.0 / (lam + 2.0) + 0.5 / lam + 3.0 / (lam + 50.0)
    ref = dense_inverse_fractional_apply(pencil, symbol, r)
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_pole_above_rho_is_a_negative_definite_shift(monkeypatch):
    # A - p M is negative definite for p > rho_bound: it is factorized as
    # p M - A by banded Cholesky, without the positive-pole warning.
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
    # -A of a Dirichlet interval is negative definite, so the pole at zero
    # is not an SPD shift.
    base = assemble_interval(32, periodic=False)
    pencil = OperatorPencil(-base.A, base.M, spatial_dimension=1)
    pf = PartialFraction(0.0, [1.0], [0.0], 1e-12)
    with pytest.raises(FactorizationError, match="pole"):
        RationalOperator(pf, pencil)


def test_band_factors_hold_no_subnormal_entries():
    # On a ring in reverse Cuthill-McKee order the factor's coupling between
    # the two ends of the ordering decays through the subnormal range; those
    # entries are flushed to zero, which keeps every solve at full speed.
    pencil = assemble_interface(1024)
    pf = PartialFraction(1.0, [1.0, 1.0], [-1.0, -1e6], 1e-12)
    op = RationalOperator(pf, pencil)
    factors = [op._mass_solver.factor] + [solver.factor for *_, solver in op._terms]
    tiny = np.finfo(float).tiny
    for factor in factors:
        assert not np.any((factor != 0.0) & (np.abs(factor) < tiny))
    assert op.telemetry["factor_nnz"] == [int(np.count_nonzero(f)) for f in factors]
    r = np.random.default_rng(12).standard_normal(pencil.n_c)
    symbol = lambda lam: 1.0 + 1.0 / (lam + 1.0) + 1.0 / (lam + 1e6)
    ref = dense_inverse_fractional_apply(pencil, symbol, r)
    assert np.linalg.norm(op.apply(r) - ref) <= 1e-10 * np.linalg.norm(ref)
