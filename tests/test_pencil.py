import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from fracra.pencil import (
    DenseCapExceededError,
    OperatorPencil,
    assemble_interface,
    assemble_interval,
    assemble_unit_square,
    dense_eigendecomposition,
    dense_fractional_apply,
    dense_inverse_fractional_apply,
    load_pencil,
    read_matrix,
    save_pencil,
    write_matrix,
)


def dense_max_eig(pencil):
    return float(scipy.linalg.eigvalsh(pencil.A.toarray(), pencil.M.toarray())[-1])


def test_interval_periodic_rows():
    n = 4
    h = 1.0 / n
    p = assemble_interval(n, periodic=True)
    assert p.n_c == n
    A = p.A.toarray()
    M = p.M.toarray()
    for i in range(n):
        assert A[i, i] == pytest.approx(2.0 / h)
        assert A[i, (i + 1) % n] == pytest.approx(-1.0 / h)
        assert A[i, (i - 1) % n] == pytest.approx(-1.0 / h)
        assert M[i, i] == pytest.approx(4.0 * h / 6.0)
        assert M[i, (i + 1) % n] == pytest.approx(h / 6.0)
    # constant nullspace, exactly
    assert np.array_equal(p.A @ np.ones(n), np.zeros(n))
    # mass row sums total the domain measure
    assert M.sum() == pytest.approx(1.0, abs=1e-14)


def test_interval_dirichlet_spd():
    p = assemble_interval(10, periodic=False)
    assert p.n_c == 9
    eigs = scipy.linalg.eigvalsh(p.A.toarray())
    assert eigs[0] > 0


def test_interval_rejects_small():
    with pytest.raises(ValueError):
        assemble_interval(2)


def test_unit_square_counts_and_spd():
    p = assemble_unit_square(2)
    assert p.n_c == 1
    p = assemble_unit_square(8)
    assert p.n_c == 49
    eigs = scipy.linalg.eigvalsh(p.A.toarray())
    assert eigs[0] > 0
    assert 0 < p.M.toarray().sum() <= 1.0


def test_unit_square_rejects_degenerate():
    with pytest.raises(ValueError):
        assemble_unit_square(1)


def test_rho_bound_closed_form_periodic():
    for n in (16, 64, 128):
        p = assemble_interval(n, periodic=True)
        assert p.rho_bound == pytest.approx(12.0 * n * n, rel=1e-12)
        # attained by the oscillating mode when the cell count is even
        assert p.rho_bound == pytest.approx(dense_max_eig(p), rel=1e-8)


def test_rho_bound_dominates_spectrum():
    pencils = [
        assemble_interval(50, periodic=True),
        assemble_interval(400, periodic=True),
        assemble_interval(50, periodic=False),
        assemble_interval(401, periodic=False),
        assemble_interface(100),
        assemble_unit_square(8),
        assemble_unit_square(20),
    ]
    for p in pencils:
        assert p.n_c <= 400
        assert p.rho_bound >= dense_max_eig(p) * (1 - 1e-12)


def test_rho_bound_mesh_scaling():
    b1 = assemble_interval(32, periodic=True).rho_bound
    b2 = assemble_interval(64, periodic=True).rho_bound
    assert b2 / b1 == pytest.approx(4.0, rel=1e-12)


def test_rho_bound_rejects_zero_diagonal():
    A = sp.identity(4, format="csr")
    M = sp.diags([1.0, 1.0, 0.0, 1.0]).tocsr()
    with pytest.raises(ValueError, match="nonpositive diagonal"):
        OperatorPencil(A, M, spatial_dimension=1)


@pytest.mark.parametrize("make", [
    lambda: assemble_interface(64),
    lambda: assemble_interval(40, periodic=False),
    lambda: assemble_unit_square(7),
], ids=["ring", "interval", "square"])
def test_rho_bound_is_derived_from_the_matrices(make):
    # The bound is computed by the pencil itself, so a pencil rebuilt from an
    # assembler's own A and M has it bitwise.
    p = make()
    q = OperatorPencil(p.A, p.M, p.spatial_dimension)
    assert q.rho_bound == p.rho_bound > 0


def test_dense_apply_identity_and_one():
    p = assemble_interval(40, periodic=False)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(p.n_c)
    out = dense_fractional_apply(p, lambda lam: lam, r)
    assert out == pytest.approx(p.A @ r, rel=1e-10, abs=1e-12)
    out = dense_fractional_apply(p, lambda lam: np.ones_like(lam), r)
    assert out == pytest.approx(p.M @ r, rel=1e-10, abs=1e-12)


def test_dense_apply_semigroup():
    p = assemble_interval(100, periodic=False)
    rng = np.random.default_rng(1)
    r = rng.standard_normal(p.n_c)
    half = lambda lam: np.sqrt(lam)
    once = dense_fractional_apply(p, half, r)
    minv = np.linalg.solve(p.M.toarray(), once)
    twice = dense_fractional_apply(p, half, minv)
    ref = p.A @ r
    assert np.linalg.norm(twice - ref) <= 1e-8 * np.linalg.norm(ref)


def test_dense_inverse_composition():
    p = assemble_interface(64)
    rng = np.random.default_rng(2)
    r = rng.standard_normal(p.n_c)
    fwd = lambda lam: lam**-0.5 + lam**0.5
    inv = lambda lam: 1.0 / (lam**-0.5 + lam**0.5)
    out = dense_inverse_fractional_apply(p, inv, dense_fractional_apply(p, fwd, r))
    assert np.linalg.norm(out - r) <= 1e-10 * np.linalg.norm(r)


def test_dense_inverse_special_cases():
    p = assemble_interval(30, periodic=False)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(p.n_c)
    out = dense_inverse_fractional_apply(p, lambda lam: np.ones_like(lam), b)
    assert out == pytest.approx(np.linalg.solve(p.M.toarray(), b), rel=1e-9)

    sq = assemble_unit_square(6)
    b = rng.standard_normal(sq.n_c)
    out = dense_inverse_fractional_apply(sq, lambda lam: 1.0 / lam, b)
    assert out == pytest.approx(np.linalg.solve(sq.A.toarray(), b), rel=1e-8)


def test_complex_symbol_values_raise_unless_a_pair_rounds_away():
    # c/(x - p) + conj(c)/(x - conj p) summed in complex arithmetic is real up
    # to rounding and is taken as real; a residue without its conjugate
    # leaves an imaginary part of the size of its term, which raises instead
    # of being dropped.
    p = assemble_interface(32)
    b = np.random.default_rng(4).standard_normal(p.n_c)
    c, q = 0.5 + 0.25j, -3.0 + 2.0j
    paired = lambda lam: c / (lam - q) + np.conj(c) / (lam - np.conj(q))
    real = lambda lam: 2.0 * np.real(c / (lam - q))
    assert np.iscomplexobj(paired(np.linspace(1.0, 2.0, 3)))
    for apply in (dense_fractional_apply, dense_inverse_fractional_apply):
        want = apply(p, real, b)
        assert np.linalg.norm(apply(p, paired, b) - want) <= 1e-14 * np.linalg.norm(want)
        with pytest.raises(ValueError, match="complex on the pencil spectrum"):
            apply(p, lambda lam: c / (lam - q), b)


def test_eigendecomposition_residuals():
    for p in (assemble_interval(100, periodic=True), assemble_unit_square(12)):
        lam, u = dense_eigendecomposition(p)
        A, M = p.A.toarray(), p.M.toarray()
        assert np.linalg.norm(A @ u - M @ u * lam) <= 1e-8 * np.linalg.norm(A)
        assert np.linalg.norm(u.T @ M @ u - np.eye(p.n_c)) <= 1e-8


def test_shifted_interface_positive():
    # (A + M, M) has spectrum bounded below by one even though A is singular.
    p = assemble_interface(64)
    lam, _ = dense_eigendecomposition(p)
    assert lam[0] >= 1.0 - 1e-10


def _ring_by_coo(n):
    """The closed-curve P1 matrices through a COO round trip, and the bound
    the pencil takes from them by sparse row sums."""
    h = 1.0 / n
    i = np.arange(n)
    rows = np.concatenate([i, i, i])
    cols = np.concatenate([i, (i + 1) % n, (i - 1) % n])
    a_vals = np.concatenate([np.full(n, 2.0 / h), np.full(n, -1.0 / h), np.full(n, -1.0 / h)])
    m_vals = np.concatenate([np.full(n, 4.0 * h / 6.0), np.full(n, h / 6.0), np.full(n, h / 6.0)])
    A = sp.coo_matrix((a_vals, (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((m_vals, (rows, cols)), shape=(n, n)).tocsr()

    def bound(A):
        return 2 * float(np.max(1.0 / M.diagonal())) * float(np.max(abs(A).sum(axis=1)))

    return A, M, bound


@pytest.mark.parametrize("n", [3, 4, 64, 131072])
def test_interface_matches_periodic_stiffness_plus_mass(n):
    # The ring's CSR arrays, built directly in sorted column order, are
    # bitwise those of the COO round trip: the periodic pencil (A_per, M) and
    # the interface pencil (A_per + M, M) with the sparse sum, with the same
    # bound.
    A, M, bound = _ring_by_coo(n)
    shifted = (A + M).tocsr()
    for p, want_A in ((assemble_interval(n, periodic=True), A), (assemble_interface(n), shifted)):
        for got, want in ((p.A, want_A), (p.M, M)):
            for attr in ("indptr", "indices", "data"):
                assert getattr(got, attr).dtype == getattr(want, attr).dtype
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert p.rho_bound == bound(want_A)
        for attr in ("indptr", "indices"):
            assert not np.shares_memory(getattr(p.A, attr), getattr(p.M, attr))
    with pytest.raises(ValueError):
        assemble_interface(2)


def test_dense_cap():
    p = assemble_interface(2001)
    with pytest.raises(DenseCapExceededError, match="2001 unknowns, dense cap is 2000"):
        dense_eigendecomposition(p)


def test_matrix_market_round_trip(tmp_path):
    p = assemble_unit_square(5)
    path = tmp_path / "A.mtx"
    write_matrix(path, p.A)
    header = path.read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix coordinate")
    back = read_matrix(path)
    assert np.allclose(back.toarray(), p.A.toarray(), rtol=1e-15, atol=0)


def test_pencil_save_load(tmp_path):
    p = assemble_interface(32)
    prefix = tmp_path / "iface"
    save_pencil(p, prefix)
    q = load_pencil(prefix)
    assert q.spatial_dimension == 1
    assert np.allclose(q.A.toarray(), p.A.toarray(), rtol=1e-15, atol=0)
    assert np.allclose(q.M.toarray(), p.M.toarray(), rtol=1e-15, atol=0)
    assert q.rho_bound == pytest.approx(p.rho_bound, rel=1e-15)


def test_pencil_rejects_asymmetric():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    M = sp.identity(2, format="csr")
    with pytest.raises(ValueError):
        OperatorPencil(A, M, spatial_dimension=1)


def test_symmetry_check_compares_canonical_data():
    # A canonical CSR matrix with its transpose's pattern is checked on its
    # data arrays: one entry off by 1e-9 relative fails, the matrix passes.
    ring = assemble_interface(16)
    assert ring.A.has_canonical_format
    OperatorPencil(ring.A, ring.M, spatial_dimension=1)
    A = ring.A.copy()
    A.data[1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="A must be symmetric"):
        OperatorPencil(A, ring.M, spatial_dimension=1)


def _sparse_difference_verdict(mat):
    """The symmetry verdict as the sparse difference |mat - mat^T| gives it."""
    asym = abs(mat - mat.T)
    scale = max(abs(mat).max(), np.finfo(float).tiny)
    return not (asym.nnz and asym.max() > 1e-12 * scale)


@pytest.mark.parametrize("entries,symmetric", [
    # duplicates in both off-diagonal positions: the transpose has the same
    # pattern, and the summed entries agree although the stored ones do not
    (([0, 0, 0, 1, 1, 1], [0, 1, 1, 0, 0, 1], [2.0, 0.25, 0.75, 0.5, 0.5, 2.0]), True),
    (([0, 0, 0, 1, 1, 1], [0, 1, 1, 0, 0, 1], [2.0, 0.25, 0.5, 0.5, 0.5, 2.0]), False),
    # unsorted column indices
    (([0, 0, 1, 1], [1, 0, 1, 0], [1.0, 2.0, 2.0, 1.0]), True),
    (([0, 0, 1, 1], [1, 0, 1, 0], [1.0, 2.0, 2.0, 1.5]), False),
])
def test_symmetry_check_of_non_canonical_matrices(entries, symmetric):
    # The pencil sums duplicates and sorts indices of a copy before its
    # check, so its verdict is that of the sparse difference, it stores
    # canonical CSR, and the caller's matrix is left as it was.
    rows, cols, vals = (np.array(x) for x in entries)

    def matrix():
        return sp.csr_matrix((vals.copy(), cols.copy(), np.searchsorted(rows, np.arange(3))),
                             shape=(2, 2))

    assert not matrix().has_canonical_format
    assert _sparse_difference_verdict(matrix()) == symmetric
    given = matrix()
    if symmetric:
        p = OperatorPencil(given, sp.identity(2, format="csr"), spatial_dimension=1)
        assert p.A.has_canonical_format
        assert np.array_equal(p.A.toarray(), matrix().toarray())
    else:
        with pytest.raises(ValueError, match="A must be symmetric"):
            OperatorPencil(given, sp.identity(2, format="csr"), spatial_dimension=1)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(given, attr), getattr(matrix(), attr))
