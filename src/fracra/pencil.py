"""Sparse symmetric pencils (A, M) from P1 elements and their dense spectral calculus.

Meshes are uniform: an interval with Dirichlet ends, a closed curve (the
periodic interval, assembled directly as sorted CSR), or a structured
right-triangle split of the unit square.  Pencils store canonical CSR, which
their symmetry check and the operators' structure reads rely on.  The dense
eigendecomposition of A u = lambda M u provides the ground-truth spectral
calculus used to validate the shifted-solve operators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "DENSE_CAP_DEFAULT",
    "DenseCapExceededError",
    "OperatorPencil",
    "assemble_interval",
    "assemble_interface",
    "assemble_unit_square",
    "dense_eigendecomposition",
    "dense_fractional_apply",
    "dense_inverse_fractional_apply",
    "write_matrix",
    "read_matrix",
    "save_pencil",
    "load_pencil",
]

DENSE_CAP_DEFAULT = 2000


class DenseCapExceededError(RuntimeError):
    """The pencil is too large for the dense eigendecomposition oracle."""


@dataclass(eq=False)
class OperatorPencil:
    """Pair of sparse symmetric matrices A (stiffness-like) and M (mass).

    ``rho_bound`` is derived from A, M and the dimension d:
    d(d+1) * max(1/diag(M)) * max row sum of |A|, which bounds the largest
    generalized eigenvalue of (A, M) for P1 mass matrices and sets the fit
    interval of the rational approximants; a mass matrix with a nonpositive
    diagonal entry is rejected.
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    spatial_dimension: int
    rho_bound: float = field(init=False)

    def __post_init__(self):
        self.A, self.M = (_canonical(sp.csr_matrix(mat)) for mat in (self.A, self.M))
        if self.A.shape[0] != self.A.shape[1] or self.A.shape != self.M.shape:
            raise ValueError("A and M must be square with equal shape")
        if self.spatial_dimension not in (1, 2):
            raise ValueError("spatial_dimension must be 1 or 2")
        for name, mat in (("A", self.A), ("M", self.M)):
            scale = max(float(np.max(np.abs(mat.data), initial=0.0)), np.finfo(float).tiny)
            if _asymmetry(mat) > 1e-12 * scale:
                raise ValueError(f"{name} must be symmetric")
        diag = self.M.diagonal()
        if np.any(diag <= 0):
            raise ValueError("mass matrix has a nonpositive diagonal entry")
        A, rows = self.A, np.flatnonzero(np.diff(self.A.indptr))  # as abs(A).sum(axis=1)
        a_inf = float(np.max(np.add.reduceat(np.abs(A.data), A.indptr[rows]), initial=0.0))
        d = self.spatial_dimension
        self.rho_bound = d * (d + 1) * float(np.max(1.0 / diag)) * a_inf

    @property
    def n_c(self):
        return self.A.shape[0]


def _canonical(mat):
    """mat, or a copy in the canonical CSR (sorted, no duplicates) that the
    operators' structure reads assume; a caller's matrix is never written."""
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    return mat


def _asymmetry(mat):
    """Largest entry of |mat - mat^T| for a canonical CSR matrix: where its
    transpose has the same pattern, the difference of their data arrays."""
    tr = mat.T.tocsr()
    if np.array_equal(tr.indptr, mat.indptr) and np.array_equal(tr.indices, mat.indices):
        return 0.0 if np.array_equal(mat.data, tr.data) else float(np.max(abs(mat.data - tr.data)))
    asym = abs(mat - tr)
    return asym.max() if asym.nnz else 0.0


def assemble_interval(n_cells, periodic=False):
    """P1 stiffness and consistent mass on a uniform mesh of [0, 1].

    With ``periodic=True`` the endpoints are identified, giving the closed
    curve topology; the stiffness then annihilates the constant vector.
    Otherwise homogeneous Dirichlet values are eliminated and A is SPD.
    """
    if n_cells < 3:
        raise ValueError("n_cells must be at least 3")
    h = 1.0 / n_cells
    if periodic:
        A, M = _ring(n_cells, shifted=False)
    else:
        n = n_cells - 1
        A = sp.diags(
            [np.full(n - 1, -1.0 / h), np.full(n, 2.0 / h), np.full(n - 1, -1.0 / h)],
            offsets=(-1, 0, 1), format="csr",
        )
        M = sp.diags(
            [np.full(n - 1, h / 6.0), np.full(n, 4.0 * h / 6.0), np.full(n - 1, h / 6.0)],
            offsets=(-1, 0, 1), format="csr",
        )
    return OperatorPencil(A, M, spatial_dimension=1)


def assemble_interface(n_cells):
    """Closed-curve pencil (A + M, M): the shifted operator on a closed mesh.

    Adding the mass to the singular periodic stiffness moves the generalized
    spectrum to [1, rho], so every fractional power in the interface symbol is
    well defined.
    """
    if n_cells < 3:
        raise ValueError("n_cells must be at least 3")
    A, M = _ring(n_cells, shifted=True)
    return OperatorPencil(A, M, spatial_dimension=1)


def _ring(n, shifted):
    """P1 stiffness (plus the mass if ``shifted``) and mass of an n-cell closed
    curve as canonical CSR matrices with one pattern: row i holds its diagonal
    and its two distinct neighbours i -+ 1 (mod n) in ascending column order,
    so no entry is summed from duplicates and each entry of the shifted
    stiffness is bitwise the sum of the two P1 entries; each owns its arrays."""
    cols = np.arange(n, dtype=np.int32)[:, None] + np.arange(-1, 2, dtype=np.int32)
    cols[0], cols[-1] = (0, 1, n - 1), (0, n - 2, n - 1)
    indptr = np.arange(0, 3 * n + 1, 3, dtype=np.int32)

    def matrix(on, off):
        vals = np.full((n, 3), off)
        vals[:, 1] = on
        vals[0], vals[-1] = (on, off, off), (off, off, on)
        return sp.csr_matrix((vals.ravel(), cols.ravel().copy(), indptr.copy()), shape=(n, n))

    h = 1.0 / n
    m_on, m_off = 4.0 * h / 6.0, h / 6.0
    return matrix(2.0 / h + shifted * m_on, -1.0 / h + shifted * m_off), matrix(m_on, m_off)


# Local P1 matrices on a right triangle with legs h, right angle at vertex 0.
_STIFF_LOCAL = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
_MASS_LOCAL = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_unit_square(n_cells_per_side):
    """P1 pencil on a structured triangulation of the unit square.

    Each grid square is split into two right triangles; homogeneous Dirichlet
    rows and columns are eliminated, so A is SPD.
    """
    n = n_cells_per_side
    if n < 2:
        raise ValueError("n_cells_per_side must be at least 2")
    h = 1.0 / n
    nv = n + 1

    def vid(i, j):
        return j * nv + i

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    v00 = vid(ii, jj)
    v10 = vid(ii + 1, jj)
    v01 = vid(ii, jj + 1)
    v11 = vid(ii + 1, jj + 1)
    # Right angles sit at v00 (lower triangle) and v11 (upper triangle).
    conn = np.vstack([
        np.column_stack([v00, v10, v01]),
        np.column_stack([v11, v01, v10]),
    ])

    area = 0.5 * h * h
    n_el = conn.shape[0]
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    a_vals = np.tile(_STIFF_LOCAL.ravel(), n_el)
    m_vals = np.tile((_MASS_LOCAL * area).ravel(), n_el)
    shape = (nv * nv, nv * nv)
    A_full = sp.coo_matrix((a_vals, (rows, cols)), shape=shape).tocsr()
    M_full = sp.coo_matrix((m_vals, (rows, cols)), shape=shape).tocsr()

    gi, gj = np.meshgrid(np.arange(nv), np.arange(nv), indexing="ij")
    interior = ((gi > 0) & (gi < n) & (gj > 0) & (gj < n)).T.ravel()
    keep = np.flatnonzero(interior)
    A = A_full[keep][:, keep]
    M = M_full[keep][:, keep]
    return OperatorPencil(A, M, spatial_dimension=2)


def _check_dense_cap(pencil):
    """Raise DenseCapExceededError beyond ``DENSE_CAP_DEFAULT`` unknowns."""
    if pencil.n_c > DENSE_CAP_DEFAULT:
        raise DenseCapExceededError(
            f"pencil has {pencil.n_c} unknowns, dense cap is {DENSE_CAP_DEFAULT}"
        )


def dense_eigendecomposition(pencil):
    """Full generalized eigendecomposition A U = M U diag(lam), U^T M U = I,
    as ``(lam, U)``.  Raises DenseCapExceededError beyond
    ``DENSE_CAP_DEFAULT`` unknowns.
    """
    _check_dense_cap(pencil)
    return scipy.linalg.eigh(pencil.A.toarray(), pencil.M.toarray())


# Largest imaginary part, relative to the largest value, that a symbol's
# values on the spectrum may carry and still be taken as real.  A conjugate
# pair summed in complex arithmetic leaves rounding, a few eps times its
# terms; a residue without its conjugate leaves a part of the size of its own
# term.  sqrt(eps) ~ 1.5e-8 keeps about seven orders of magnitude from each.
_IMAG_RTOL = float(np.sqrt(np.finfo(float).eps))


def _values_on_spectrum(g, lam):
    """The real values of g on the spectrum lam; ValueError if they are not
    finite or carry an imaginary part above ``_IMAG_RTOL`` of the largest."""
    lam_max = max(float(lam.max()), 1.0)
    if float(lam.min()) < -1e-10 * lam_max:
        raise ValueError("pencil spectrum has a significantly negative eigenvalue")
    vals = np.asarray(g(np.maximum(lam, 0.0)))
    if vals.shape != lam.shape or not np.all(np.isfinite(vals)):
        raise ValueError("scalar function must be finite on the pencil spectrum")
    if np.iscomplexobj(vals):
        imag = float(np.max(np.abs(vals.imag), initial=0.0))
        if imag > _IMAG_RTOL * float(np.max(np.abs(vals), initial=0.0)):
            raise ValueError(f"scalar function is complex on the pencil spectrum "
                             f"(imaginary part up to {imag:.3e})")
    return np.asarray(vals.real, dtype=float)


def dense_fractional_apply(pencil, g, r):
    """Forward spectral map M U g(lam) U^T M r.

    With g the identity this reproduces A r; with g = 1 it reproduces M r.
    This is the system side: it builds the action of the forward symbol.
    """
    lam, u = dense_eigendecomposition(pencil)
    vals = _values_on_spectrum(g, lam)
    mr = pencil.M @ np.asarray(r, dtype=float)
    return pencil.M @ (u @ (vals * (u.T @ mr)))


def dense_inverse_fractional_apply(pencil, f, b):
    """Inverse spectral map U f(lam) U^T b with f the reciprocal symbol.

    Exact inverse of :func:`dense_fractional_apply` when f = 1/g; this is the
    ground truth the shifted-solve operators are checked against.
    """
    lam, u = dense_eigendecomposition(pencil)
    vals = _values_on_spectrum(f, lam)
    return u @ (vals * (u.T @ np.asarray(b, dtype=float)))


def write_matrix(path, matrix):
    """Write a sparse symmetric matrix in 1-based coordinate text format."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(matrix), symmetry="symmetric")


def read_matrix(path):
    """Read a coordinate text format matrix as CSR."""
    return sp.csr_matrix(scipy.io.mmread(str(path)))


def save_pencil(pencil, prefix):
    """Write A and M as ``<prefix>.A.mtx`` / ``<prefix>.M.mtx`` plus metadata."""
    prefix = str(prefix)
    write_matrix(prefix + ".A.mtx", pencil.A)
    write_matrix(prefix + ".M.mtx", pencil.M)
    meta = {
        "schema": "fracra.pencil/1",
        "spatial_dimension": pencil.spatial_dimension,
        "rho_bound": pencil.rho_bound,
    }
    Path(prefix + ".json").write_text(json.dumps(meta, indent=2))


def load_pencil(prefix):
    prefix = str(prefix)
    meta = json.loads(Path(prefix + ".json").read_text())
    return OperatorPencil(
        read_matrix(prefix + ".A.mtx"),
        read_matrix(prefix + ".M.mtx"),
        spatial_dimension=int(meta["spatial_dimension"]),
    )
