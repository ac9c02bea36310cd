"""Shifted-solve realization of a partial fraction acting on a pencil.

An operator built from the form c0 + c1*x + sum(c_i / (x - p_i)) maps a
residual r to

    z = c0 * M^{-1} r + c1 * M^{-1} A M^{-1} r + sum_i c_i * (A - p_i M)^{-1} r,

which applies the reciprocal symbol of the pencil through one solve per pole;
the linear term reuses the mass solve of the constant term and adds one
matrix product and one more mass solve.

The pencil must be 1D: at least three unknowns, numbered along the curve,
so that A and M are tridiagonal once the last unknown is removed (the
Dirichlet interval exactly, the closed curve apart from the unknown that
closes the ring).  One read of the CSR arrays of A and M shows this, along
with the diagonals and the last row the pencil keeps in its own numbering;
any other pencil raises ValueError before a factorization.  Every shift is
factorized on its leading tridiagonal block T, and the last unknown is
eliminated as a one-node border through its Schur complement, so
factorization and solve both cost O(n).

Every real pole is a definite shift and the factorization is its
definiteness check.  It is factorized by LAPACK tridiagonal LDL^T
(``pttrf``) as A - p M first, which is SPD for a nonpositive pole and for a
positive one below the spectrum; a positive pole for which that fails is
factorized as p M - A with the solve negated, which is SPD above the
spectrum; and when neither is definite the pole lies on the spectrum and
FactorizationError names it.  The rule needs no bound on the spectrum.  The
border vector T^{-1} b is solved on two end blocks of T that reach just past
its decay below the smallest normal double, or on the whole of T when the
blocks would cover it.

The mass matrix and every real shift own one row of a (3, k, n - 1) array:
its diagonal D and multipliers E are assembled and factorized in place in
the first two planes, and the last entry of each E row, which T does not
use, is zero.  So the D and E planes are one tridiagonal matrix whose
blocks do not couple, and an apply solves all of them at once.  The
full-length border vectors fill the leading rows of the third plane, in row
order.  An apply takes the rows in blocks of at most ``_BLOCK_UNKNOWNS``
unknowns, solves each block with one ``pttrs`` call and adds the weighted
sum of its rows as one matrix-vector product; the linear term's second mass
solve is a one-row call of the same solve.

A complex conjugate pair shares one shift A - p M, which is complex
symmetric: T is factorized by tridiagonal LU with partial pivoting
(``gttrf``) and the border vector is solved on the whole of T; every
apply solves each pair on its own.  SciPy's wrapper needs T of at least
three unknowns, so a pair needs four.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs, zgttrf, zgttrs
# Unused here: bench/spans.py times sparse LU through this name.
from scipy.sparse.linalg import splu

__all__ = [
    "FactorizationError",
    "RationalOperator",
    "SpdAuditReport",
    "spd_audit",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)
# Unknowns per stacked pttrs call of an apply (4 MB of right-hand sides): every
# row of a ring up to 16384 cells, 4 rows at 131072 cells.
_BLOCK_UNKNOWNS = 2 ** 19


class FactorizationError(RuntimeError):
    """A shifted matrix could not be factorized (or is not definite where required)."""


def _check_pivots(smallest, largest, count, label):
    """A smallest of ``count`` pivots at most count*eps times the largest is
    numerically singular."""
    if smallest <= count * _EPS * largest:
        raise FactorizationError(
            f"shifted matrix for {label} is numerically singular "
            f"(pivot ratio {smallest / largest:.3e})"
        )


def _check_finite(pf):
    """Raise ValueError naming c0, c1, a pole or a residue of ``pf`` that is not finite."""
    for name, values in (("c0", pf.c0), ("c1", pf.c1), ("pole", pf.poles),
                         ("residue", pf.residues)):
        bad = np.extract(~np.isfinite(values), values)
        if bad.size:
            raise ValueError(f"the form's {name} is not finite: {bad[0]}")


def _bordered_tridiagonal(A, M):
    """Border columns and, for A and M, the diagonal and subdiagonal of the
    leading block, the last row at the border columns and the corner (as a
    length-1 array), read from the CSR arrays of a pencil that is tridiagonal
    once its last unknown is removed and has at least the two leading unknowns
    LAPACK's tridiagonal wrappers accept; None for any other pencil."""
    n = A.shape[0]
    border, pieces = [], []
    for mat in (A, M):
        lead, end = mat.indptr[-2:]
        cols = mat.indices[:lead]
        rows = np.repeat(np.arange(n - 1, dtype=cols.dtype), np.diff(mat.indptr[:-1]))
        if n < 3 or np.any((np.abs(cols - rows) > 1) & (cols < n - 1) & (mat.data[:lead] != 0)):
            return None
        cols, vals = mat.indices[lead:end], mat.data[lead:end]
        border.append(cols[(cols < n - 1) & (vals != 0)])
        pieces.append((mat.diagonal(), mat.diagonal(-1)[:-1], np.zeros(n)))
        np.add.at(pieces[-1][2], cols, vals)
    index = np.unique(np.concatenate(border))
    return index, [(d[:-1], sub, last[index], d[-1:]) for d, sub, last in pieces]


def _flush(x, work):
    """Zero the entries of x below the smallest normal double; returns the nonzero count."""
    small = np.abs(x, out=work[:x.size])
    if small.min() >= _TINY:
        return x.size
    small = small < _TINY
    x[small] = 0.0
    return x.size - int(np.count_nonzero(small))


def _bordered_ldlt(index, work, d, e, b, c, full, label):
    """LDL^T of an SPD [[T, b], [b^T, c]], T tridiagonal: one row of the stacked solve.

    ``pttrf`` factorizes T = L D L^T in place in the given ``d`` and ``e``;
    the border is eliminated through w = T^{-1} b and the Schur pivot
    s = c - b.w, so a solve is a dot product with the stored entries of w and
    one ``pttrs`` on the leading block.  A failed ``pttrf``, or a smallest of
    the pivots D and s at most n*eps times the largest, raises
    FactorizationError: a singular ring fails at s alone.  Returns the blocks
    (lo, w) of w, s and the count of stored nonzero entries.

    b is given by its nonzeros, the values ``b`` at the positions ``index``
    of the leading block.  On a 1D pencil they sit at the ends of T, and w
    decays geometrically away from them at a ratio bounded by the largest
    multiplier |E|, so w is solved on two end blocks of k unknowns, each
    taking the border positions nearer its end: D[:k], E[:k-1] factor the
    leading k x k block of T, and D[m-k:], E[m-k:] solve T exactly for a
    right-hand side that vanishes above the tail block.  k starts where |E|^k
    falls below the smallest normal double (and covers every border
    position) and doubles until both inner entries are below it; once the
    blocks would cover T (2k >= m), w is solved on the whole of T, in place
    in ``full``, as one block.

    Entries of E and w below the smallest normal double are set to zero.  On
    a strongly shifted ring the decay of w from each end reaches the subnormal
    range, where at a decay ratio above 1/2 gradual underflow sticks at the
    smallest subnormal instead of reaching zero; the end blocks stop just past
    the underflow, and the flush keeps subnormals out of every solve.  On a
    ring E keeps one sign, so its extremes show when no entry needs a flush.
    """
    d, e, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise FactorizationError(
            f"shifted matrix for {label} is not positive definite (pttrf info {info})"
        )
    m = d.size
    e_min, e_max = float(e.min()), float(e.max())
    ratio = max(-e_min, e_max)
    e_nnz = e.size if e_min >= _TINY or e_max <= -_TINY else _flush(e, work)
    border = list(zip(index, b.tolist()))
    h = sum(2 * i < m for i in index)  # index ascends, so these are the head's

    def block_solve(lo, entries, rhs):
        for i, value in entries:
            rhs[i - lo] = value
        hi = lo + rhs.size
        return dpttrs(d[lo:hi], e[lo:hi - 1], rhs, overwrite_b=1)[0]

    k = m if ratio >= 1.0 else 2 + int(_LOG_TINY / math.log(max(ratio, _TINY)))
    k = max([k] + [min(i, m - 1 - i) + 1 for i in index])
    while 2 * k < m:
        blocks = [(0, block_solve(0, border[:h], np.zeros(k))),
                  (m - k, block_solve(m - k, border[h:], np.zeros(k)))]
        if max(abs(blocks[0][1][-1]), abs(blocks[1][1][0])) < _TINY:
            break
        k *= 2
    else:
        full[:] = 0.0
        blocks = [(0, block_solve(0, border, full))]
    w_nnz = sum(_flush(w, work) for _lo, w in blocks)
    s = float(c[0] - sum(value * w[i - lo] for i, value in border
                         for lo, w in blocks if lo <= i < lo + w.size))
    _check_pivots(min(d.min(), s), max(d.max(), s), m + 1, label)
    return blocks, s, m + e_nnz + w_nnz + 1  # pttrf succeeded, so D > 0


class _BorderedPair:
    """LU of the complex symmetric shift [[T, b], [b^T, c]] = A - p M of a
    conjugate pair, with T tridiagonal.

    ``gttrf`` factorizes T with partial pivoting, taking the subdiagonal ``e``
    for both off-diagonals; the border is eliminated as in the real case,
    through w = T^{-1} b solved on the whole of T and the Schur pivot
    s = c - b^T w, without conjugation since T^T = T.  Real and imaginary
    parts of w below the smallest normal double are set to zero, as in the
    real case.  A failed ``gttrf`` or s == 0, an exactly singular shift,
    raises FactorizationError.  SciPy's ``gttrf`` and ``gttrs`` reject a 2 x 2
    block, so a pencil of three unknowns raises ValueError.
    """

    def __init__(self, index, work, d, e, b, c, label):
        if d.size < 3:
            raise ValueError("a conjugate pair needs a pencil of at least four unknowns")
        *self.lu, info = zgttrf(e, d, e)
        if info != 0:
            raise FactorizationError(
                f"shifted matrix for {label} is singular (gttrf info {info})")
        self.border = list(zip(index, b.tolist()))
        w = np.zeros(d.size, dtype=complex)
        for i, value in self.border:
            w[i] = value
        zgttrs(*self.lu, w, overwrite_b=1)
        _flush(w.real, work)
        _flush(w.imag, work)
        s = complex(c[0] - sum(value * w[i] for i, value in self.border))
        if s == 0:
            raise FactorizationError(
                f"shifted matrix for {label} is singular (Schur pivot 0)")
        self.w, self.s = w, s
        self.nnz = sum(int(np.count_nonzero(x)) for x in [*self.lu[:4], w]) + 1

    def solve(self, r):
        """(A - p M)^{-1} r of a real r, solved as a stacked row is, with ``gttrs``."""
        x = r.astype(complex)
        head = x[:-1]
        last = (x[-1] - self.w @ head) / self.s
        for i, value in self.border:
            head[i] -= last * value
        zgttrs(*self.lu, head, overwrite_b=1)
        x[-1] = last
        return x


class RationalOperator:
    """Applies a partial fraction to a 1D pencil via cached shifted solves.

    Every shift is bordered tridiagonal: the definite ones, the mass matrix
    and one per real pole, LDL^T in rows of one buffer; one per conjugate
    pair, a complex LU, whose contribution is 2*Re(c*w) so the output stays
    real.  A pencil that is not tridiagonal apart from its last unknown, or
    has fewer than three unknowns, raises ValueError, and so does a form with
    a c0, c1, pole or residue that is not finite.  Every real pole is a
    definite shift, of A - p M or of p M - A, and a real pole for which
    neither is definite lies on the spectrum and raises FactorizationError.

    An apply solves the mass matrix and every real shift as one
    block-diagonal tridiagonal system, one ``pttrs`` call per block of rows,
    and sums each block's rows weighted by c0 and the residues in one
    matrix-vector product; the mass row is skipped when c0 = c1 = 0.  A
    linear coefficient c1 is realized as c1 * M^{-1} A y with y = M^{-1} r
    the mass row's solution, M^{-1} A y is a one-row call of the stacked
    solve, and c1 = 0 costs nothing.  The conjugate
    pairs are added last, in term order.  The summation order is fixed, so
    repeated applies are bitwise reproducible.  Each apply allocates its own
    right-hand sides, and a built operator is immutable apart from its
    telemetry counters, so concurrent applies are safe when the telemetry is
    not needed.

    The factorizations depend only on the pencil and the poles, the weights
    only on the residues: :meth:`reweighted` gives the operator of another
    form with the same poles on the same pencil, sharing the factors, so a
    caller that holds one operator per pole set factorizes each shift once.
    """

    def __init__(self, pf, pencil):
        _check_finite(pf)
        self.pf = pf
        self.pencil = pencil
        poles, _residues, pair = pf.terms
        bordered = _bordered_tridiagonal(pencil.A, pencil.M)
        if bordered is None:
            raise ValueError("a rational operator needs a pencil of at least three "
                             "unknowns that is tridiagonal once its last unknown is removed")
        index, (a_parts, m_parts) = bordered
        index, work = index.tolist(), np.empty(self.n)
        # D, E and full-length W of the mass matrix and every real shift; the
        # zero at the end of each E row uncouples the stacked rows.
        buffer = np.empty((3, 1 + np.count_nonzero(~pair), self.n - 1))
        buffer[1, :, -1] = 0.0
        # Per row: border values, Schur pivot, full-length W, and split W's blocks
        borders, pivots, full, self._split = [], [], [], []

        def definite(a_sign, m_coef, label):
            """The LDL^T of a_sign * A + m_coef * M for a_sign in {0, 1, -1},
            assembled into the next buffer row; a full-length border vector
            takes the next unused row of the third plane."""
            row = len(pivots)
            pieces = []
            for a, m, out in zip(a_parts, m_parts,
                                 (buffer[0, row], buffer[1, row, :-1], None, None)):
                x = m_coef * m if out is None else np.multiply(m_coef, m, out=out)
                if a_sign > 0:
                    x += a
                elif a_sign < 0:
                    x -= a
                pieces.append(x)
            blocks, s, nnz = _bordered_ldlt(index, work, *pieces, buffer[2, sum(full)], label)
            borders.append(pieces[2])
            pivots.append(s)
            full.append(len(blocks) == 1)
            if len(blocks) > 1:
                self._split.append((row, blocks))
            self.factor_nnz.append(nnz)

        tic = time.perf_counter()
        # The mass matrix, then one shift per term; the weight of a term is
        # its residue, negated where its row factorizes p M - A.
        self.factor_nnz, self._pairs = [], []
        definite(0, 1.0, "mass matrix")
        self._negated = np.zeros(poles.size, dtype=bool)
        self.factor_seconds = [time.perf_counter() - tic]
        for k, pole in enumerate(poles):
            tic = time.perf_counter()
            if pair[k]:
                self._pairs.append(_BorderedPair(
                    index, work, *(a - pole * m for a, m in zip(a_parts, m_parts)),
                    f"pole {pole:.6e}"))
                self.factor_nnz.append(self._pairs[-1].nnz)
            else:
                pole = pole.real
                label = f"pole {pole:.6e}"
                try:
                    definite(1, -pole, label)
                except FactorizationError as below:
                    if pole <= 0:
                        raise
                    try:
                        definite(-1, pole, label)
                    except FactorizationError:
                        raise FactorizationError(
                            f"{below}, nor is its negation: {label} lies on the spectrum"
                        ) from below
                    self._negated[k] = True
            self.factor_seconds.append(time.perf_counter() - tic)
        # What the stacked solve reads of the rows besides the buffer
        self._buffer = buffer
        self._index = index
        self._border = np.array(borders)
        self._pivots = np.array(pivots)
        self._full = np.array(full)
        self._full_rows = np.concatenate(([0], np.cumsum(self._full)))
        self._weigh(pf)
        self.apply_count = 0
        self.apply_seconds = 0.0

    def _weigh(self, pf):
        """The weights of the buffer's rows (c0 for the mass row) and pairs of ``pf``."""
        residues, pair = pf.terms[1:]
        weights = np.where(self._negated, -residues, residues)
        self._row_weights = np.concatenate(([pf.c0], weights[~pair].real))
        self._pair_weights = weights[pair]

    def reweighted(self, pf):
        """The operator of ``pf`` on this operator's pencil, built from its
        factorizations without refactorizing.

        The poles of ``pf.terms`` must be bitwise equal to this operator's,
        and so their pair mask, else ValueError; only c0, c1 and the residues
        may differ.  The new operator negates the residues of the poles
        factorized as p M - A here, so it applies bitwise as
        ``RationalOperator(pf, self.pencil)`` would.  It shares the pencil,
        the factors and their record (``factor_seconds``, ``factor_nnz``) and
        starts its own apply counters.
        """
        # The pair mask is derived from the poles, so it is equal with them.
        if pf.terms[0].tobytes() != self.pf.terms[0].tobytes():
            raise ValueError("a reweighted form must have the poles of the factorized one")
        _check_finite(pf)
        op = copy.copy(self)
        op.pf = pf
        op._weigh(pf)
        op.apply_count = 0
        op.apply_seconds = 0.0
        return op

    @property
    def n(self):
        return self.pencil.n_c

    @property
    def solves_per_apply(self):
        """Mass solve unless c0 = c1 = 0, a second one for a linear term, and
        one solve per real pole or conjugate pair."""
        c0, c1 = self.pf.c0, self.pf.c1
        return int(c0 != 0.0 or c1 != 0.0) + int(c1 != 0.0) + self.pf.terms[0].size

    def apply(self, r):
        """z = c0 M^{-1} r + c1 M^{-1} A M^{-1} r + sum_i c_i (A - p_i M)^{-1} r.

        The output is real; ``apply_seconds`` accumulates the time spent here.
        """
        r = np.asarray(r, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        tic = time.perf_counter()
        c0, c1 = self.pf.c0, self.pf.c1
        z = np.zeros_like(r)
        count = self._row_weights.size
        first = 0 if c0 != 0.0 or c1 != 0.0 else 1
        step = max(1, _BLOCK_UNKNOWNS // (self.n - 1))
        x = np.empty((min(step, count - first), self.n - 1))
        for lo in range(first, count, step):
            hi = min(lo + step, count)
            block = x[:hi - lo]
            last = self._solve_rows(lo, hi, r, block)
            weights = self._row_weights[lo:hi]
            z[:-1] += weights @ block
            z[-1] += weights @ last
            if lo == 0 and c1 != 0.0:
                ay = self.pencil.A @ np.append(block[0], last[0])
        if c1 != 0.0:
            last = self._solve_rows(0, 1, ay, x[:1])
            z += c1 * np.append(x[0], last)
        for solver, weight in zip(self._pairs, self._pair_weights):
            z += 2.0 * np.real(weight * solver.solve(r))
        self.apply_count += 1
        self.apply_seconds += time.perf_counter() - tic
        return z

    def _solve_rows(self, lo, hi, r, block):
        """Rows lo..hi of the stacked solve for r, their leading unknowns into
        ``block``; returns their last unknowns, which come first (b.T^{-1} r =
        w.r as T is symmetric), so the border only patches their few entries of
        the right-hand sides of the one ``pttrs`` call."""
        head = r[:-1]
        last = np.full(hi - lo, r[-1])
        last[self._full[lo:hi]] -= np.vecdot(
            self._buffer[2, self._full_rows[lo]:self._full_rows[hi]], head)
        for row, w_blocks in self._split:
            if lo <= row < hi:
                for start, w in w_blocks:
                    last[row - lo] -= w @ head[start:start + w.size]
        last /= self._pivots[lo:hi]
        block[:] = head
        for j, i in enumerate(self._index):
            block[:, i] -= last * self._border[lo:hi, j]
        dpttrs(self._buffer[0, lo:hi].reshape(-1), self._buffer[1, lo:hi].reshape(-1)[:-1],
               block.reshape(-1), overwrite_b=1)
        return last

    @property
    def telemetry(self):
        """Apply counters and total apply time, plus per-shift factorization
        time and stored factor entries, the mass matrix first and then one
        entry per real pole or conjugate pair."""
        return {
            "apply_count": self.apply_count,
            "solves_per_apply": self.solves_per_apply,
            "apply_seconds": self.apply_seconds,
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
    the largest relative symmetry defect |<apply(r), q> - <r, apply(q)>|.  An
    apply that returns NaN leaves NaN in both, so the report is not positive
    definite.
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
        min_ray = np.minimum(min_ray, float(zr @ r) / float(r @ r))
        scale = np.linalg.norm(zr) * np.linalg.norm(q) + np.linalg.norm(zq) * np.linalg.norm(r)
        defect = np.maximum(defect, abs(float(zr @ q) - float(r @ zq)) / max(scale, _TINY))
    # q has no Rayleigh quotient here: a NaN apply of q shows in the defect alone
    return SpdAuditReport(float(np.nan if np.isnan(defect) else min_ray), float(defect), trials)
