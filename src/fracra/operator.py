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
blocks would cover it.  The diagonals, multipliers and full-length border
vectors of the mass matrix and of every real shift are assembled,
factorized and solved in place, each in its row of one (3, k, n - 1) array.

A complex conjugate pair shares one shift A - p M, which is complex
symmetric: T is factorized by tridiagonal LU with partial pivoting
(``gttrf``) and the border vector is solved on the whole of T.  SciPy's
wrapper needs T of at least three unknowns, so a pair needs four.
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


class _BorderedTridiagonal:
    """LDL^T of an SPD matrix [[T, b], [b^T, c]] with T tridiagonal.

    ``pttrf`` factorizes T = L D L^T in place in the given ``d`` and ``e``;
    the border is eliminated through w = T^{-1} b and the Schur pivot
    s = c - b.w, so a solve is a dot product with the stored entries of w and
    one ``pttrs`` on the leading block.  A failed ``pttrf``, or a smallest of
    the pivots D and s at most n*eps times the largest, raises
    FactorizationError: a singular ring fails at s alone.

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
    in ``full``.

    Entries of E and w below the smallest normal double are set to zero.  On
    a strongly shifted ring the decay of w from each end reaches the subnormal
    range, where at a decay ratio above 1/2 gradual underflow sticks at the
    smallest subnormal instead of reaching zero; the end blocks stop just past
    the underflow, and the flush keeps subnormals out of every solve.  On a
    ring E keeps one sign, so its extremes show when no entry needs a flush.
    """

    def __init__(self, index, work, d, e, b, c, full, label):
        d, e, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise FactorizationError(
                f"shifted matrix for {label} is not positive definite (pttrf info {info})"
            )
        m = d.size
        e_min, e_max = float(e.min()), float(e.max())
        ratio = max(-e_min, e_max)
        e_nnz = e.size if e_min >= _TINY or e_max <= -_TINY else _flush(e, work)
        self.border = list(zip(index, b.tolist()))
        h = sum(2 * i < m for i in index)  # index ascends, so these are the head's

        def block_solve(lo, entries, rhs):
            for i, value in entries:
                rhs[i - lo] = value
            hi = lo + rhs.size
            return dpttrs(d[lo:hi], e[lo:hi - 1], rhs, overwrite_b=1)[0]

        k = m if ratio >= 1.0 else 2 + int(_LOG_TINY / math.log(max(ratio, _TINY)))
        k = max([k] + [min(i, m - 1 - i) + 1 for i in index])
        while 2 * k < m:
            blocks = [(0, block_solve(0, self.border[:h], np.zeros(k))),
                      (m - k, block_solve(m - k, self.border[h:], np.zeros(k)))]
            if max(abs(blocks[0][1][-1]), abs(blocks[1][1][0])) < _TINY:
                break
            k *= 2
        else:
            full[:] = 0.0
            blocks = [(0, block_solve(0, self.border, full))]
        w_nnz = sum(_flush(w, work) for _lo, w in blocks)
        s = float(c[0] - sum(value * w[i - lo] for i, value in self.border
                             for lo, w in blocks if lo <= i < lo + w.size))
        _check_pivots(min(d.min(), s), max(d.max(), s), m + 1, label)
        self.d, self.e, self.w_blocks, self.s = d, e, blocks, s
        self.nnz = m + e_nnz + w_nnz + 1  # pttrf succeeded, so D > 0

    def solve(self, rhs):
        # b.T^{-1} r = w.r because T is symmetric, so the last unknown comes
        # first and the border only patches its few entries of the right-hand
        # side of the one tridiagonal solve, which overwrites the contiguous
        # head in place.
        x = rhs.copy()
        head = x[:-1]
        last = x[-1]
        for lo, w in self.w_blocks:
            last -= w @ head[lo:lo + w.size]
        last /= self.s
        for i, value in self.border:
            head[i] -= last * value
        self._trs(head)
        x[-1] = last
        return x

    def _trs(self, head):
        dpttrs(self.d, self.e, head, overwrite_b=1)


class _BorderedPair(_BorderedTridiagonal):
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
        self._trs(w)
        _flush(w.real, work)
        _flush(w.imag, work)
        s = complex(c[0] - sum(value * w[i] for i, value in self.border))
        if s == 0:
            raise FactorizationError(
                f"shifted matrix for {label} is singular (Schur pivot 0)")
        self.w_blocks, self.s = [(0, w)], s
        self.nnz = sum(int(np.count_nonzero(x)) for x in [*self.lu[:4], w]) + 1

    def _trs(self, head):
        zgttrs(*self.lu, head, overwrite_b=1)


class RationalOperator:
    """Applies a partial fraction to a 1D pencil via cached shifted solves.

    Every shift is bordered tridiagonal: the definite ones, the mass matrix
    and one per real pole, LDL^T in rows of one buffer; one per conjugate
    pair, a complex LU, whose contribution is 2*Re(c*w) so the output stays
    real.  A pencil that is not tridiagonal apart from its last unknown, or
    has fewer than three unknowns, raises ValueError.  A linear coefficient
    c1 is realized as c1 * M^{-1} A y with y = M^{-1} r the mass solve the
    constant term already needs, and costs nothing when c1 = 0.  Every real
    pole is a definite shift, of A - p M or of p M - A, and a real pole for
    which neither is definite lies on the spectrum and raises
    FactorizationError.  Contributions are accumulated in place in ascending
    |pole| order, which makes repeated applies bitwise reproducible.  A built
    operator is immutable apart from its telemetry counters, so concurrent
    applies are safe when the telemetry is not needed.

    The factorizations depend only on the pencil and the poles, the weights
    only on the residues: :meth:`reweighted` gives the operator of another
    form with the same poles on the same pencil, sharing the solvers, so a
    caller that holds one operator per pole set factorizes each shift once.
    """

    def __init__(self, pf, pencil):
        self.pf = pf
        self.pencil = pencil
        poles, residues, pair = pf.terms
        bordered = _bordered_tridiagonal(pencil.A, pencil.M)
        if bordered is None:
            raise ValueError("a rational operator needs a pencil of at least three "
                             "unknowns that is tridiagonal once its last unknown is removed")
        index, (a_parts, m_parts) = bordered
        index, work = index.tolist(), np.empty(self.n)
        # D, E and full-length W of the mass matrix and every real shift
        buffer = np.empty((3, 1 + np.count_nonzero(~pair), self.n - 1))
        self.apply_count = 0

        def definite(row, a_sign, m_coef, label):
            """The LDL^T of a_sign * A + m_coef * M for a_sign in {0, 1, -1},
            assembled into its buffer row."""
            pieces = []
            for a, m, out in zip(a_parts, m_parts,
                                 (buffer[0, row], buffer[1, row, :-1], None, None)):
                x = m_coef * m if out is None else np.multiply(m_coef, m, out=out)
                if a_sign > 0:
                    x += a
                elif a_sign < 0:
                    x -= a
                pieces.append(x)
            return _BorderedTridiagonal(index, work, *pieces, buffer[2, row], label)

        tic = time.perf_counter()
        # The mass matrix, then one solver per term; the weight of a term is
        # its residue, negated where the solver factorizes p M - A.
        self._solvers = [definite(0, 0, 1.0, "mass matrix")]
        self._negated = np.zeros(poles.size, dtype=bool)
        self.factor_seconds = [time.perf_counter() - tic]
        row = 0
        for k, pole in enumerate(poles):
            tic = time.perf_counter()
            if pair[k]:
                solver = _BorderedPair(index, work,
                                       *(a - pole * m for a, m in zip(a_parts, m_parts)),
                                       f"pole {pole:.6e}")
            else:
                pole = pole.real
                label = f"pole {pole:.6e}"
                row += 1
                try:
                    solver = definite(row, 1, -pole, label)
                except FactorizationError as below:
                    if pole <= 0:
                        raise
                    try:
                        solver = definite(row, -1, pole, label)
                    except FactorizationError:
                        raise FactorizationError(
                            f"{below}, nor is its negation: {label} lies on the spectrum"
                        ) from below
                    self._negated[k] = True
            self.factor_seconds.append(time.perf_counter() - tic)
            self._solvers.append(solver)
        self._weights = np.where(self._negated, -residues, residues)
        self.shift_seconds = np.zeros(len(self._solvers))

    def reweighted(self, pf, pencil):
        """The operator of ``pf`` on ``pencil``, built from this operator's
        factorizations without refactorizing.

        ``pencil`` must be this operator's pencil (the same object) and the
        poles of ``pf.terms`` bitwise equal to this operator's, and so their
        pair mask, else ValueError; only c0, c1 and the residues may differ.
        The new operator negates the residues of the poles factorized as
        p M - A here, so it applies bitwise as ``RationalOperator(pf, pencil)``
        would.  It shares the solvers and their factorization record
        (``factor_seconds``) and starts its own apply counters.
        """
        poles, residues, _ = pf.terms
        if pencil is not self.pencil:
            raise ValueError("a reweighted operator needs the pencil it was factorized on")
        # The pair mask is derived from the poles, so it is equal with them.
        if poles.tobytes() != self.pf.terms[0].tobytes():
            raise ValueError("a reweighted form must have the poles of the factorized one")
        op = copy.copy(self)
        op.pf = pf
        op._weights = np.where(self._negated, -residues, residues)
        op.apply_count = 0
        op.shift_seconds = np.zeros(len(self._solvers))
        return op

    @property
    def n(self):
        return self.pencil.n_c

    @property
    def solves_per_apply(self):
        """Mass solve, a second one for a linear term, and one solve per real
        pole or conjugate pair."""
        return int(self.pf.c1 != 0.0) + len(self._solvers)

    def apply(self, r):
        """z = c0 M^{-1} r + c1 M^{-1} A M^{-1} r + sum_i c_i (A - p_i M)^{-1} r.

        The output is real; ``shift_seconds[0]`` times the mass solves of the
        constant and linear terms.
        """
        r = np.asarray(r, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        tic = time.perf_counter()
        c0, c1 = self.pf.c0, self.pf.c1
        if c0 != 0.0 or c1 != 0.0:
            y = self._solvers[0].solve(r)
            z = c0 * y
            if c1 != 0.0:
                z += c1 * self._solvers[0].solve(self.pencil.A @ y)
        else:
            z = np.zeros_like(r)
        self.shift_seconds[0] += time.perf_counter() - tic
        pair = self.pf.terms[2]
        for k, (solver, weight) in enumerate(zip(self._solvers[1:], self._weights)):
            tic = time.perf_counter()
            if pair[k]:
                x = 2.0 * np.real(weight * solver.solve(r.astype(complex)))
            else:
                x = solver.solve(r)
                x *= weight.real
            z += x
            self.shift_seconds[k + 1] += time.perf_counter() - tic
        self.apply_count += 1
        return z

    @property
    def telemetry(self):
        """Apply counters plus per-shift factorization time and stored factor
        entries; the per-shift lists share the order of ``shift_seconds`` (the
        mass matrix first)."""
        return {
            "apply_count": self.apply_count,
            "solves_per_apply": self.solves_per_apply,
            "shift_seconds": self.shift_seconds.tolist(),
            "factor_seconds": list(self.factor_seconds),
            "factor_nnz": [int(s.nnz) for s in self._solvers],
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
