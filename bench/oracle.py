"""Exact FFT realization of the interface operator on the closed-curve pencil.

On a uniform closed curve the P1 stiffness and mass matrices are circulant, so
the discrete Fourier transform diagonalizes the pencil (A + M, M) used by
``fracra.assemble_interface``: with theta_k = 2 pi k / n and h = 1 / n,

    m_k = h (4 + 2 cos theta_k) / 6,   a_k = (2 - 2 cos theta_k) / h + m_k,

and the generalized eigenvalues are lambda_k = a_k / m_k.  The interface
operator M U F(Lambda) U^T M with F(x) = mu^-1 x^-1/2 + K mu^-1 x^1/2 is then

    S x = ifft(m_k F(lambda_k) fft(x)),

exact to rounding in O(n log n).  ``solve`` applies S^-1 the same way.
"""

from __future__ import annotations

import numpy as np


class PeriodicInterfaceSystem:
    """S and S^-1 of the closed-curve interface problem for (mu, K)."""

    def __init__(self, n_cells, mu, K):
        if n_cells < 3:
            raise ValueError("n_cells must be at least 3")
        if mu <= 0 or K <= 0:
            raise ValueError("mu and K must be positive")
        self.n_cells = int(n_cells)
        h = 1.0 / n_cells
        # Only the first n // 2 + 1 modes are needed for a real transform.
        cos = np.cos(2.0 * np.pi * np.arange(n_cells // 2 + 1) / n_cells)
        m = h * (4.0 + 2.0 * cos) / 6.0
        lam = ((2.0 - 2.0 * cos) / h + m) / m
        self.eigenvalues = m * (lam**-0.5 + K * lam**0.5) / mu

    @property
    def n(self):
        return self.n_cells

    def apply(self, x):
        """S x."""
        return np.fft.irfft(self.eigenvalues * np.fft.rfft(x), self.n_cells)

    def solve(self, g):
        """S^-1 g."""
        return np.fft.irfft(np.fft.rfft(g) / self.eigenvalues, self.n_cells)

    def relative_residual(self, x, g):
        """||S x - g|| / ||g||."""
        return float(np.linalg.norm(self.apply(x) - g) / np.linalg.norm(g))
