"""Scalar reciprocals of weighted sums of two fractional powers.

These functions are the scalar symbols behind the operator preconditioners
built elsewhere in the package: the forward symbol is ``alpha*x**s +
beta*x**t`` and the object of interest is its reciprocal on an interval
``(0, rho]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FractionalSumFunction",
    "NormalizedFunction",
    "evaluate",
    "normalize",
    "sample_grid",
    "to_unit_interval",
]


@dataclass(frozen=True)
class FractionalSumFunction:
    """The map x -> 1 / (alpha * x**s + beta * x**t) on (0, interval_upper].

    Weights are nonnegative with at least one positive; exponents are
    restricted to [-1, 1], the range for which the pole behaviour of the
    rational fits downstream is well understood.
    """

    alpha: float
    beta: float
    s: float
    t: float
    interval_upper: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "s", "t", "interval_upper"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("weights alpha, beta must be nonnegative")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("at least one of alpha, beta must be positive")
        if not (-1.0 <= self.s <= 1.0 and -1.0 <= self.t <= 1.0):
            raise ValueError("exponents s, t must lie in [-1, 1]")
        if self.interval_upper <= 0:
            raise ValueError("interval_upper must be positive")

    def __call__(self, x):
        return evaluate(self, x)

    def forward(self, x):
        """The forward symbol alpha * x**s + beta * x**t (no reciprocal).

        Accepts positive scalars or arrays; no interval check is applied since
        the forward symbol is well defined for any x > 0.
        """
        x = np.asarray(x, dtype=float)
        return self.alpha * x**self.s + self.beta * x**self.t


def evaluate(func, x):
    """Evaluate ``func`` at points x in (0, interval_upper].

    Scalar input gives scalar output. Raises ValueError for nonpositive
    arguments or points beyond the fit interval.
    """
    scalar = np.isscalar(x)
    xv = np.asarray(x, dtype=float)
    if xv.size and not np.all(np.isfinite(xv)):
        raise ValueError("evaluation points must be finite")
    if np.any(xv <= 0.0):
        raise ValueError("fractional powers require positive arguments")
    if np.any(xv > func.interval_upper):
        raise ValueError(
            f"evaluation point exceeds interval_upper={func.interval_upper!r}"
        )
    out = 1.0 / (func.alpha * xv**func.s + func.beta * xv**func.t)
    return float(out) if scalar else out


@dataclass(frozen=True)
class NormalizedFunction:
    """A function together with its unit-leading-weight rescaling.

    ``scaled`` has the dominant weight divided out, so its values are
    ``leading_weight`` times the values of ``base``.  ``gamma`` is the ratio
    of the smaller to the larger weight (zero when one weight vanishes) and
    ``swapped`` records whether the t-term carried the dominant weight.
    """

    base: FractionalSumFunction
    scaled: FractionalSumFunction
    gamma: float
    leading_weight: float
    swapped: bool


def normalize(func):
    """Divide out the dominant weight of ``func``.

    Evaluating the scaled function and dividing by ``leading_weight``
    reproduces the original function pointwise.
    """
    swapped = func.beta > func.alpha
    leading = func.beta if swapped else func.alpha
    small = func.alpha if swapped else func.beta
    gamma = small / leading
    scaled = FractionalSumFunction(
        func.alpha / leading,
        func.beta / leading,
        func.s,
        func.t,
        func.interval_upper,
    )
    return NormalizedFunction(func, scaled, float(gamma), float(leading), swapped)


def sample_grid(func, n_points, floor_ratio):
    """Logarithmically spaced samples of ``func`` over its interval.

    The abscissae run from ``floor_ratio * interval_upper`` up to
    ``interval_upper`` inclusive and are strictly increasing.  Returns a pair
    of arrays ``(x, y)`` with ``y = func(x)``.
    """
    if n_points < 2:
        raise ValueError("a sample grid needs at least 2 points")
    if not 0.0 < floor_ratio < 1.0:
        raise ValueError("floor_ratio must lie strictly between 0 and 1")
    upper = func.interval_upper
    x = np.geomspace(floor_ratio * upper, upper, int(n_points))
    if np.any(np.diff(x) <= 0):
        raise ValueError("degenerate grid: abscissae are not strictly increasing")
    return x, evaluate(func, x)


def to_unit_interval(func):
    """Pull ``func`` back to (0, 1]: returns g with g(y) = func(rho * y).

    Absorbs the interval length rho = interval_upper into the weights, so a
    rational fit of g on (0, 1] can later be pushed forward by rescaling its
    poles and residues by rho.
    """
    rho = func.interval_upper
    return FractionalSumFunction(
        func.alpha * rho**func.s,
        func.beta * rho**func.t,
        func.s,
        func.t,
        1.0,
    )
