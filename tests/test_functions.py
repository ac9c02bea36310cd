import numpy as np
import pytest

from fracra.functions import (
    FractionalSumFunction,
    evaluate,
    normalize,
    sample_grid,
    to_unit_interval,
)

EPS = np.finfo(float).eps


def test_valid_construction():
    f = FractionalSumFunction(1.0, 1.0, -0.5, 0.5, 1.0)
    assert f.alpha == 1.0 and f.interval_upper == 1.0


@pytest.mark.parametrize("args", [
    (0.0, 0.0, 0.0, 0.0, 1.0),      # both weights zero
    (1.0, 0.0, 2.0, 0.0, 1.0),      # exponent out of range
    (-1.0, 1.0, 0.5, 0.5, 1.0),     # negative weight
    (1.0, 1.0, 0.5, 0.5, 0.0),      # empty interval
    (1.0, 1.0, 0.5, 0.5, -2.0),
    # nan and inf in each of the five fields
    *[tuple(bad if k == field else good
            for k, good in enumerate((1.0, 1.0, 0.5, 0.5, 1.0)))
      for field in range(5) for bad in (np.nan, np.inf)],
])
def test_invalid_construction(args):
    with pytest.raises(ValueError):
        FractionalSumFunction(*args)


def test_eval_examples():
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    assert evaluate(f, 1.0) == pytest.approx(0.5, abs=1e-15)
    g = FractionalSumFunction(1, 1, 1, 1, 1.0)
    assert evaluate(g, 0.25) == pytest.approx(2.0, abs=1e-15)
    h = FractionalSumFunction(2, 0, 1, 0, 1.0)
    assert evaluate(h, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_eval_rejects_bad_points():
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        evaluate(f, 0.0)
    with pytest.raises(ValueError):
        evaluate(f, -1.0)
    with pytest.raises(ValueError):
        evaluate(f, 1.5)
    with pytest.raises(ValueError):
        evaluate(f, np.array([0.5, 2.0]))


def test_eval_times_forward_is_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha, beta = rng.uniform(0.1, 10, size=2)
        s, t = rng.uniform(-1, 1, size=2)
        f = FractionalSumFunction(alpha, beta, s, t, 1.0)
        x = rng.uniform(1e-6, 1.0, size=20)
        residual = evaluate(f, x) * f.forward(x) - 1.0
        assert np.all(np.abs(residual) <= 4 * EPS)


def test_eval_symmetry_exact():
    rng = np.random.default_rng(11)
    for _ in range(30):
        alpha, beta = rng.uniform(0.1, 10, size=2)
        s, t = rng.uniform(-1, 1, size=2)
        x = rng.uniform(1e-8, 1.0)
        a = evaluate(FractionalSumFunction(alpha, beta, s, t, 1.0), x)
        b = evaluate(FractionalSumFunction(beta, alpha, t, s, 1.0), x)
        assert a == b


def test_normalize_examples():
    n = normalize(FractionalSumFunction(1e-3, 1e2, 0.3, -0.3, 1.0))
    assert n.gamma == pytest.approx(1e-5)
    assert n.leading_weight == pytest.approx(1e2)
    assert n.swapped is True

    n = normalize(FractionalSumFunction(1, 1, 0.5, -0.5, 1.0))
    assert n.gamma == 1.0 and n.leading_weight == 1.0 and n.swapped is False

    n = normalize(FractionalSumFunction(1, 0, 0.5, 0.5, 1.0))
    assert n.gamma == 0.0 and n.leading_weight == 1.0 and n.swapped is False


def test_normalize_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha = 10.0 ** rng.uniform(-9, 2)
        beta = 10.0 ** rng.uniform(-9, 2)
        s, t = rng.uniform(-1, 1, size=2)
        f = FractionalSumFunction(alpha, beta, s, t, 1.0)
        n = normalize(f)
        x = 10.0 ** rng.uniform(-10, 0, size=30)
        direct = evaluate(f, x)
        rebuilt = evaluate(n.scaled, x) / n.leading_weight
        assert np.all(np.abs(rebuilt - direct) <= 4 * EPS * np.abs(direct))


def test_sample_grid_examples():
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    x, y = sample_grid(f, 4, 1e-3)
    assert x == pytest.approx([1e-3, 1e-2, 1e-1, 1.0], rel=1e-12)
    assert y == pytest.approx(evaluate(f, x))

    x, _ = sample_grid(f, 2000, 1e-14)
    assert x.size == 2000
    assert x[0] == pytest.approx(1e-14, rel=1e-15)
    assert x[-1] == 1.0
    assert np.all(np.diff(x) > 0)


def test_sample_grid_rejects_degenerate():
    f = FractionalSumFunction(1, 1, -0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        sample_grid(f, 1, 1e-3)
    with pytest.raises(ValueError):
        sample_grid(f, 10, 0.0)
    with pytest.raises(ValueError):
        sample_grid(f, 10, 1.5)


def test_to_unit_interval_pullback():
    rho = 4.0
    f = FractionalSumFunction(2.0, 3.0, -0.5, 0.5, rho)
    g = to_unit_interval(f)
    assert g.interval_upper == 1.0
    y = np.array([0.1, 0.5, 1.0])
    assert evaluate(g, y) == pytest.approx(evaluate(f, rho * y), rel=1e-14)
