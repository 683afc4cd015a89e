import functools
import re

import numpy as np
import pytest

from dirac_decoherence import bessel

from oracles import (
    j0_oracle,
    j0_trapezoid_reference,
    j1_oracle,
    j1_over_x_trapezoid_reference,
    j2_oracle,
)

# Frozen oracle values (60-digit series, see oracles.py).
J0_AT_1 = 0.765197686557966552
J1_AT_1 = 0.440050585744933516
J0_FIRST_ZERO = 2.404825557695772769


def test_j0_at_zero():
    assert bessel.j0(0.0) == 1.0


def test_j0_at_one():
    assert bessel.j0(1.0) == pytest.approx(J0_AT_1, abs=1e-12)


def test_j0_first_zero():
    assert abs(bessel.j0(J0_FIRST_ZERO)) < 1e-9


def test_j1_at_zero():
    assert bessel.j1(0.0) == 0.0


def test_j1_at_one():
    assert bessel.j1(1.0) == pytest.approx(J1_AT_1, abs=1e-12)


def test_j1_small_argument_slope():
    assert bessel.j1(1e-8) / 1e-8 == pytest.approx(0.5, abs=1e-12)


def test_j1_over_x_limit():
    assert bessel.j1_over_x(0.0) == 0.5
    assert bessel.j1_over_x(1e-6) == pytest.approx(0.5, abs=1e-12)


def test_j1_over_x_matches_j1():
    for x in (0.3, 1.0, 7.7, 20.0):
        assert bessel.j1_over_x(x) == pytest.approx(bessel.j1(x) / x, abs=1e-13)


def test_negative_argument_rejected():
    for fn in (bessel.j0, bessel.j1, bessel.j1_over_x):
        with pytest.raises(ValueError):
            fn(-0.5)


@pytest.mark.parametrize("x", [np.nan, np.array([0.1, np.nan]), np.array([20.0, np.nan, 1.0]),
                               np.inf, np.array([1.0, np.inf])])
def test_non_finite_argument_rejected(x):
    for fn in (bessel.j0, bessel.j1, bessel.j1_over_x):
        with pytest.raises(ValueError, match="finite nonnegative"):
            fn(x)


def _trapezoid_reference(x):
    """j0, j1 and j1_over_x by the out-of-place trapezoid rule, j1 = x * j1_over_x."""
    j1_over_x = j1_over_x_trapezoid_reference(x)
    return j0_trapezoid_reference(x), x * j1_over_x, j1_over_x


def _bit_identity_cases():
    rng = np.random.default_rng(8)
    first_zeros = [2.404825557695773, 5.520078110286311, 8.653727912911013,
                   11.79153443901428, 3.831705970207512, 7.015586669815619,
                   10.17346813506272, 13.32369193631422]
    cases = [np.array([z]) for z in first_zeros]
    cases += [np.array([np.nextafter(z, 0.0), z, np.nextafter(z, 20.0)]) for z in first_zeros]
    # Dense grids in kernel-sized chunks of 7 neighbouring arguments.
    for hi, count in ((14.0, 2807), (200.0, 2807)):
        cases += np.split(np.linspace(0.0, hi, count), count // 7)
    # Cone arguments m*tau of kernel steps: below about 0.25.
    cases += list(rng.uniform(0.0, 0.25, size=(500, 7)))
    cases += list(rng.uniform(0.0, 14.0, size=(200, 7)))
    return cases


def test_bitwise_equal_to_trapezoid_reference():
    # The in-place cosine and weighting give the written-out rule's bits.
    for x in _bit_identity_cases():
        expected = _trapezoid_reference(x)
        for fn, ref in zip((bessel.j0, bessel.j1, bessel.j1_over_x), expected):
            assert fn(x).tobytes() == ref.tobytes(), (fn.__name__, x)


def test_scalar_and_empty_arguments():
    assert isinstance(bessel.j0(0.1), float)
    for fn, ref in zip((bessel.j0, bessel.j1, bessel.j1_over_x), _trapezoid_reference(np.array([0.1]))):
        assert fn(0.1) == float(ref[0])
    assert bessel.j1_over_x(np.array([])).shape == (0,)


ACCURACY_GRID = np.linspace(0.0, 200.0, 401)


@functools.cache
def _on_accuracy_grid(oracle):
    return np.array([oracle(float(x)) for x in ACCURACY_GRID])


@pytest.mark.parametrize("nu,fn,oracle", [(0, bessel.j0, j0_oracle), (1, bessel.j1, j1_oracle)])
def test_accuracy_against_series_oracle(nu, fn, oracle):
    worst = max(abs(fn(float(x)) - v) for x, v in zip(ACCURACY_GRID, _on_accuracy_grid(oracle)))
    assert worst < (1e-14 if nu == 0 else 1e-12)


def test_j1_over_x_accuracy_against_series_oracle():
    xs, j1s = ACCURACY_GRID[1:], _on_accuracy_grid(j1_oracle)[1:]
    worst = max(abs(bessel.j1_over_x(float(x)) - v / x) for x, v in zip(xs, j1s))
    assert worst < 1e-14


def test_recurrence_consistency():
    # J0(x) + J2(x) = 2 J1(x) / x, with J2 from the oracle recurrence.
    for x in np.linspace(0.1, 50.0, 117):
        lhs = bessel.j0(float(x)) + j2_oracle(float(x))
        rhs = 2.0 * bessel.j1(float(x)) / x
        assert abs(lhs - rhs) < 1e-9


def test_derivative_identity():
    # J0'(x) = -J1(x) via central differences.
    rng = np.random.default_rng(7)
    h = 1e-4
    for x in rng.uniform(0.1, 50.0, size=100):
        deriv = (bessel.j0(x + h) - bessel.j0(x - h)) / (2.0 * h)
        assert abs(deriv + bessel.j1(x)) < 1e-7


def test_array_input():
    xs = np.array([0.0, 1.0, 20.0])
    vals = bessel.j0(xs)
    assert vals.shape == (3,)
    assert vals[0] == 1.0


def test_result_error_bound():
    # The stated bound: j0 and j1_over_x within 4e-15, j1 = x * j1_over_x
    # within x * 4e-15 (4e-15 below x = 1).
    xs = np.array([0.0, 0.5, 13.9, 14.1, 47.3, 150.0, 199.7, 200.0])
    for call in [*xs[:, None], xs]:  # each argument alone, then all in one call
        for x, v0, v1x, v1 in zip(call, bessel.j0(call), bessel.j1_over_x(call), bessel.j1(call)):
            x = float(x)
            assert abs(v0 - j0_oracle(x)) <= 4e-15
            assert abs(v1 - j1_oracle(x)) <= 4e-15 * max(x, 1.0)
            if x > 0:
                assert abs(v1x - j1_oracle(x) / x) <= 4e-15


def test_domain_ends_at_200():
    for fn in (bessel.j0, bessel.j1, bessel.j1_over_x):
        assert np.isfinite(fn(200.0)) and fn(np.array([0.0, 200.0])).shape == (2,)
    past = float(np.nextafter(200.0, np.inf))
    for x in (past, np.array([1.0, past, 3.0])):
        for fn in (bessel.j0, bessel.j1, bessel.j1_over_x):
            with pytest.raises(ValueError, match=f"finite nonnegative .* to {re.escape(repr(past))}$"):
                fn(x)
