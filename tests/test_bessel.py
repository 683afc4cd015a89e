import numpy as np
import pytest

from dirac_decoherence import bessel

from oracles import (
    j0_float_reference,
    j0_oracle,
    j1_oracle,
    j1_over_x_float_reference,
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
    # The asymptotic branch would return NaN for an infinite argument.
    for fn in (bessel.j0, bessel.j1, bessel.j1_over_x):
        with pytest.raises(ValueError, match="finite nonnegative"):
            fn(x)


def _float_reference(x):
    """j0, j1 and j1_over_x from the full 42-term series (x <= 14) or _asymptotic."""
    small = x <= bessel.SERIES_SWITCH
    j0, j1, j1_over_x = (np.empty_like(x) for _ in range(3))
    j0[small] = j0_float_reference(x[small])
    j1_over_x[small] = j1_over_x_float_reference(x[small])
    j1[small] = x[small] * j1_over_x[small]
    large = x[~small]
    j0[~small] = bessel._asymptotic(large, 0)
    j1[~small] = bessel._asymptotic(large, 1)
    j1_over_x[~small] = bessel._asymptotic(large, 1) / large
    return j0, j1, j1_over_x


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


def test_bitwise_equal_to_full_series():
    # The series stops early only when no later term can change a bit.
    for x in _bit_identity_cases():
        expected = _float_reference(x)
        for fn, ref in zip((bessel.j0, bessel.j1, bessel.j1_over_x), expected):
            assert fn(x).tobytes() == ref.tobytes(), (fn.__name__, x)


def test_scalar_and_empty_arguments():
    assert isinstance(bessel.j0(0.1), float)
    assert bessel.j0(0.1) == float(j0_float_reference(np.array([0.1]))[0])
    assert bessel.j1_over_x(np.array([])).shape == (0,)


@pytest.mark.parametrize("nu,fn,oracle", [(0, bessel.j0, j0_oracle), (1, bessel.j1, j1_oracle)])
def test_accuracy_against_series_oracle(nu, fn, oracle):
    xs = np.linspace(0.0, 200.0, 401)
    worst = max(abs(fn(float(x)) - oracle(float(x))) for x in xs)
    assert worst < 1e-10


def test_recurrence_consistency():
    # J0(x) + J2(x) = 2 J1(x) / x, with J2 from the oracle recurrence.
    for x in np.linspace(0.1, 50.0, 117):
        lhs = bessel.j0(float(x)) + j2_oracle(float(x))
        rhs = 2.0 * bessel.j1(float(x)) / x
        assert abs(lhs - rhs) < 1e-9


def test_derivative_identity():
    # J0'(x) = -J1(x) via central differences.
    rng = np.random.default_rng(7)
    # h large enough that the ~5e-12 branch-switch offset near x = 14 cannot
    # blow up in the difference quotient.
    h = 1e-4
    for x in rng.uniform(0.1, 50.0, size=100):
        deriv = (bessel.j0(x + h) - bessel.j0(x - h)) / (2.0 * h)
        assert abs(deriv + bessel.j1(x)) < 1e-7


def test_branch_overlap_window():
    # Both branches stay within 1e-10 of each other around the switch point.
    xs = np.linspace(bessel.SERIES_SWITCH - 0.5, bessel.SERIES_SWITCH + 0.5, 41)
    gap = np.abs(bessel._series_j0(xs) - bessel._asymptotic(xs, 0)).max()
    assert gap < 1e-10
    gap1 = np.abs(xs * bessel._series_j1_over_x(xs) - bessel._asymptotic(xs, 1)).max()
    assert gap1 < 1e-10


def test_array_input():
    xs = np.array([0.0, 1.0, 20.0])
    vals = bessel.j0(xs)
    assert vals.shape == (3,)
    assert vals[0] == 1.0


def test_result_error_bound():
    # Each branch keeps j0 and j1 within its stated absolute error.
    for x in (0.5, 13.9, 14.1, 150.0):
        small = x <= bessel.SERIES_SWITCH
        bound = bessel._SERIES_ABS_ERROR if small else bessel._ASYMPTOTIC_ABS_ERROR
        assert bound <= 1e-10
        for fn, oracle in ((bessel.j0, j0_oracle), (bessel.j1, j1_oracle)):
            assert abs(fn(x) - oracle(x)) <= bound
