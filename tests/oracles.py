"""Independent reference implementations used only by the test suite.

The Bessel oracle sums the defining power series in 60-digit arithmetic with
mpmath, so it shares no code or algorithm branch with the production
evaluator (which switches to an asymptotic expansion for large arguments).
J2 comes from the three-term recurrence on the oracle values.

mode_vectors_reference gives a field's Fourier amplitudes by the explicit
transform, in the operation order spectral.decompose uses, so the tests can
check its projection bit for bit.

The float64 references at the end fix the exact operation order the
production code must reproduce bit for bit: the full 42-term series
recurrence, and a kernel step whose cone sums lay out the taps by index
array and transform out of place.
"""

import mpmath
import numpy as np


def bessel_series(nu: int, x: float) -> float:
    """J_nu(x) by direct high-precision series summation.

    The alternating series cancels ~0.9*x decimal digits, so the working
    precision grows with the argument.
    """
    with mpmath.workdps(40 + int(abs(x))):
        x = mpmath.mpf(x)
        q = -(x / 2) ** 2
        term = (x / 2) ** nu / mpmath.factorial(nu)
        acc = term
        k = 0
        while True:
            k += 1
            term *= q / (k * (k + nu))
            acc += term
            if abs(term) < mpmath.mpf(10) ** (-30) * (abs(acc) + 1):
                break
        return float(acc)


def j0_oracle(x: float) -> float:
    return bessel_series(0, x)


def j1_oracle(x: float) -> float:
    return bessel_series(1, x)


def j2_oracle(x: float) -> float:
    """J2 = 2 J1 / x - J0 (recurrence on the series values)."""
    x_mp = mpmath.mpf(x)
    return float(2 * bessel_series(1, x) / x_mp - bessel_series(0, x))


def binary_entropy_bits(p: float) -> float:
    """h2(p) in bits with the 0 log 0 = 0 convention."""
    s = mpmath.mpf(0)
    for q in (mpmath.mpf(p), 1 - mpmath.mpf(p)):
        if q > 0:
            s -= q * mpmath.log(q, 2)
    return float(s)


def massless_off_diagonal(t: float) -> float:
    """Closed-form off-diagonal entry for the unit-width equal superposition."""
    return float(mpmath.exp(-mpmath.mpf(t) ** 2) / 2)


def mode_vectors_reference(field) -> np.ndarray:
    """psi_hat(k), (2, N) in FFT order: fft of each row, times (-1)^j for the
    grid origin at index N/2, times sqrt(dx/N)."""
    grid = field.grid
    psi_hat = np.fft.fft(field.values, axis=1)
    psi_hat[:, 1::2] *= -1
    return psi_hat * np.sqrt(grid.dx / grid.n_points)


def full_series(x: np.ndarray, first: float, denom) -> np.ndarray:
    """All 42 terms of term_k = term_(k-1) * q / denom(k), q = -x^2/4, in float64."""
    q = -(x * x) / 4.0
    term = np.full_like(x, first)
    acc = np.full_like(x, first)
    for k in range(1, 42):
        term = term * q / denom(k)
        acc = acc + term
    return acc


def j0_float_reference(x: np.ndarray) -> np.ndarray:
    return full_series(x, 1.0, lambda k: k * k)


def j1_over_x_float_reference(x: np.ndarray) -> np.ndarray:
    return full_series(x, 0.5, lambda k: k * (k + 1))


def tap_layout_reference(taps: np.ndarray, j: int, n: int) -> np.ndarray:
    """The 2j + 1 taps placed by index array on n cells, h[d mod n] = taps[d + j]."""
    h = np.zeros(n, dtype=np.complex128)
    h[np.arange(-j, j + 1) % n] = taps
    return h


def cone_correlate_reference(psi: np.ndarray, taps: np.ndarray, j: int) -> np.ndarray:
    """Taps placed by tap_layout_reference, then ifft(fft(psi) * fft(h)) out of place."""
    h = tap_layout_reference(taps, j, len(psi))
    return np.fft.ifft(np.fft.fft(psi) * np.fft.fft(h))


def kernel_step_reference(values: np.ndarray, dx: float, m: float, j: int) -> np.ndarray:
    """One j-cell kernel step of a (2, N) field, cone arguments on the series branch."""
    dt = j * dx
    d = np.arange(-j, j + 1)
    sep = d * dx
    tau = dx * np.sqrt(np.maximum(j * j - d * d, 0).astype(np.float64))
    assert (m * tau).max() <= 14.0
    weights = np.ones(2 * j + 1)
    weights[0] = weights[-1] = 0.5
    cross = 1j * (m / 2.0) * j0_float_reference(m * tau) * weights * dx
    same = {
        alpha: -(dt + alpha * sep) * (m * m / 2.0) * j1_over_x_float_reference(m * tau) * weights * dx
        for alpha in (-1, 1)
    }
    minus, plus = values
    out_minus = np.roll(minus, -j).astype(np.complex128)
    out_plus = np.roll(plus, j).astype(np.complex128)
    out_minus += cone_correlate_reference(minus, same[-1], j)
    out_minus += cone_correlate_reference(plus, cross, j)
    out_plus += cone_correlate_reference(plus, same[1], j)
    out_plus += cone_correlate_reference(minus, cross, j)
    return np.stack([out_minus, out_plus])
