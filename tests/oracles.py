"""Independent reference implementations used only by the test suite.

The Bessel oracle sums the defining power series in 60-digit arithmetic with
mpmath, so it shares no code or algorithm with the production evaluator
(the trapezoid rule on Bessel's integrals).  J2 comes from the three-term
recurrence on the oracle values.

mode_vectors_reference gives a field's Fourier amplitudes by the explicit
transform, in the operation order spectral.decompose uses, so the tests can
check its projection bit for bit.  reduce_from_modes_reference writes the
momentum route to the 2x2 density matrix out as one expression, phases and
sum over energy signs included, to check the route through the spectral
engine bit for bit.

The float64 references at the end fix the exact operation order the
production code must reproduce bit for bit: the trapezoid rule on Bessel's
integrals, out of place, and a kernel step that takes a field's spectrum to
the next one, multiplying it by symbol rows unpacked from one out-of-place
transform of taps laid out by index array, with the lightcone delta.  Kept as
references equal to it up to roundoff: symbol rows with each tap set
transformed on its own, and two position-space steps, one that adds each
field row's two cone spectra before one inverse and adds the shifts after
it, and one that inverts each cone sum on its own.
"""

import math

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


def reduce_from_modes_reference(modes, t: float) -> np.ndarray:
    """Symmetrized sum over k of psi_hat psi_hat^dagger, where psi_hat(k) =
    amp_plus e^{-i w t} u_plus + amp_minus e^{+i w t} u_minus."""
    phase = np.exp(-1j * modes.basis.omega * t)
    psi_hat = (
        modes.amp_plus * phase * modes.basis.u_plus
        + modes.amp_minus * np.conj(phase) * modes.basis.u_minus
    )
    rho = np.einsum("an,bn->ab", psi_hat, psi_hat.conj())
    return (rho + rho.conj().T) / 2.0


def trapezoid_reference(x: np.ndarray, power: int) -> np.ndarray:
    """sum_k w_k cos(x sin theta_k) / sum_k w_k over theta_k = k pi / M, k < M,
    M = ceil(0.75 max x) + 12 and w_k = cos(theta_k)^power, out of place in float64."""
    m = math.ceil(0.75 * float(np.max(x, initial=0.0))) + 12
    theta = np.arange(m) * (np.pi / m)
    w = np.cos(theta) ** power
    return (np.cos(x[..., None] * np.sin(theta)) * w).sum(axis=-1) / w.sum()


def j0_trapezoid_reference(x: np.ndarray) -> np.ndarray:
    """J0(x) = (1/pi) int_0^pi cos(x sin theta) d theta, by the reference rule."""
    return trapezoid_reference(x, 0)


def j1_over_x_trapezoid_reference(x: np.ndarray) -> np.ndarray:
    """J1(x)/x = (1/pi) int_0^pi cos^2 theta cos(x sin theta) d theta, by the reference rule."""
    return 0.5 * trapezoid_reference(x, 2)


def tap_layout_reference(taps: np.ndarray, j: int, n: int) -> np.ndarray:
    """The 2j + 1 taps placed by index array on n cells, h[d mod n] = taps[d + j]."""
    h = np.zeros(n, dtype=np.complex128)
    h[np.arange(-j, j + 1) % n] = taps
    return h


def cone_spectrum_reference(psi: np.ndarray, taps: np.ndarray, j: int) -> np.ndarray:
    """Taps placed by tap_layout_reference, then fft(psi) * fft(h) out of place:
    the spectrum of the cone sum."""
    h = tap_layout_reference(taps, j, len(psi))
    return np.fft.fft(psi) * np.fft.fft(h)


def _step_taps(dx: float, m: float, j: int):
    """A j-cell step's tap sets, with Bessel values by the trapezoid reference."""
    dt = j * dx
    d = np.arange(-j, j + 1)
    sep = d * dx
    tau = dx * np.sqrt(np.maximum(j * j - d * d, 0).astype(np.float64))
    weights = np.ones(2 * j + 1)
    weights[0] = weights[-1] = 0.5
    cross = 1j * (m / 2.0) * j0_trapezoid_reference(m * tau) * weights * dx
    same = {
        alpha: -(dt + alpha * sep) * (m * m / 2.0) * j1_over_x_trapezoid_reference(m * tau) * weights * dx
        for alpha in (-1, 1)
    }
    return same, cross


def symbol_rows_reference(same: dict, cross: np.ndarray, j: int, n: int) -> np.ndarray:
    """A j-cell step's symbol rows (same chirality -1, cross, same chirality +1)
    from its tap sets and one transform: z, the chirality -1 taps plus the
    cross taps laid by tap_layout_reference with the lightcone delta at
    offset -j, transformed out of place to Z; the real part's spectrum is
    (Z(n) + conj Z(-n)) / 2, the imaginary part's the rest, and the chirality
    +1 row the first at index -n mod n, by fancy index."""
    z = tap_layout_reference(same[-1] + cross, j, n)
    z[-j % n] += 1.0
    big_z = np.fft.fft(z)
    mirror = (-np.arange(n)) % n
    same_minus = (big_z + np.conj(big_z[mirror])) / 2
    return np.stack([same_minus, big_z - same_minus, same_minus[mirror]])


def symbol_rows_three_transform_reference(same: dict, cross: np.ndarray, j: int, n: int) -> np.ndarray:
    """The symbol rows with each tap set laid by tap_layout_reference, the
    lightcone deltas added at offset -j in the first row and +j in the last,
    and each row transformed on its own, out of place."""
    rows = [tap_layout_reference(taps, j, n) for taps in (same[-1], cross, same[1])]
    rows[0][-j % n] += 1.0
    rows[2][j % n] += 1.0
    return np.stack([np.fft.fft(h) for h in rows])


def kernel_step_reference(psi_hat: np.ndarray, dx: float, m: float, j: int) -> np.ndarray:
    """One j-cell kernel step of a (2, N) field spectrum, spectrum in and out:
    each new row is its same-chirality product plus its cross product."""
    same_minus, cross, same_plus = symbol_rows_reference(*_step_taps(dx, m, j), j, psi_hat.shape[1])
    minus_hat, plus_hat = psi_hat
    return np.stack([minus_hat * same_minus + plus_hat * cross, plus_hat * same_plus + minus_hat * cross])


def kernel_step_position_reference(values: np.ndarray, dx: float, m: float, j: int) -> np.ndarray:
    """One j-cell kernel step of a (2, N) field in position space: each row's
    two cone spectra added, inverted once out of place and added to the
    np.roll shift."""
    same, cross = _step_taps(dx, m, j)
    minus, plus = values
    out_minus = np.roll(minus, -j).astype(np.complex128)
    out_plus = np.roll(plus, j).astype(np.complex128)
    out_minus += np.fft.ifft(cone_spectrum_reference(minus, same[-1], j)
                             + cone_spectrum_reference(plus, cross, j))
    out_plus += np.fft.ifft(cone_spectrum_reference(plus, same[1], j)
                            + cone_spectrum_reference(minus, cross, j))
    return np.stack([out_minus, out_plus])


def kernel_step_four_inverses_reference(values: np.ndarray, dx: float, m: float, j: int) -> np.ndarray:
    """The position-space step with each of the four cone sums inverted on its
    own and added to the shift in turn; it differs from the other two
    references by roundoff only."""
    same, cross = _step_taps(dx, m, j)
    minus, plus = values
    out_minus = np.roll(minus, -j).astype(np.complex128)
    out_plus = np.roll(plus, j).astype(np.complex128)
    out_minus += np.fft.ifft(cone_spectrum_reference(minus, same[-1], j))
    out_minus += np.fft.ifft(cone_spectrum_reference(plus, cross, j))
    out_plus += np.fft.ifft(cone_spectrum_reference(plus, same[1], j))
    out_plus += np.fft.ifft(cone_spectrum_reference(minus, cross, j))
    return np.stack([out_minus, out_plus])
