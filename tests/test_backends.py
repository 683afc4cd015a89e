"""The cone correlation, checked against an explicit direct sum over the cone.

cone_correlate takes spectra: the field's fft and the fft of the taps laid out
cyclically, as one row of the kernel engine's tap-spectra block.
"""

import numpy as np
import pytest

from dirac_decoherence import BACKEND_NAME, kernel_engine
from dirac_decoherence.grid import Grid1D

from oracles import cone_correlate_reference, tap_layout_reference


def direct_sum(psi, taps, width):
    """O(N*j) oracle: out[i] = sum_d taps[d + j] * psi[(i - d) mod N]."""
    n = len(psi)
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for d in range(-width, width + 1):
            out[i] += taps[d + width] * psi[(i - d) % n]
    return out


def correlate(psi, taps, width):
    """cone_correlate of psi's spectrum and the taps' spectrum, as evolve_step calls it."""
    taps_hat = np.fft.fft(tap_layout_reference(taps, width, len(psi)))
    return kernel_engine.cone_correlate(np.fft.fft(psi), taps_hat, width)


def test_backend_name_is_valid():
    assert BACKEND_NAME == "numpy"


# (512, 64) sits at the j = N/8 limit evolve_step can reach; (1000, 125) there
# with N not a power of two.
@pytest.mark.parametrize(
    "n,width", [(64, 1), (128, 7), (1024, 20), (1000, 13), (512, 64), (1000, 125)]
)
def test_backends_agree(n, width):
    rng = np.random.default_rng(n + width)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    taps = rng.normal(size=2 * width + 1) + 1j * rng.normal(size=2 * width + 1)
    a = correlate(psi, taps, width)
    b = direct_sum(psi, taps, width)
    assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("n,width", [(64, 0), (64, 1), (1000, 13), (1024, 511), (1000, 499)])
def test_bitwise_equal_to_out_of_place_reference(n, width):
    rng = np.random.default_rng(n + width)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    taps = rng.normal(size=2 * width + 1) + 1j * rng.normal(size=2 * width + 1)
    out = correlate(psi, taps, width)
    assert out.tobytes() == cone_correlate_reference(psi, taps, width).tobytes()


@pytest.mark.parametrize("real_taps", [False, True])
def test_read_only_inputs_unchanged(real_taps):
    # Row 0 of the block is the spectrum of real (same chirality) taps, row 1
    # of imaginary (cross) taps.
    block = kernel_engine._tap_spectra(7, Grid1D(20.0, 128), 1.3)
    assert not block.flags.writeable
    taps_hat = block[0 if real_taps else 1]
    rng = np.random.default_rng(3)
    psi_hat = np.fft.fft(rng.normal(size=128) + 1j * rng.normal(size=128))
    psi_hat.flags.writeable = False
    psi_hat_copy, block_copy = psi_hat.copy(), block.copy()
    out = kernel_engine.cone_correlate(psi_hat, taps_hat, 7)
    assert out.flags.writeable
    assert psi_hat.tobytes() == psi_hat_copy.tobytes() and block.tobytes() == block_copy.tobytes()


def test_numpy_reference_small_case():
    # n = 4, width = 1: out[i] = sum_j taps[j] * psi[(i - j + width) mod n].
    psi = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    taps = np.array([10.0, 100.0, 1000.0], dtype=complex)
    out = correlate(psi, taps, 1)
    expected = np.array(
        [10 * 2 + 100 * 1 + 1000 * 4, 10 * 3 + 100 * 2 + 1000 * 1,
         10 * 4 + 100 * 3 + 1000 * 2, 10 * 1 + 100 * 4 + 1000 * 3],
        dtype=complex,
    )
    assert np.abs(out - expected).max() == 0.0


def test_zero_width_scales():
    psi = np.arange(8, dtype=complex)
    out = correlate(psi, np.array([2.0 + 0j]), 0)
    assert np.abs(out - 2.0 * psi).max() == 0.0
