"""Exact-in-time evolution by plane-wave decomposition.

The chiral-basis Hamiltonian at momentum k is

    H(k) = [[-k, -m],
            [-m, +k]]

acting on (psi_-1, psi_+1): the diagonal gives the massless lightcone
translations (chirality alpha moves with velocity alpha) and the -m coupling
matches the small-time expansion of the off-diagonal propagator entry
i m J0 / 2.  Eigenvalues are eps*omega with omega = sqrt(k^2 + m^2), and
evolution multiplies each mode amplitude by exp(-i eps omega t).

Mode amplitudes are normalized so that sum_k,eps |amp|^2 equals the field's
probability integral (forward transform scaled by sqrt(dx/N)).  A field keeps
one cache: per (mass, coupling sign), its decomposition, whose two amplitude
rows share one read-only (2, N) complex array; the forward transform is a
temporary of the decompose call that fills the entry.  So a trace that
evolves one field to many times takes one FFT and one projection; each sample
pays only its phases and one inverse FFT, which reconstruct writes into the
array it hands to the new field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .grid import Grid1D, SpinorField

# Sign of the mass coupling in H(k), pinned by the cross-engine check against the
# Bessel-kernel propagator; only the benchmark's --perturb reference flips it, via decompose.
MASS_COUPLING_SIGN = -1.0


def dispersion(k, m: float):
    """Positive energy branch omega = sqrt(k^2 + m^2)."""
    if m < 0:
        raise ValueError(f"mass must be nonnegative, got {m}")
    return np.sqrt(np.asarray(k, dtype=np.float64) ** 2 + m * m)


def eigenspinor(k: float, energy_sign: int, m: float) -> np.ndarray:
    """Normalized eigenspinor u(k, eps) of H(k) with a deterministic phase.

    Phase convention: first nonvanishing component real and nonnegative.
    """
    if energy_sign not in (-1, 1):
        raise ValueError(f"energy_sign must be +1 or -1, got {energy_sign}")
    basis = eigenbasis_arrays(k=np.array([float(k)]), m=m)
    u = basis.u_plus if energy_sign == 1 else basis.u_minus
    return u[:, 0].copy()


@dataclass(frozen=True)
class EnergyEigenbasis:
    """Per-momentum energies and orthonormal eigenspinors of H(k).

    u_plus/u_minus have shape (2, N): column j is the spinor at the j-th momentum.
    """

    omega: np.ndarray = dc_field(repr=False)
    u_plus: np.ndarray = dc_field(repr=False)
    u_minus: np.ndarray = dc_field(repr=False)


def eigenbasis_arrays(k: np.ndarray, m: float, coupling_sign: float = MASS_COUPLING_SIGN) -> EnergyEigenbasis:
    """Diagonalize H(k) = [[-k, s*m], [s*m, k]] for an array of momenta.

    Closed form: for eigenvalue eps*omega the two candidate eigenvectors are
    (s*m, k + eps*omega) and (k - eps*omega, -s*m); whichever has the larger
    norm is well conditioned, including the massless limit where one of them
    vanishes identically.  The returned arrays are read-only, since
    eigenbasis shares them between callers.
    """
    k = np.array(k, dtype=np.float64)
    omega = dispersion(k, m)
    sm = coupling_sign * m

    def vec(eps: int) -> np.ndarray:
        va = np.stack([np.full_like(k, sm), k + eps * omega])
        vb = np.stack([k - eps * omega, np.full_like(k, -sm)])
        na = np.sum(va**2, axis=0)
        nb = np.sum(vb**2, axis=0)
        v = np.where(na >= nb, va, vb)
        nrm = np.sqrt(np.sum(v**2, axis=0))
        # omega == 0 only at k == 0 with m == 0; fix the degenerate basis to the
        # k -> 0+ massless limit: u(+1) = (0, 1), u(-1) = (1, 0).
        degenerate = nrm == 0.0
        if np.any(degenerate):
            v = v.copy()
            nrm = nrm.copy()
            v[0 if eps == -1 else 1, degenerate] = 1.0
            nrm[degenerate] = 1.0
        v = v / nrm
        # Phase convention: first nonvanishing component nonnegative.
        lead = np.where(np.abs(v[0]) > 1e-300, v[0], v[1])
        v = v * np.where(lead < 0, -1.0, 1.0)
        return v.astype(np.complex128)

    arrays = {"omega": omega, "u_plus": vec(+1), "u_minus": vec(-1)}
    for a in arrays.values():
        a.flags.writeable = False
    return EnergyEigenbasis(**arrays)


@lru_cache(maxsize=32)
def eigenbasis(grid: Grid1D, m: float, coupling_sign: float = MASS_COUPLING_SIGN) -> EnergyEigenbasis:
    """Eigenbasis over the grid's discrete momenta, cached per (grid, m)."""
    return eigenbasis_arrays(grid.k, m, coupling_sign)


@dataclass(frozen=True)
class ModeDecomposition:
    """Amplitudes over (k, eps) plus the basis used to produce them.

    amp_plus/amp_minus are indexed like grid.k (FFT order).  The squared
    amplitudes of both signs sum to the probability integral of the field.
    """

    grid: Grid1D
    amp_plus: np.ndarray = dc_field(repr=False)
    amp_minus: np.ndarray = dc_field(repr=False)
    basis: EnergyEigenbasis = dc_field(repr=False)


def decompose(field: SpinorField, m: float, coupling_sign: float = MASS_COUPLING_SIGN) -> ModeDecomposition:
    """Expand a field over the energy eigenmodes of H(k); cached on the field, read-only."""
    key = (float(m), coupling_sign)
    modes = field._decompositions.get(key)
    if modes is None:
        grid = field.grid
        basis = eigenbasis(grid, *key)
        # Fourier amplitudes psi_hat(k) in FFT order.  The grid origin sits at
        # index N/2, so each FFT bin picks up the factor e^{-i k_j x_0} = (-1)^j
        # relative to numpy's index-based transform.
        psi_hat = np.fft.fft(field.values, axis=1)
        psi_hat[:, 1::2] *= -1
        psi_hat *= np.sqrt(grid.dx / grid.n_points)
        amps = np.stack([
            np.sum(np.conj(basis.u_plus) * psi_hat, axis=0),
            np.sum(np.conj(basis.u_minus) * psi_hat, axis=0),
        ])
        amps.flags.writeable = False
        modes = ModeDecomposition(grid=grid, amp_plus=amps[0], amp_minus=amps[1], basis=basis)
        field._decompositions[key] = modes
    return modes


def reconstruct(modes: ModeDecomposition) -> SpinorField:
    """Inverse of decompose, in place: one temporary becomes the new field's values."""
    grid = modes.grid
    psi_hat = modes.amp_plus * modes.basis.u_plus
    # Row by row, so the temporary is one row, not two: a sample's transient
    # memory then mostly fits the heap the previous sample freed.
    for row, u in zip(psi_hat, modes.basis.u_minus):
        row += modes.amp_minus * u
    psi_hat[:, 1::2] *= -1
    # psi_hat /= s would run numpy's complex division, (a + b*0) * (1/s) per
    # part.  This real multiply by 1/s gives the same bits at a fraction of the
    # cost, except that a -0.0 part can keep the sign the division turns to
    # +0.0; the inverse transform passes such a sign on only to zero outputs.
    psi_hat.view(np.float64)[...] *= 1.0 / np.sqrt(grid.dx / grid.n_points)
    for row in psi_hat:
        np.fft.ifft(row, out=row)
    psi_hat.flags.writeable = False  # so the field adopts it without a copy
    return SpinorField(grid, psi_hat)


def mode_phases(omega: np.ndarray, t: float) -> np.ndarray:
    """exp(-i omega t) for omega in FFT order, evaluated for k >= 0 only.

    omega[j] and omega[N-j] are bitwise equal (k = 2 pi fftfreq negates
    exactly), so bins N/2+1..N-1 copy bins N/2-1..1; the Nyquist bin N/2 has
    no partner.  The result equals np.exp(-1j * omega * t) bit for bit.
    """
    half = np.exp(-1j * omega[: len(omega) // 2 + 1] * t)
    return np.concatenate((half, half[-2:0:-1]))


def evolve_modes(modes: ModeDecomposition, t: float) -> ModeDecomposition:
    """Advance mode amplitudes by phases exp(-i eps omega t)."""
    phase = mode_phases(modes.basis.omega, t)
    return ModeDecomposition(
        grid=modes.grid,
        amp_plus=modes.amp_plus * phase,
        amp_minus=modes.amp_minus * np.conj(phase),
        basis=modes.basis,
    )


def evolve(field: SpinorField, m: float, t: float) -> SpinorField:
    """Evolve a field exactly to time t (negative t runs backward)."""
    return reconstruct(evolve_modes(decompose(field, m), t))


def project_energy(field: SpinorField, m: float) -> SpinorField:
    """Keep only the positive-energy modes; idempotent."""
    modes = decompose(field, m)
    return reconstruct(ModeDecomposition(
        grid=modes.grid,
        amp_plus=modes.amp_plus,
        amp_minus=np.zeros_like(modes.amp_minus),
        basis=modes.basis,
    ))
