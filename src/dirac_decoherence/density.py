"""Reduced chirality density matrices and von Neumann entropy.

Tracing out position leaves a 2x2 Hermitian, unit-trace, positive-semidefinite
matrix over the chirality labels (-1, +1).  Entropy uses base-2 logarithms so
the maximally mixed two-state system scores exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import SpinorField
from .spectral import ModeDecomposition, mode_phases

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """2x2 chirality density matrix in the fixed (-1, +1) component order."""

    entries: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=np.complex128)
        if rho.shape != (2, 2):
            raise ValueError(f"entries must be 2x2, got shape {rho.shape}")
        # NaN fails every comparison below, so it must be caught here.
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix has non-finite entries")
        if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(rho.trace().real - 1.0) > TRACE_TOL or abs(rho.trace().imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace {rho.trace()} is not 1")
        lo = min(eigenvalues_raw(rho))
        if lo < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)

    @property
    def off_diagonal(self) -> complex:
        return complex(self.entries[0, 1])


@dataclass(frozen=True)
class EntropyTrace:
    """Time series of entropy and density-matrix entries."""

    times: np.ndarray = dc_field(repr=False)
    entropy: np.ndarray = dc_field(repr=False)
    rho00: np.ndarray = dc_field(repr=False)
    rho01: np.ndarray = dc_field(repr=False)
    rho11: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        n = len(self.times)
        for name in ("entropy", "rho00", "rho01", "rho11"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match times")
        if np.any(self.entropy < -1e-12) or np.any(self.entropy > 1.0 + 1e-12):
            raise ValueError("entropy samples outside [0, 1]")


def eigenvalues_raw(rho: np.ndarray) -> tuple[float, float]:
    """Closed-form spectrum of a 2x2 Hermitian matrix, no clamping."""
    half_trace = (rho[0, 0].real + rho[1, 1].real) / 2.0
    radius = np.sqrt(
        ((rho[0, 0].real - rho[1, 1].real) / 2.0) ** 2 + abs(rho[0, 1]) ** 2
    )
    return half_trace + radius, half_trace - radius


def reduce(field: SpinorField) -> ReducedDensityMatrix:
    """Integrate psi_a(x) conj(psi_a'(x)) over position (trapezoidal sum)."""
    rho = np.einsum("an,bn->ab", field.values, field.values.conj()) * field.grid.dx
    # The norm is the trace: sum over sites and components of |psi|^2 dx.
    total = float(rho.trace().real)
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"field norm {total} is not 1 within {TRACE_TOL}")
    # The einsum is Hermitian up to roundoff; symmetrize before validation.
    rho = (rho + rho.conj().T) / 2.0
    return ReducedDensityMatrix(rho)


def reduce_from_modes(modes: ModeDecomposition, t: float) -> ReducedDensityMatrix:
    """Momentum-space route: per-k outer products with phases exp(-i eps w t).

    Cross-sign terms at the same momentum carry exp(-+2 i w t); they are the
    only time dependence, and vanish unless both energy signs are populated.
    """
    phase = mode_phases(modes.basis.omega, t)
    psi_hat = (
        modes.amp_plus * phase * modes.basis.u_plus
        + modes.amp_minus * np.conj(phase) * modes.basis.u_minus
    )
    rho = np.einsum("an,bn->ab", psi_hat, psi_hat.conj())
    rho = (rho + rho.conj().T) / 2.0
    return ReducedDensityMatrix(rho)


def eigenvalues2(rho: ReducedDensityMatrix) -> tuple[float, float]:
    """Spectrum (descending), clamped to [0, 1] and renormalized to sum 1."""
    hi, lo = eigenvalues_raw(rho.entries)
    hi = min(max(hi, 0.0), 1.0)
    return hi, 1.0 - hi


def entropy_bits(rho: ReducedDensityMatrix) -> float:
    """von Neumann entropy -Tr rho log2 rho, with 0 log 0 = 0."""
    s = 0.0
    for lam in eigenvalues2(rho):
        if lam > 0.0:
            s -= lam * np.log2(lam)
    return s


def decoherence_predicate(modes: ModeDecomposition, tol: float) -> bool:
    """True iff some momentum carries both energy signs above tol."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    return bool(np.any((np.abs(modes.amp_plus) > tol) & (np.abs(modes.amp_minus) > tol)))
