"""Reduced chirality density matrices and von Neumann entropy.

Tracing out position leaves a 2x2 Hermitian, unit-trace, positive-semidefinite
matrix over the chirality labels (-1, +1).  Entropy uses base-2 logarithms so
the maximally mixed two-state system scores exactly 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import SpinorField
from .spectral import ModeDecomposition, evolve_modes, mode_spectrum

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """2x2 chirality density matrix in the fixed (-1, +1) component order, with its
    spectrum `eigenvalues` (descending, unclamped) kept from the positivity check."""

    entries: np.ndarray = dc_field(repr=False)
    eigenvalues: tuple[float, float] = dc_field(init=False, repr=False)

    def __post_init__(self):
        rho = np.array(self.entries, dtype=np.complex128)
        if rho.shape != (2, 2):
            raise ValueError(f"entries must be 2x2, got shape {rho.shape}")
        # Four entries: Python scalars check them at a fraction of numpy's per-call cost.
        (a, b), (c, d) = rho.tolist()
        # NaN fails every comparison below, so it must be caught here.
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValueError("density matrix has non-finite entries")
        # |rho - rho^H| entrywise: the diagonal gives 2 |Im|, exactly.
        try:
            gap = max(2.0 * abs(a.imag), abs(b - c.conjugate()), 2.0 * abs(d.imag))
        except OverflowError:  # a magnitude past the largest float, where numpy gives inf
            gap = math.inf
        if gap > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = a + d
        if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1")
        hi, lo = _spectrum(a.real, b, d.real)
        if lo < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)
        object.__setattr__(self, "eigenvalues", (hi, lo))


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


def _spectrum(a: float, b: complex, d: float) -> tuple[float, float]:
    """Eigenvalues (descending) of [[a, b], [conj b, d]] in closed form.

    `** 2` is libm's pow, as numpy's scalar power is; x * x can differ in the last bit.
    """
    half_trace = (a + d) / 2.0
    try:
        radius = math.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    except OverflowError:  # where numpy's scalars give inf
        radius = math.inf
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
    """Momentum-space route: per-k outer products of the modes evolved to t.

    Cross-sign terms at the same momentum carry exp(-+2 i w t); they are the
    only time dependence, and vanish unless both energy signs are populated.
    """
    psi_hat = mode_spectrum(evolve_modes(modes, t))
    rho = np.einsum("an,bn->ab", psi_hat, psi_hat.conj())
    rho = (rho + rho.conj().T) / 2.0
    return ReducedDensityMatrix(rho)


def binary_entropy(p: float) -> float:
    """-sum q log2 q over q in (p, 1 - p), with p clamped to [0, 1] and 0 log 0 = 0."""
    p = min(max(p, 0.0), 1.0)
    s = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            s -= q * np.log2(q)
    return s


def entropy_bits(rho: ReducedDensityMatrix) -> float:
    """von Neumann entropy -Tr rho log2 rho of the clamped spectrum, with 0 log 0 = 0."""
    return binary_entropy(rho.eigenvalues[0])


def decoherence_predicate(modes: ModeDecomposition, tol: float) -> bool:
    """True iff some momentum carries both energy signs above tol."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    return bool(np.any((np.abs(modes.amp_plus) > tol) & (np.abs(modes.amp_minus) > tol)))
