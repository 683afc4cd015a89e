"""Periodic 1D grid, two-component spinor fields, and initial conditions.

The spatial domain is [-L, L) sampled at N uniform points.  A spinor field
stores the two chirality components as rows of a (2, N) complex array, with
row 0 holding chirality -1 and row 1 holding chirality +1.  This ordering is
fixed everywhere in the package.

Units are natural (hbar = c = 1): lengths, times and inverse masses share one
scale, and field values carry units of length^(-1/2) so that the probability
integral is dimensionless.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field, fields
from functools import cached_property

import numpy as np

# Row indices of the chirality components in SpinorField.values.
CHIRALITY_MINUS = 0
CHIRALITY_PLUS = 1

# Resolution guards for Gaussian packets.
MIN_SIGMA_OVER_DX = 3.0
MIN_L_OVER_SIGMA = 6.0


def check_mass(m: float) -> None:
    """Reject a mass that is negative, infinite or NaN, or for which 2 m^2 is
    not finite (from about 9.48e153): both engines need m^2, and the spectral
    engine's eigenvectors sum m^2 + (k + omega)^2, about 2 m^2."""
    if not 0 <= m < np.inf:
        raise ValueError(f"mass must be nonnegative and finite, got {m}")
    if not 2.0 * float(m) * float(m) < np.inf:  # Python floats: overflow gives inf, no warning
        raise ValueError(f"mass = {m} is too large: twice its square overflows float64 "
                         f"(the largest mass is about 9.48e153)")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with N points, x_i = -L + i*dx."""

    half_extent: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.half_extent < np.inf:
            raise ValueError(f"half_extent must be positive and finite, got {self.half_extent}")
        try:
            operator.index(self.n_points)
        except TypeError:
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}") from None
        if self.n_points < 2 or self.n_points % 2 != 0:
            raise ValueError(
                f"n_points must be an even integer >= 2 (the transform pairs "
                f"+k/-k modes), got {self.n_points}"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.n_points

    @property
    def x(self) -> np.ndarray:
        return -self.half_extent + self.dx * np.arange(self.n_points)

    @property
    def k(self) -> np.ndarray:
        """Discrete momenta k_j = pi*j/L in FFT order (Nyquist mode negative)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


def _adopted(array, grid: Grid1D, name: str) -> np.ndarray:
    """array as a read-only (2, N) complex array: adopted as it is if it is
    C-contiguous, read-only and owns its data, copied otherwise."""
    vals = np.asarray(array, dtype=np.complex128)
    if vals.shape != (2, grid.n_points):
        raise ValueError(f"{name} must have shape (2, {grid.n_points}), got {vals.shape}")
    if vals.flags.writeable or not (vals.flags.owndata and vals.flags.c_contiguous):
        vals = vals.copy()
        vals.flags.writeable = False
    return vals


@dataclass(frozen=True)
class SpinorField:
    """Two-component spinor on a grid; values[0] is chirality -1, values[1] is +1.

    A field is made from its values, SpinorField(grid, values), or from their
    spectrum, SpinorField.from_spectrum(grid, spectrum), np.fft.fft(values)
    along the rows.  It computes the other, with one numpy call, the first
    time it is read and keeps it, so a kernel walk, which steps spectra, inverts
    only the fields whose values are read.

    Both are read-only: a C-contiguous complex array that is read-only and
    owns its data is adopted as it is, and any other array (writeable, or a
    view of memory someone else owns) is copied.  So what is computed from
    them is cached for the life of the field and never goes stale: per
    (mass, coupling sign), the mode decomposition spectral.decompose returns
    (one extra (2, N) complex array of amplitudes each).
    """

    grid: Grid1D
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _adopted(self.values, self.grid, "values"))

    @classmethod
    def from_spectrum(cls, grid: Grid1D, spectrum: np.ndarray) -> SpinorField:
        """The field whose spectrum, np.fft.fft(values), is spectrum; its values
        are computed when first read."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "spectrum", _adopted(spectrum, grid, "spectrum"))
        return field

    def __getattr__(self, name):
        # Reached only for an attribute not yet set: values, in a field made
        # from its spectrum, is computed on its first read.
        if name != "values" or "spectrum" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = np.fft.ifft(self.spectrum)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        return values

    @cached_property
    def spectrum(self) -> np.ndarray:
        """np.fft.fft(values), read-only: numpy's unscaled transform of each row."""
        spectrum = np.fft.fft(self.values)
        spectrum.flags.writeable = False
        return spectrum

    @cached_property
    def _decompositions(self) -> dict:
        """spectral.decompose's results for this field, keyed by (mass, coupling sign)."""
        return {}

    @property
    def minus(self) -> np.ndarray:
        return self.values[CHIRALITY_MINUS]

    @property
    def plus(self) -> np.ndarray:
        return self.values[CHIRALITY_PLUS]


# The fields each initial condition kind reads besides kind and mass.
KIND_FIELDS = {
    "gaussian_packet": ("center", "width", "spinor"),
    "plane_wave": ("mode_index", "energy_sign"),
    "positive_energy_packet": ("center", "width", "spinor"),
}


@dataclass(frozen=True)
class InitialSpec:
    """Declarative description of an initial state.

    kind is a key of KIND_FIELDS, which names the fields it reads; any other
    field must keep its default.  mass is carried here because plane waves and
    energy-projected packets depend on it.
    """

    kind: str
    mass: float = 0.0
    center: float = 0.0
    width: float = 1.0
    spinor: tuple[complex, complex] = (1.0, 1.0)
    mode_index: int = 0
    energy_sign: int = 1

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("kind", "mass", *KIND_FIELDS[self.kind]) and value != f.default:
                raise ValueError(f"{self.kind} does not use {f.name}, got {f.name} = {value!r}")
        for name in ("mass", "center", "width", "spinor"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {name} = {value!r}")
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.spinor[0] == 0 and self.spinor[1] == 0:
            raise ValueError("spinor must be nonzero")
        if self.energy_sign not in (-1, 1):
            raise ValueError(f"energy_sign must be +1 or -1, got {self.energy_sign}")
        check_mass(self.mass)


def norm(field: SpinorField) -> float:
    """Total probability: trapezoidal integral of psi^dagger psi over the grid.

    On a uniform periodic grid the trapezoidal rule reduces to dx times the
    plain sum over sites.
    """
    return float(np.sum(np.abs(field.values) ** 2) * field.grid.dx)


def make_gaussian_packet(
    grid: Grid1D, center: float, width: float, spinor: tuple[complex, complex]
) -> SpinorField:
    """Normalized Gaussian packet exp(-(x-center)^2/(2 width^2)) times a spinor.

    Rejects configurations the grid cannot resolve: the packet must span at
    least a few grid cells and decay well before the periodic boundary, counted
    from its center.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    square = float(width) * float(width)  # Python floats: overflow gives inf, no warning
    if not 0 < square < np.inf:  # the envelope divides by 2 width^2
        raise ValueError(f"width = {width} is out of range: its square, {square}, is not "
                         f"positive and finite in float64")
    if spinor[0] == 0 and spinor[1] == 0:
        raise ValueError("spinor must be nonzero")
    if width < MIN_SIGMA_OVER_DX * grid.dx:
        raise ValueError(
            f"width/dx = {width / grid.dx:.3g} but at least {MIN_SIGMA_OVER_DX} "
            f"grid cells per sigma are required to resolve the packet"
        )
    if grid.half_extent - abs(center) < MIN_L_OVER_SIGMA * width:
        raise ValueError(
            f"(L - |center|)/sigma = {(grid.half_extent - abs(center)) / width:.3g} but at "
            f"least {MIN_L_OVER_SIGMA} is required to keep periodic wraparound negligible"
        )
    with np.errstate(over="ignore"):  # past |x| ~ 1.34e154 the square is inf, and exp(-inf) = 0
        envelope = np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
    # Scale the spinor by a power of two, which is exact, so that its largest part
    # lies in [0.5, 1): the squares summed below then neither overflow nor underflow.
    parts = np.asarray(spinor, dtype=np.complex128).view(np.float64)
    s = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(np.complex128)
    values = s[:, None] * envelope[None, :]
    total = np.sum(np.abs(values) ** 2) * grid.dx
    values /= np.sqrt(total)
    return SpinorField(grid, values)


def make_plane_wave(grid: Grid1D, mode_index: int, energy_sign: int, mass: float) -> SpinorField:
    """Box-normalized stationary state e^(ikx) u(k, eps) / sqrt(2L)."""
    # Imported here to avoid a cycle: spectral builds SpinorFields too.
    from .spectral import eigenspinor

    try:
        mode_index = operator.index(mode_index)
    except TypeError:
        raise ValueError(f"mode_index must be an integer, got {mode_index!r}") from None
    n = grid.n_points
    if not (-n // 2 <= mode_index < n // 2):
        raise ValueError(
            f"mode_index {mode_index} outside the grid's momentum range "
            f"[{-n // 2}, {n // 2})"
        )
    k = np.pi * mode_index / grid.half_extent
    u = eigenspinor(k, energy_sign, mass)
    phase = np.exp(1j * k * grid.x) / np.sqrt(2.0 * grid.half_extent)
    return SpinorField(grid, u[:, None] * phase[None, :])


def build_initial(spec: InitialSpec, grid: Grid1D) -> SpinorField:
    """Construct the SpinorField described by an InitialSpec."""
    if spec.kind == "gaussian_packet":
        return make_gaussian_packet(grid, spec.center, spec.width, spec.spinor)
    if spec.kind == "plane_wave":
        return make_plane_wave(grid, spec.mode_index, spec.energy_sign, spec.mass)
    # positive_energy_packet: Gaussian with the negative-energy modes removed,
    # renormalized to unit probability.
    from .spectral import project_energy

    packet = make_gaussian_packet(grid, spec.center, spec.width, spec.spinor)
    projected = project_energy(packet, spec.mass)
    total = norm(projected)
    if not 0 < total < np.inf:  # NaN too
        raise ValueError("packet has no positive-energy content")
    values = projected.values / np.sqrt(total)
    values.flags.writeable = False  # so the field adopts it without a copy
    return SpinorField(grid, values)


def chirality_distributions(field: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """Position distributions (|psi_-1|^2, |psi_+1|^2) per grid site."""
    return np.abs(field.minus) ** 2, np.abs(field.plus) ** 2
