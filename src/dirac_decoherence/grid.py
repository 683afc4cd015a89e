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

# _fft_rows transforms every row in one call up to this many points, one row per
# call past it; the two give the same bits.  Past 4096 points the faster form
# depends on the host: one 2-core x86-64 host measured per-row calls faster at
# 8192 and 16384 points, and the joint call in reconstruct raised a 16384-point
# trace's peak RSS by 0.5 MB.  Joint against per-row calls with out= on another
# (numpy 2.4, 2-core Xeon, 4 MiB L2 per core; median of 15 alternated rounds of
# the best of 3 x 40 calls, per-row winning 0-3 of them):
#
#     points  rows   forward          inverse
#     4096    2      63 vs 99 us      66 vs 122 us
#     4096    3      97 vs 136 us     104 vs 157 us
#     8192    2      143 vs 195 us    146 vs 213 us
#     8192    3      250 vs 307 us    254 vs 344 us
#     16384   2      310 vs 449 us    309 vs 495 us
#     16384   3      502 vs 636 us    545 vs 690 us
_JOINT_FFT_MAX_POINTS = 8192


def check_mass(m: float) -> None:
    """Reject a mass that is negative, infinite or NaN."""
    if not 0 <= m < np.inf:
        raise ValueError(f"mass must be nonnegative and finite, got {m}")


def _fft_rows(rows: np.ndarray, inverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.fft (ifft if inverse) of each row of a 2-D complex array, bit for bit.

    The result goes into out if given, which may be rows itself (in place), and
    into a fresh array if not; rows is written only when it is out.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    if rows.shape[1] <= _JOINT_FFT_MAX_POINTS:
        return transform(rows, axis=1, out=out)
    if out is None:
        out = np.empty(rows.shape, dtype=np.complex128)
    for row, dest in zip(rows, out):
        transform(row, out=dest)
    return out


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


@dataclass(frozen=True)
class SpinorField:
    """Two-component spinor on a grid; values[0] is chirality -1, values[1] is +1.

    values is read-only: a C-contiguous complex array that is read-only and
    owns its data is adopted as it is, and any other array (writeable, or a
    view of memory someone else owns) is copied.  So what is computed from
    values is cached for the life of the field and never goes stale: per
    (mass, coupling sign), the mode decomposition spectral.decompose returns
    (one extra (2, N) complex array of amplitudes each).
    """

    grid: Grid1D
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (2, self.grid.n_points):
            raise ValueError(
                f"values must have shape (2, {self.grid.n_points}), got {vals.shape}"
            )
        if vals.flags.writeable or not (vals.flags.owndata and vals.flags.c_contiguous):
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

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
    if total <= 0:
        raise ValueError("packet has no positive-energy content")
    return SpinorField(grid, projected.values / np.sqrt(total))


def chirality_distributions(field: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """Position distributions (|psi_-1|^2, |psi_+1|^2) per grid site."""
    return np.abs(field.minus) ** 2, np.abs(field.plus) ** 2
