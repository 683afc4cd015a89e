"""Chirality decoherence of a 1+1 dimensional Dirac particle.

Evolves two-component spinor fields exactly in time, traces out position to
obtain the 2x2 chirality density matrix, and measures decoherence through its
von Neumann entropy.  Two evolution engines cross-validate each other: a
plane-wave spectral engine (exact in time) and a real-space propagator engine
built from Bessel-function kernels on the lightcone interior.
"""

from .bessel import j0, j1, j1_over_x
from .density import (
    EntropyTrace,
    ReducedDensityMatrix,
    decoherence_predicate,
    eigenvalues2,
    entropy_bits,
    reduce,
    reduce_from_modes,
)
from .experiments import (
    FIGURES,
    FigureDataset,
    ScenarioConfig,
    ScenarioResult,
    entropy_curve,
    local_max_locator,
    run_scenario,
)
from .grid import (
    Grid1D,
    InitialSpec,
    SpinorField,
    build_initial,
    chirality_distributions,
    make_gaussian_packet,
    make_plane_wave,
    norm,
    position_moments,
)
from .kernel_engine import BACKEND_NAME, evolve_step, evolve_to
from .spectral import (
    EnergyEigenbasis,
    ModeDecomposition,
    decompose,
    dispersion,
    eigenbasis,
    eigenspinor,
    evolve,
    project_energy,
    reconstruct,
)

__version__ = "0.1.0"
