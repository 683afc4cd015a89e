"""Chirality decoherence of a 1+1 dimensional Dirac particle.

Evolves two-component spinor fields exactly in time, traces out position to
obtain the 2x2 chirality density matrix, and measures decoherence through its
von Neumann entropy.  Two evolution engines cross-validate each other: a
plane-wave spectral engine (exact in time) and a real-space propagator engine
built from Bessel-function kernels on the lightcone interior.

The top level holds the names the README documents; every other name is
imported from its module, e.g. dirac_decoherence.spectral.decompose.
"""

from .density import entropy_bits, reduce
from .experiments import FIGURES, ScenarioConfig, run_scenario
from .grid import Grid1D, InitialSpec, make_gaussian_packet
from .kernel_engine import BACKEND_NAME
from .spectral import evolve

__version__ = "0.1.0"
