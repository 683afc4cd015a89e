import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis imports this module to report a failing @given test.  Where its
# libcst import warns of a deprecated mypy_extensions.TypedDict, `-W error`
# turns that report into an internal error that ends the run; imported here
# once, with the warning ignored, it cannot.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from dirac_decoherence.grid import Grid1D, make_gaussian_packet


@pytest.fixture(scope="session")
def grid():
    return Grid1D(20.0, 1024)


@pytest.fixture(scope="session")
def equal_packet(grid):
    """Unit-width Gaussian in an equal chirality superposition at the origin."""
    return make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0))


class TransformCounts(dict):
    """np.fft.fft and np.fft.ifft calls ("fft", "ifft") and the rows they
    transformed ("fft_rows", "ifft_rows"): a call on an array of shape
    (..., N) transforms its size // N rows."""

    def zero(self):
        self.update(dict.fromkeys(self, 0))


@pytest.fixture
def fft_calls(monkeypatch):
    """TransformCounts of the calls made since the fixture was set up or last zeroed."""
    counts = TransformCounts(fft=0, ifft=0, fft_rows=0, ifft_rows=0)

    def counting(name, transform):
        def counted(a, *args, **kwargs):
            counts[name] += 1
            counts[f"{name}_rows"] += a.size // a.shape[-1]
            return transform(a, *args, **kwargs)
        return counted

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return counts
