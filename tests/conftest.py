import numpy as np
import pytest

from posmap.matkernel import partial_transpose
from posmap.rand import random_psd, random_unit_vector, rng_for


@pytest.fixture
def rng(request):
    """Per-test deterministic generator keyed by the test's own name."""
    return rng_for(0, request.node.name)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def product_violation(rng, d):
    """Decomposable A + PT(B) minus a product term that makes it non-positive.

    With v = x (x) e, subtracting more than <v, H v> times v v* leaves
    <v, H v> < 0, so the map is not positive (hence not decomposable).
    """
    H = random_psd(2 * d, rng) + partial_transpose(random_psd(2 * d, rng), d)
    v = np.kron(random_unit_vector(2, rng), random_unit_vector(d, rng))
    s = float(np.vdot(v, H @ v).real) + np.trace(H).real / (2 * d)
    return H - s * np.outer(v, v.conj())
