import numpy as np
import pytest
from hypothesis import strategies as st

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


#: Finite doubles, with the edges a text round trip can lose: signed zeros,
#: subnormals, the smallest normal, 1.7e308 and the largest double.
EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1.7e308, 1.7976931348623157e308]
finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGES + [-v for v in EDGES]),
)


@st.composite
def complex_matrices(draw):
    """Finite complex matrices of 1..4 rows and columns, edges included."""
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    parts = draw(st.lists(finite_doubles, min_size=2 * rows * cols,
                          max_size=2 * rows * cols))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)


def benchmark_case(workload, seed, index):
    """Input ``index`` of a ``perfbench`` workload's pool at run seed ``seed``."""
    import importlib
    import sys
    from pathlib import Path

    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    spec = workloads.WORKLOADS[workload]
    return spec.generate(workloads.case_rng(seed, workload), index + 1)[index]
