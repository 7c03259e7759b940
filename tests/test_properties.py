"""Metamorphic properties of the positivity and decomposability verdicts.

Swapping the domain basis (H -> (sigma_x (x) I) H (sigma_x (x) I)) and
changing the codomain basis (H -> (I (x) U)* H (I (x) U)) both map PSD to PSD
and PT-PSD to PT-PSD, so they preserve complete (co)positivity,
decomposability and PPT witnesses.  Both send product vectors to product
vectors, so they preserve positivity too.  The verdicts on an input and on
its two images must therefore agree, and every decomposability verdict must
carry evidence that re-checks from scratch.  Multiplying H by a positive
scale preserves all of these cones too, so it must not change the
decomposability verdict either.

``classify``'s flags must agree with each other, because one tolerance
decides every nonnegativity verdict: a CP or coCP map is decomposable, a
decomposable map is proved positive, and a positivity violation rules a
split out.  The inputs that test this sit at the boundaries, where a
looser split tolerance once let ``decomposable: yes`` stand beside
``positive: violation_found``.

Matrices also travel as JSON: one written by the package's writer and read
back with ``load_matrix`` must come back bit for bit.
"""

from functools import cache

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from posmap.choi import ChoiMatrix
from posmap.cli import build_classification
from posmap.cpdecomp import (
    DecompositionCertificate,
    decompose,
    validate_certificate,
    witness_search,
)
from posmap.io import load_matrix, matrix_from_obj, matrix_to_obj, write_json
from posmap.matkernel import PSD_TOL, partial_transpose, psd_check
from posmap.positivity import (
    CERTIFIED,
    PROVED,
    VIOLATION_FOUND,
    block_positive_choi,
)
from posmap.rand import random_psd, random_unitary
from posmap.tang import TangParams, build_pipeline
from conftest import complex_matrices, product_violation

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=4)


def images(H, d, rng):
    """The input, its domain-swap image and a codomain-unitary image."""
    swap = np.kron(SIGMA_X, np.eye(d))
    K = np.kron(np.eye(2), random_unitary(d, rng))
    return [H, swap @ H @ swap, K.conj().T @ H @ K]


def verdict(H, d):
    """'yes', 'no-witness' or 'unknown', after re-checking the evidence."""
    choi = ChoiMatrix.from_array(H)
    dec = decompose(choi)
    wit = witness_search(choi)
    assert not (dec.decomposed and wit.found)
    if dec.decomposed:
        validate_certificate(choi, dec.certificate)
        return "yes"
    if wit.found:
        rho = wit.witness.rho
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(rho)[0] >= -1e-8
        assert np.linalg.eigvalsh(partial_transpose(rho, d))[0] >= -1e-8
        # Tr(H rho) scales with H; below ||H||_F = 1 so does its threshold.
        assert np.trace(H @ rho).real < -1e-6 * min(1.0, np.linalg.norm(H))
        return "no-witness"
    return "unknown"


@settings(max_examples=25, deadline=None)
@given(seed=seeds, d=dims)
def test_decomposable_verdicts_invariant(seed, d):
    rng = np.random.default_rng(seed)
    H = random_psd(2 * d, rng) + partial_transpose(random_psd(2 * d, rng), d)
    assert [verdict(M, d) for M in images(H, d, rng)] == ["yes"] * 3


@settings(max_examples=25, deadline=None)
@given(seed=seeds, d=dims)
def test_product_violation_verdicts_invariant(seed, d):
    rng = np.random.default_rng(seed)
    H = product_violation(rng, d)
    assert [verdict(M, d) for M in images(H, d, rng)] == ["no-witness"] * 3


def positivity_flags(H, d):
    """Positivity status, CP flag and coCP flag, as ``classify`` reports them."""
    status = block_positive_choi(ChoiMatrix.from_array(H)).status
    return status, psd_check(H).is_psd, psd_check(partial_transpose(H, d)).is_psd


@settings(max_examples=25, deadline=None)
@given(seed=seeds, d=dims)
def test_decomposable_positivity_flags_invariant(seed, d):
    rng = np.random.default_rng(seed)
    H = random_psd(2 * d, rng) + partial_transpose(random_psd(2 * d, rng), d)
    flags = [positivity_flags(M, d) for M in images(H, d, rng)]
    assert flags[0][0] == CERTIFIED
    assert flags == [flags[0]] * 3


@settings(max_examples=25, deadline=None)
@given(seed=seeds, d=dims)
def test_product_violation_positivity_flags_invariant(seed, d):
    rng = np.random.default_rng(seed)
    H = product_violation(rng, d)
    flags = [positivity_flags(M, d) for M in images(H, d, rng)]
    assert flags[0][0] == VIOLATION_FOUND
    assert flags == [flags[0]] * 3


@cache
def tang_maps():
    """Raw and normalized Tang (0.9, 0.12), both nondecomposable."""
    pipe = build_pipeline(TangParams(0.9, 0.12))
    return pipe.H0.H, pipe.Hfinal.H


def scaling_input(family, seed, d):
    """``(H, d)`` from one input family; the Tang maps ignore ``seed`` and ``d``."""
    rng = np.random.default_rng(seed)
    if family == "decomposable":
        return random_psd(2 * d, rng) + partial_transpose(random_psd(2 * d, rng), d), d
    if family == "product violation":
        return product_violation(rng, d), d
    H = tang_maps()[family == "tang normalized"]
    return H, H.shape[0] // 2


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(
        ["decomposable", "product violation", "tang raw", "tang normalized"]
    ),
    seed=seeds,
    d=dims,
    exponent=st.floats(min_value=-10.0, max_value=0.0),
)
def test_decomposability_verdict_invariant_under_scaling(family, seed, d, exponent):
    H, d = scaling_input(family, seed, d)
    assert verdict(10.0**exponent * H, d) == verdict(H, d)


def boundary_map(family, rng, d, shift):
    """A unit-norm map of one family moved ``shift`` past its cone's boundary.

    ``H - (low + shift) I``, where ``low`` is ``lambda_min(H)`` for a PSD
    map, ``lambda_min(PT(H))`` for a PT-PSD map (``PT(I) = I``) and the
    positivity engine's margin for ``A + PT(B)``.
    """
    if family == "psd":
        H = random_psd(2 * d, rng)
    elif family == "pt-psd":
        H = partial_transpose(random_psd(2 * d, rng), d)
    else:
        H = random_psd(2 * d, rng) + partial_transpose(random_psd(2 * d, rng), d)
    H = H / np.linalg.norm(H)
    if family == "psd":
        low = np.linalg.eigvalsh(H)[0]
    elif family == "pt-psd":
        low = np.linalg.eigvalsh(partial_transpose(H, d))[0]
    else:
        low = block_positive_choi(ChoiMatrix.from_array(H)).margin
    return H - (low + shift) * np.eye(2 * d)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["psd", "pt-psd", "A + PT(B)"]),
    seed=seeds,
    d=dims,
    shift=st.sampled_from([-5e-10, 0.0, 5e-10, 9e-10, 3e-9, 3e-8]),
)
def test_classify_flags_consistent(family, seed, d, shift):
    H = boundary_map(family, np.random.default_rng(seed), d, shift)
    choi = ChoiMatrix.from_array(H)
    report = build_classification(choi)
    flags = report["flags"]
    status = flags["positive"]["status"]
    if flags["cp"] or flags["ccp"]:
        assert flags["decomposable"] == "yes"
    if flags["decomposable"] == "yes":
        assert status == PROVED
        cert = report["decomposition"]["certificate"]
        assert flags["positive"]["lower_bound"] >= -PSD_TOL
        # The report's split, read back from its wire form, passes the same
        # test that accepted it.
        parts = [matrix_from_obj(cert[k]) for k in ("H1", "H2")]
        numbers = [cert[k] for k in ("residual", "min_eig_H1", "min_eig_H2_pt")]
        validate_certificate(choi, DecompositionCertificate(*parts, *numbers))
    if status == VIOLATION_FOUND:
        assert flags["decomposable"] != "yes"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(M=complex_matrices())
def test_wire_round_trip_bit_faithful(M, tmp_path):
    obj = matrix_to_obj(M)
    oracle = [[float(v.real), float(v.imag)] for v in M.reshape(-1)]
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(obj["data"]) == repr(oracle)
    path = tmp_path / "m.json"
    write_json(obj, path)
    back = load_matrix(path)
    assert back.shape == M.shape
    assert np.array_equal(back.view(np.float64), M.view(np.float64))
    assert np.array_equal(np.signbit(back.view(np.float64)),
                          np.signbit(M.view(np.float64)))
