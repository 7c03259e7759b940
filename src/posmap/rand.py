"""Seeded random generators for matrices used in searches and tests."""

from __future__ import annotations

import zlib

import numpy as np


def rng_for(seed: int, stage: str) -> np.random.Generator:
    """Generator derived from (seed, stage name), independent per stage."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(stage.encode())])


def random_complex(shape, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Wishart-style PSD matrix ``G G*`` with optional rank restriction."""
    k = n if rank is None else int(rank)
    G = random_complex((n, k), rng)
    W = G @ G.conj().T
    return (W + W.conj().T) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a Ginibre matrix."""
    G = random_complex((n, n), rng)
    Q, R = np.linalg.qr(G)
    # Fix the phase ambiguity so the distribution does not depend on QR details.
    phases = np.diagonal(R).copy()
    phases = phases / np.abs(phases)
    return Q * phases.conj()


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = random_complex((n,), rng)
    return v / np.linalg.norm(v)
