"""Deterministic unit-direction sampling on the sphere S^{d-1}.

Symbol validation and the strict-dissipativity search both need worst-case
scans over unit directions.  The sets produced here are deterministic so
that repeated runs (and parallel reductions ordered by index) give
bit-identical reports.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def fibonacci_circle(count: int) -> np.ndarray:
    """Golden-angle points on the unit circle, shape (count, 2)."""
    i = np.arange(count)
    theta = 2.0 * np.pi * i / _GOLDEN
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def fibonacci_sphere(count: int) -> np.ndarray:
    """Fibonacci lattice on the unit 2-sphere, shape (count, 3)."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * np.pi * i / _GOLDEN
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def coordinate_axes(dim: int) -> np.ndarray:
    """The 2*dim signed coordinate directions."""
    eye = np.eye(dim)
    return np.concatenate([eye, -eye], axis=0)


def unit_directions(dim: int, count: int) -> np.ndarray:
    """Signed axes plus a deterministic quasi-uniform set of `count` points.

    dim >= 4 falls back to a fixed-seed counter-based Gaussian sample,
    normalized to the sphere; still fully deterministic.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if count < 1:
        raise ValueError("direction count must be positive")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        extra = fibonacci_circle(count)
    elif dim == 3:
        extra = fibonacci_sphere(count)
    else:
        rng = np.random.Generator(np.random.Philox(key=0))
        raw = rng.standard_normal((count, dim))
        extra = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return np.concatenate([coordinate_axes(dim), extra], axis=0)


def lattice_directions(lattice_array: np.ndarray) -> np.ndarray:
    """Distinct unit directions spanned by nonzero integer lattice modes, in lexicographic order.

    Collinear modes are deduplicated through their primitive integer vector,
    keeping the scan size independent of the truncation radius along rays.
    """
    modes = np.asarray(lattice_array, dtype=np.int64)
    modes = modes[modes.any(axis=1)]
    prims = np.unique(modes // np.gcd.reduce(np.abs(modes), axis=1, keepdims=True), axis=0).astype(float)
    units = prims / norms(prims)[:, None]
    return units[np.lexsort(units.T[::-1])]


def norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, one BLAS dot per vector: the bits
    of np.linalg.norm on each vector (its axis form sums in another order)."""
    return np.sqrt(np.matmul(vecs[..., None, :], vecs[..., :, None])[..., 0, 0])
