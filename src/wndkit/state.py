"""Truncated Fourier coefficient fields and the entropy inner product.

A state stores one complex N-vector per lattice mode.  Real physical fields
satisfy the reality symmetry  w(-xi) = conj(w(xi)), which every operator in
the package preserves exactly (all symbol tensors are real).

The inner product is the Plancherel form weighted by the entropy Hessian g,

    (w1 | w2) = sum_xi  w1(xi)^H g w2(xi),

with the torus volume factor absorbed so that a constant field c has squared
norm c^T g c.  Sobolev norms weight each mode by (1 + |xi|^2)^s applied to
the squared coefficient magnitude, so s = 0 recovers the plain norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .spectral import FrequencyLattice, Spectrum
from .system import SystemSpec

__all__ = [
    "SpectralState",
    "zero_state",
    "state_from_modes",
    "random_real_state",
    "enforce_reality",
    "reality_defect",
    "is_reality_symmetric",
    "inner_product",
    "energy_norm",
    "gradient_norm",
    "sobolev_norm",
    "evolve_state",
]


@dataclass(eq=False)
class SpectralState:
    """Coefficient field on a fixed lattice; `coeffs` has shape (nmodes, ncomp)."""

    lattice: FrequencyLattice
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape[0] != len(self.lattice) or arr.ndim != 2:
            raise ValueError(f"coeffs shape {arr.shape} does not match lattice of size {len(self.lattice)}")
        self.coeffs = arr

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[1]

    def coeff(self, mode) -> np.ndarray:
        return self.coeffs[self.lattice.index(mode)]

    def copy(self, time: float | None = None) -> "SpectralState":
        return SpectralState(self.lattice, self.coeffs.copy(), self.time if time is None else time)


def zero_state(lattice: FrequencyLattice, ncomp: int, time: float = 0.0) -> SpectralState:
    return SpectralState(lattice, np.zeros((len(lattice), ncomp), dtype=complex), time)


def state_from_modes(
    lattice: FrequencyLattice, ncomp: int, entries: Iterable[tuple]
) -> SpectralState:
    """Build a real field from (mode, coefficient) pairs; conjugates are mirrored.

    The zero mode is its own mirror, so its coefficient must be real
    (ValueError otherwise).
    """
    out = zero_state(lattice, ncomp)
    for mode, coeff in entries:
        idx = lattice.index(mode)
        vec = np.asarray(coeff, dtype=complex)
        nidx = int(lattice.negation[idx])
        if nidx == idx:
            if vec.imag.any():
                raise ValueError(f"mode {list(lattice.modes[idx])} is its own mirror, so its coefficient must be real")
            out.coeffs[idx] += vec.real
        else:
            out.coeffs[idx] += vec
            out.coeffs[nidx] += vec.conj()
    return out


def enforce_reality(state: SpectralState) -> SpectralState:
    """Project onto the reality-symmetric part, w(-xi) = conj(w(xi))."""
    neg = state.lattice.negation
    state.coeffs = 0.5 * (state.coeffs + state.coeffs[neg].conj())
    return state


def reality_defect(state: SpectralState) -> float:
    neg = state.lattice.negation
    return float(np.abs(state.coeffs - state.coeffs[neg].conj()).max())


def is_reality_symmetric(state: SpectralState) -> bool:
    neg = state.lattice.negation
    return bool(np.array_equal(state.coeffs, state.coeffs[neg].conj()))


def random_real_state(
    lattice: FrequencyLattice,
    ncomp: int,
    seed: int = 0,
    decay: float = 2.0,
    amplitude: float = 1.0,
    zero_mean: bool = True,
) -> SpectralState:
    """Reality-symmetric random field from a counter-based generator.

    Coefficient magnitudes scale like (1 + |xi|^2)^(-decay/2); the seed fully
    determines the field, independent of any global RNG state.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = len(lattice)
    raw = rng.standard_normal((m, ncomp)) + 1j * rng.standard_normal((m, ncomp))
    weights = amplitude * (1.0 + (lattice.array.astype(float) ** 2).sum(axis=1)) ** (-decay / 2.0)
    state = SpectralState(lattice, raw * weights[:, None])
    enforce_reality(state)
    zero = lattice.zero_index()
    if zero_mean:
        state.coeffs[zero] = 0.0
    else:
        state.coeffs[zero] = state.coeffs[zero].real
    return state


def inner_product(spec: SystemSpec, w1: SpectralState, w2: SpectralState) -> complex:
    """Entropy-weighted Plancherel pairing; real for reality-symmetric fields."""
    if w1.lattice != w2.lattice:
        raise ValueError("states live on different lattices")
    return complex(np.einsum("mp,pq,mq->", w1.coeffs.conj(), spec.entropy_hessian, w2.coeffs))


def _weighted_sq(spec: SystemSpec, state: SpectralState) -> np.ndarray:
    """Per-mode squared g-magnitudes |w(xi)|_g^2, shape (nmodes,)."""
    return np.einsum("mp,pq,mq->m", state.coeffs.conj(), spec.entropy_hessian, state.coeffs).real


def energy_norm(spec: SystemSpec, state: SpectralState) -> float:
    return float(np.sqrt(max(_weighted_sq(spec, state).sum(), 0.0)))


def gradient_norm(spec: SystemSpec, state: SpectralState) -> float:
    sq = (state.lattice.array.astype(float) ** 2).sum(axis=1)
    return float(np.sqrt(max((sq * _weighted_sq(spec, state)).sum(), 0.0)))


def sobolev_norm(spec: SystemSpec, state: SpectralState, s: float) -> float:
    sq = (state.lattice.array.astype(float) ** 2).sum(axis=1)
    return float(np.sqrt(max(((1.0 + sq) ** s * _weighted_sq(spec, state)).sum(), 0.0)))


def evolve_state(spectrum: Spectrum, t: float, state: SpectralState) -> SpectralState:
    """Apply the unitary group mode-wise: w(xi) <- sum_j e^{-i omega_j t} p_j w(xi)."""
    if state.lattice != spectrum.lattice:
        raise ValueError("spectrum and state live on different lattices")
    phases = np.exp(-1j * spectrum.frequencies * t)
    coeffs = np.einsum("mj,mjpq,mq->mp", phases, spectrum.projectors, state.coeffs)
    return SpectralState(state.lattice, coeffs, state.time)
