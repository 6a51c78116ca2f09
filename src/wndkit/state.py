"""Truncated Fourier coefficient fields and the entropy inner product.

A state is a field, (lattice, coeffs): one complex N-vector per lattice mode
and no time, as the operators acting on it are time-independent; a run's
times are `simulate`'s DiagnosticsSeries.times.  Real physical fields
satisfy the reality symmetry  w(-xi) = conj(w(xi)), which every per-mode
operator keeps bit for bit (each is completed from the positive half by the
mirror); the solver and `qbar` take them through one gate, `require_reality`.

The inner product is the Plancherel form weighted by the entropy Hessian g,

    (w1 | w2) = sum_xi  w1(xi)^H g w2(xi),

with the torus volume factor absorbed so that a constant field c has squared
norm c^T g c.  It and the norms refuse a state without the spec's components
(`require_fit`).  Sobolev norms weight each mode by (1 + |xi|^2)^s applied to
the squared coefficient magnitude, so s = 0 recovers the plain norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .spectral import FrequencyLattice, Spectrum
from .system import SystemSpec

REALITY_TOL = 1e-12  # the largest mirror defect max|w - mirror(w)| / max|w| that is roundoff

__all__ = [
    "SpectralState",
    "zero_state",
    "state_from_modes",
    "random_real_state",
    "enforce_reality",
    "is_reality_symmetric",
    "require_reality",
    "require_fit",
    "inner_product",
    "energy_norm",
    "sobolev_norm",
    "evolve_state",
]


@dataclass(eq=False)
class SpectralState:
    """Coefficient field on a fixed lattice; `coeffs` has shape (nmodes, ncomp)."""

    lattice: FrequencyLattice
    coeffs: np.ndarray

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

    def copy(self) -> "SpectralState":
        return SpectralState(self.lattice, self.coeffs.copy())


def zero_state(lattice: FrequencyLattice, ncomp: int) -> SpectralState:
    return SpectralState(lattice, np.zeros((len(lattice), ncomp), dtype=complex))


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
    state.coeffs = 0.5 * (state.coeffs + state.lattice.mirror(state.coeffs))
    return state


def is_reality_symmetric(state: SpectralState) -> bool:
    return bool(np.array_equal(state.coeffs, state.lattice.mirror(state.coeffs)))


def require_reality(state: SpectralState) -> SpectralState:
    """The state if reality-symmetric bit for bit; `enforce_reality` of a copy if its mirror
    defect max|w - mirror(w)| is at most REALITY_TOL * max|w|; ValueError otherwise.

    A NaN defect, from a field that overflowed, is not refused.
    """
    if is_reality_symmetric(state):
        return state
    defect = float(np.abs(state.coeffs - state.lattice.mirror(state.coeffs)).max() / np.abs(state.coeffs).max())
    if defect > REALITY_TOL:
        raise ValueError(f"state is not real: its relative mirror defect {defect:.3e} exceeds {REALITY_TOL:g}")
    return enforce_reality(state.copy())


def require_fit(state: SpectralState, lattice: FrequencyLattice, ncomp: int, what: str) -> None:
    """ValueError, naming `what` the state must fit, unless it has `ncomp` components on `lattice`."""
    if state.lattice != lattice or state.ncomp != ncomp:
        raise ValueError(f"a state of {state.ncomp} components on {state.lattice} does not fit "
                         f"{what} of {ncomp} components on {lattice}")


def random_real_state(
    lattice: FrequencyLattice,
    ncomp: int,
    seed: int = 0,
    decay: float = 2.0,
    amplitude: float = 1.0,
) -> SpectralState:
    """Reality-symmetric, zero-mean random field from a counter-based generator.

    Coefficient magnitudes scale like (1 + |xi|^2)^(-decay/2); the seed fully
    determines the field, independent of any global RNG state.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = len(lattice)
    raw = rng.standard_normal((m, ncomp)) + 1j * rng.standard_normal((m, ncomp))
    weights = amplitude * (1.0 + (lattice.array.astype(float) ** 2).sum(axis=1)) ** (-decay / 2.0)
    state = enforce_reality(SpectralState(lattice, raw * weights[:, None]))
    state.coeffs[lattice.zero_index()] = 0.0
    return state


def _weighted(spec: SystemSpec, state: SpectralState) -> np.ndarray:
    """g w(xi) at every mode, (nmodes, ncomp), by one matmul; ValueError unless the state has the spec's components."""
    require_fit(state, state.lattice, spec.ncomp, "a spec")
    return state.coeffs @ spec.entropy_hessian.T


def inner_product(spec: SystemSpec, w1: SpectralState, w2: SpectralState) -> complex:
    """Entropy-weighted Plancherel pairing; real for reality-symmetric fields.

    ValueError unless both states share a lattice and have the spec's components."""
    if w1.lattice != w2.lattice:
        raise ValueError("states live on different lattices")
    require_fit(w1, w1.lattice, spec.ncomp, "a spec")
    return complex(np.vdot(w1.coeffs, _weighted(spec, w2)))


def _weighted_sq(spec: SystemSpec, state: SpectralState) -> np.ndarray:
    """Per-mode |w(xi)|_g^2, shape (nmodes,); ValueError unless the state has the spec's components."""
    return np.einsum("mp,mp->m", state.coeffs.conj(), _weighted(spec, state)).real


def energy_norm(spec: SystemSpec, state: SpectralState) -> float:
    return float(np.sqrt(max(inner_product(spec, state, state).real, 0.0)))


def sobolev_norm(spec: SystemSpec, state: SpectralState, s: float) -> float:
    sq = (state.lattice.array.astype(float) ** 2).sum(axis=1)
    return float(np.sqrt(max(((1.0 + sq) ** s * _weighted_sq(spec, state)).sum(), 0.0)))


def evolve_state(spectrum: Spectrum, t: float, state: SpectralState) -> SpectralState:
    """Apply the unitary group mode-wise: w(xi) <- sum_j e^{-i omega_j t} p_j w(xi), from the half by the mirror.

    ValueError unless the state fits the spectrum (its lattice, its spec's components)."""
    require_fit(state, spectrum.lattice, spectrum.spec.ncomp, "a spectrum")
    zero = spectrum.lattice.zero_index()
    phases = np.exp(-1j * spectrum.frequencies[zero:] * t)
    group = spectrum.lattice.complete(spectrum.branch_sum(phases))
    return SpectralState(state.lattice, np.einsum("mpq,mq->mp", group, state.coeffs))
