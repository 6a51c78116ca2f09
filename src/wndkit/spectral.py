"""Truncated integer frequency lattice and per-mode spectral decomposition.

On the 2*pi-periodic torus the skew generator acts mode by mode through the
real-spectrum pencil i*a(xi).  Because g a(xi) is symmetric, the similar
matrix  s = g^{1/2} a(xi) g^{-1/2}  is symmetric, so eigenvalues are real
and the eigenprojectors are orthogonal in the g inner product.  Eigenvalues
closer than a clustering tolerance are merged into a single frequency with a
summed projector: the group average sums over eigenspaces, and letting a
near-degenerate pair split would silently corrupt every averaged operator
built on top.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .system import SystemSpec, advection_symbol

__all__ = [
    "FrequencyLattice",
    "ModeDecomposition",
    "Spectrum",
    "convolution_pair_count",
    "decompose",
    "evolve_group",
    "frequency_spectrum",
    "spectrum_csv_rows",
]

Mode = tuple[int, ...]

CLUSTER_TOL = 1e-9  # eigenvalues closer than CLUSTER_TOL * max(max|omega|, 1) at a mode merge


def convolution_pair_count(dim: int, radius: int) -> int:
    """len(FrequencyLattice(dim, radius).convolution_pairs()[0]), without building it.

    On one axis, m in [-R, R] has 2R + 1 - |m| partners k, 3R^2 + 3R + 1 in
    all; the box is a product set, so the count is that to the power d.
    """
    return (3 * radius * radius + 3 * radius + 1) ** dim


@dataclass(eq=False)
class FrequencyLattice:
    """All integer modes with max-norm at most `radius`, in lexicographic order.

    The ordering is the reproducibility contract: every reduction over modes
    follows it, so parallel construction with an ordered merge is
    deterministic.  The set is closed under negation by construction.
    """

    dim: int
    radius: int

    def __post_init__(self) -> None:
        if self.dim < 1 or self.radius < 0:
            raise ValueError("need dim >= 1 and radius >= 0")
        span = np.arange(-self.radius, self.radius + 1)
        grids = np.meshgrid(*([span] * self.dim), indexing="ij")
        arr = np.stack([g.ravel(order="C") for g in grids], axis=1).astype(np.int64)
        self.array = arr
        self.array.setflags(write=False)
        self.modes: tuple[Mode, ...] = tuple(tuple(int(c) for c in row) for row in arr)
        self._strides = (2 * self.radius + 1) ** np.arange(self.dim - 1, -1, -1)
        # index of -xi for each xi; lex order reverses under negation
        self.negation = np.arange(len(self.modes) - 1, -1, -1)
        self.negation.setflags(write=False)

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self) -> Iterator[Mode]:
        return iter(self.modes)

    def contains(self, mode: Sequence[int]) -> bool:
        return len(mode) == self.dim and all(abs(int(c)) <= self.radius for c in mode)

    def index(self, mode: Sequence[int]) -> int:
        if not self.contains(mode):
            raise KeyError(f"mode {tuple(mode)} outside lattice of radius {self.radius}")
        shifted = np.asarray(mode, dtype=np.int64) + self.radius
        return int(shifted @ self._strides)

    def index_array(self, modes: np.ndarray) -> np.ndarray:
        """Vectorized index lookup; caller guarantees containment."""
        return (np.asarray(modes, dtype=np.int64) + self.radius) @ self._strides

    def zero_index(self) -> int:
        return self.index((0,) * self.dim)

    def convolution_pairs(self) -> tuple[np.ndarray, ...]:
        """Every (k, l) with k + l = m inside the lattice, grouped by m.

        Returns index arrays (k, l, m) sorted by m, then by k, the start of
        each m-segment and the m of each segment, ready for np.add.reduceat.
        The box is a product set, so a pair is valid iff |m_a - k_a| <= R on
        every axis: the valid (m, k) are the nonzeros of an outer product of
        per-axis masks, laid out as (m_1..m_d, k_1..k_d), whose C order is
        the (m, k) order.  The index is affine in the mode, so l = m - k has
        index m - k + zero_index.
        """
        span = np.arange(-self.radius, self.radius + 1)
        axis_ok = np.abs(span[:, None] - span[None, :]) <= self.radius  # (m_a, k_a)
        size = span.size
        valid = np.ones((1,) * (2 * self.dim), dtype=bool)
        for a in range(self.dim):
            shape = [1] * (2 * self.dim)
            shape[a] = shape[self.dim + a] = size
            valid = valid & axis_ok.reshape(shape)
        pm, pk = np.divmod(np.flatnonzero(valid), len(self))
        pl = pm - pk + self.zero_index()
        seg = np.flatnonzero(np.r_[True, np.diff(pm) > 0])
        return pk, pl, pm, seg, pm[seg]


@dataclass(eq=False)
class ModeDecomposition:
    """Distinct real frequencies and g-orthogonal eigenprojectors at one mode.

    Invariants (up to roundoff): projectors sum to the identity, are mutually
    annihilating idempotents, are self-adjoint in the g inner product, and
    reassemble the advection symbol as sum_j omega_j * p_j.  The columns of
    `basis` are g-orthonormal eigenvectors (basis^T g basis = I, so the
    inverse is basis^T g); column c lies in branch `branch[c]`, and p_j is
    the sum of b_c b_c^T g over the columns of branch j.
    """

    mode: Mode
    frequencies: np.ndarray
    projectors: np.ndarray
    basis: np.ndarray  # (N, N) float
    branch: np.ndarray  # (N,) int

    @property
    def nfreq(self) -> int:
        return len(self.frequencies)


@dataclass(eq=False)
class Spectrum(Mapping):
    """Decompositions at every lattice mode, stacked in lattice order.

    Row i of `frequencies` (M, B) and `projectors` (M, B, N, N) holds the
    nfreq[i] branches of lattice mode i, zero-padded to the widest mode:
    a padded branch has frequency 0 and a zero projector, so any sum over
    all B branches equals the sum over the real ones.  `null` marks the
    branches whose frequency is zero within the clustering tolerance
    (padded branches are not branches).  `basis` (M, N, N) and `branch`
    (M, N) stack the per-mode eigenvector bases and the branch of each
    column: the branch ranks at a mode sum to N, so one basis spans them
    all.  `spec` is the system decomposed.  As a read-only mapping from
    mode to ModeDecomposition it serves views of those rows.
    """

    spec: SystemSpec
    lattice: FrequencyLattice
    frequencies: np.ndarray  # (M, B) float
    projectors: np.ndarray  # (M, B, N, N) float
    nfreq: np.ndarray  # (M,) int
    null: np.ndarray  # (M, B) bool
    basis: np.ndarray  # (M, N, N) float
    branch: np.ndarray  # (M, N) int

    def __getitem__(self, mode: Sequence[int]) -> ModeDecomposition:
        i = self.lattice.index(mode)
        k = int(self.nfreq[i])
        return ModeDecomposition(
            mode=self.lattice.modes[i],
            frequencies=self.frequencies[i, :k],
            projectors=self.projectors[i, :k],
            basis=self.basis[i],
            branch=self.branch[i],
        )

    def __iter__(self) -> Iterator[Mode]:
        return iter(self.lattice)

    def __len__(self) -> int:
        return len(self.lattice)

    def require_lattice(self, lattice: FrequencyLattice) -> None:
        if lattice is not self.lattice and lattice.modes != self.lattice.modes:
            raise ValueError("spectrum and lattice have different modes")


def _decompose_modes(spec: SystemSpec, modes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Spectrum arrays (frequencies, projectors, nfreq, null, basis, branch) at each row of `modes` (K, d).

    One batched eigensolve on g^{1/2} a(xi) g^{-1/2}.  A new branch starts
    wherever consecutive eigenvalues differ by more than CLUSTER_TOL *
    max(max|omega|, 1), and its frequency is the cluster mean.
    """
    n = spec.ncomp
    root, inv_root = spec.metric_sqrt()
    sym = root @ advection_symbol(spec, modes.astype(float)) @ inv_root
    evals, vecs = np.linalg.eigh(0.5 * (sym + sym.swapaxes(-1, -2)))
    scale = np.maximum(np.abs(evals).max(axis=1, keepdims=True), 1.0)
    branch = np.cumsum(np.diff(evals, axis=1, prepend=evals[:, :1]) > CLUSTER_TOL * scale, axis=1)
    nfreq = branch[:, -1] + 1
    width = int(nfreq.max())
    size = (branch[:, None, :] == np.arange(width)[:, None]).sum(axis=2)
    first = np.cumsum(size, axis=1) - size  # branches are contiguous runs of columns
    frequencies = np.zeros((len(modes), width))
    projectors = np.zeros((len(modes), width, n, n))
    # one gather per cluster size, so each mean and each block @ block^T
    # sees exactly the cluster's own columns
    for count in np.unique(size[size > 0]):
        row, j = np.nonzero(size == count)
        cols = first[row, j][:, None] + np.arange(count)
        frequencies[row, j] = evals[row[:, None], cols].mean(axis=1)
        block = vecs[row[:, None, None], np.arange(n)[:, None], cols[:, None, :]]
        projectors[row, j] = inv_root @ (block @ block.swapaxes(-1, -2)) @ root
    basis = inv_root @ vecs
    zero = ~modes.any(axis=1)  # the zero mode has one branch: P = I, basis g^{-1/2}
    frequencies[zero] = 0.0
    projectors[zero, 0] = np.eye(n)
    basis[zero] = inv_root
    scale = np.maximum(np.abs(frequencies).max(axis=1, keepdims=True), 1.0)
    null = (np.arange(width) < nfreq[:, None]) & (np.abs(frequencies) <= CLUSTER_TOL * scale)
    return frequencies, projectors, nfreq, null, basis, branch


def decompose(spec: SystemSpec, mode: Sequence[int]) -> ModeDecomposition:
    """Eigenstructure of the advection symbol at one integer mode: one row of frequency_spectrum.

    The basis is g^{-1/2} times the symmetric problem's eigenvectors
    (g^{-1/2} itself at the zero mode, whose one branch is everything).
    """
    key = tuple(int(c) for c in mode)
    frequencies, projectors, nfreq, _, basis, branch = _decompose_modes(spec, np.array([key], dtype=np.int64))
    k = int(nfreq[0])
    return ModeDecomposition(key, frequencies[0, :k], projectors[0, :k], basis[0], branch[0])


def evolve_group(dec: ModeDecomposition, t: float, vec: np.ndarray) -> np.ndarray:
    """Apply the unitary mode propagator sum_j exp(-i omega_j t) p_j."""
    phases = np.exp(-1j * dec.frequencies * t)
    return np.einsum("j,jpq,q->p", phases, dec.projectors, np.asarray(vec, dtype=complex))


def frequency_spectrum(spec: SystemSpec, lattice: FrequencyLattice) -> Spectrum:
    """Decomposition at every lattice mode: one batched eigensolve, in lattice order."""
    arrays = _decompose_modes(spec, lattice.array)
    for arr in arrays:
        arr.setflags(write=False)
    return Spectrum(spec, lattice, *arrays)


def spectrum_csv_rows(spectrum: Spectrum) -> Iterator[list]:
    """Diagnostic rows (mode components..., frequency index, omega, projector rank)."""
    for mode, dec in spectrum.items():
        for j, omega in enumerate(dec.frequencies):
            rank = int(round(float(np.trace(dec.projectors[j]))))
            yield [*mode, j, float(omega), rank]
