"""Truncated integer frequency lattice and the stacked spectral decomposition of its modes.

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

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .system import SystemSpec, advection_symbol

__all__ = [
    "FrequencyLattice",
    "ModeDecomposition",
    "Spectrum",
    "convolution_pair_count",
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


@dataclass
class FrequencyLattice:
    """All integer modes with max-norm at most `radius`, in lexicographic order.

    The ordering is the reproducibility contract: every reduction over modes
    follows it, so parallel construction with an ordered merge is
    deterministic.  (dim, radius) fixes the mode set, so lattices compare
    equal by value on it.  The set is closed under negation by construction:
    `negation` holds the index of -xi for each xi, and `upper` the indices
    of the positive half (the modes after the zero mode), whose mirrors are
    the modes before it.
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
        self.upper = np.arange(self.zero_index() + 1, len(self.modes))
        self.upper.setflags(write=False)

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
class Spectrum:
    """Decompositions at every lattice mode, stacked in lattice order.

    Row i of `frequencies` (M, B) and `projectors` (M, B, N, N) holds the
    nfreq[i] branches of lattice mode i, zero-padded to the widest mode:
    a padded branch has frequency 0 and a zero projector, so any sum over
    all B branches equals the sum over the real ones.  `null` marks the
    branches whose frequency is zero within the clustering tolerance
    (padded branches are not branches).  `basis` (M, N, N) and `branch`
    (M, N) stack the per-mode eigenvector bases and the branch of each
    column: the branch ranks at a mode sum to N, so one basis spans them
    all.  `spec` is the system decomposed.
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
        """Views of one mode's rows (KeyError outside the lattice).

        Kept for the benchmark harness only: perfbench/run.py reads its
        branch counts through it.  Library code reads the stacked arrays.
        """
        i = self.lattice.index(mode)
        k = int(self.nfreq[i])
        return ModeDecomposition(
            mode=self.lattice.modes[i],
            frequencies=self.frequencies[i, :k],
            projectors=self.projectors[i, :k],
            basis=self.basis[i],
            branch=self.branch[i],
        )


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


def frequency_spectrum(spec: SystemSpec, lattice: FrequencyLattice) -> Spectrum:
    """Decomposition at every lattice mode: one batched eigensolve, in lattice order."""
    arrays = _decompose_modes(spec, lattice.array)
    for arr in arrays:
        arr.setflags(write=False)
    return Spectrum(spec, lattice, *arrays)


def spectrum_csv_rows(spectrum: Spectrum) -> Iterator[list]:
    """Diagnostic rows (mode components..., frequency index, omega, projector rank)."""
    ranks = np.rint(np.trace(spectrum.projectors, axis1=2, axis2=3)).astype(int)
    for i, mode in enumerate(spectrum.lattice):
        for j in range(spectrum.nfreq[i]):
            yield [*mode, j, float(spectrum.frequencies[i, j]), int(ranks[i, j])]
