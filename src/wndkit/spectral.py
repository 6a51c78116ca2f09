"""Truncated integer frequency lattice and the stacked spectral decomposition of its modes.

On the 2*pi-periodic torus the skew generator acts mode by mode through the
real-spectrum pencil i*a(xi).  Because g a(xi) is symmetric, the similar
matrix  s = g^{1/2} a(xi) g^{-1/2}  is symmetric, so eigenvalues are real
and each eigenprojector is orthogonal in the g inner product.  Eigenvalues
closer than a clustering tolerance are merged into a single frequency with a
summed projector: the group average sums over eigenspaces, and letting a
near-degenerate pair split would silently corrupt every averaged operator
built on top.  Only the zero mode and the positive half are decomposed: the
symbol is odd, so each mode -xi is built as the exact mirror of xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .system import SystemSpec, advection_symbol

__all__ = [
    "FrequencyLattice",
    "ModeDecomposition",
    "Spectrum",
    "convolution_pair_count",
    "frequency_spectrum",
    "mode_csv_rows",
    "spectrum_csv_rows",
    "symmetric_advection_eigh",
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
        """Whether `mode` is a lattice point: dim integral components (NumPy integers and 1.0 count), each within the radius."""
        return len(mode) == self.dim and all(abs(c) <= self.radius and float(c).is_integer() for c in mode)

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

    def mirror(self, values: np.ndarray) -> np.ndarray:
        """conj(v(-xi)) for per-mode values in lattice order: values[negation].conj(), by reversal."""
        return np.conj(values[::-1])  # a new array also for real values, where .conj() returns the view

    def complete(self, half: np.ndarray) -> np.ndarray:
        """Every mode from rows zero_index(): (the zero mode and the positive half) by v(-xi) = conj(v(xi))."""
        return np.concatenate([self.mirror(half[1:]), half])

    def convolution_pairs(self) -> tuple[np.ndarray, ...]:
        """Every (k, l) with k + l = m inside the lattice, grouped by m.

        Returns index arrays (k, l, m) sorted by m, then by k, the start of
        each m-segment and the m of each segment, ready for np.add.reduceat.
        The box is a product set, so a pair is valid iff |m_a - k_a| <= R on
        every axis: the valid (m, k) are the nonzeros of an outer product of
        per-axis masks, laid out as (m_1..m_d, k_1..k_d), whose C order is
        the (m, k) order.  The index is affine in the mode, so l = m - k has
        index m - k + zero_index.  Built once per lattice, as read-only arrays.
        """
        return self._convolution_pairs

    @cached_property
    def _convolution_pairs(self) -> tuple[np.ndarray, ...]:
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
        pairs = (pk, pl, pm, seg, pm[seg])
        for arr in pairs:
            arr.setflags(write=False)
        return pairs


@dataclass(eq=False)
class ModeDecomposition:
    """Distinct real frequencies and a g-orthonormal eigenvector basis at one mode.

    basis^T g basis = I; column c lies in branch `branch[c]`, and branch j's
    eigenprojector is p_j = B_j B_j^T g, B_j its columns.
    """

    mode: Mode
    frequencies: np.ndarray
    basis: np.ndarray  # (N, N) float
    branch: np.ndarray  # (N,) int

    @property
    def nfreq(self) -> int:
        return len(self.frequencies)


@dataclass(eq=False)
class Spectrum:
    """Decompositions at every lattice mode, stacked in lattice order.

    Row i of `frequencies` (M, B) holds the nfreq[i] branches of lattice
    mode i, zero-padded to the widest mode (a padded branch has frequency 0
    and no column).  `basis` (M, N, N) and `branch` (M, N) stack the per-mode
    g-orthonormal eigenvector bases and the branch of each column: the
    branch ranks at a mode sum to N, so one basis spans them all, and branch
    j's projector is p_j = B_j B_j^T g (see `branch_sum`).  `null` marks the
    branches whose frequency is zero within the clustering tolerance (padded
    branches are not branches), `labels` (M, B) int8 the sign of each other
    branch's frequency (0 on null and padded branches: the labels an exact
    resonance rule reads), and `null_projector` (M, N, N) the null branches'
    summed projector P0 at each mode: the slow/fast split of a state is P0 w
    and w - P0 w.  `spec` is the system decomposed.  Every row at -xi is the
    exact mirror of the row at xi (see frequency_spectrum).  Two plain
    attributes report how close the CLUSTER_TOL decisions came, each value
    relative to its mode's max(max|omega|, 1): `null_margin` (the largest
    null and the smallest other |omega|) and `cluster_margin` (the largest
    spread of a merged cluster and the smallest gap kept between branches);
    a set with no member reads 0.0 as the largest and inf as the smallest.
    """

    spec: SystemSpec
    lattice: FrequencyLattice
    frequencies: np.ndarray  # (M, B) float
    nfreq: np.ndarray  # (M,) int
    null: np.ndarray  # (M, B) bool
    labels: np.ndarray  # (M, B) int8
    basis: np.ndarray  # (M, N, N) float
    branch: np.ndarray  # (M, N) int
    null_margin: tuple[float, float]
    cluster_margin: tuple[float, float]

    def __getitem__(self, mode: Sequence[int]) -> ModeDecomposition:
        """Views of one mode's rows (KeyError outside the lattice), for the benchmark harness and tests."""
        i = self.lattice.index(mode)
        return ModeDecomposition(
            mode=self.lattice.modes[i],
            frequencies=self.frequencies[i, : int(self.nfreq[i])],
            basis=self.basis[i],
            branch=self.branch[i],
        )

    def branch_sum(self, values: np.ndarray) -> np.ndarray:
        """sum_j values[:, j] p_j = B diag(values at each column's branch) B^T g, (U + 1, N, N), from values
        (U + 1, B) on the zero mode and the positive half; values[0, 0] I exactly at the zero mode (p = I)."""
        zero = self.lattice.zero_index()
        basis = self.basis[zero:]
        weights = np.take_along_axis(values, self.branch[zero:], axis=1)
        out = (basis * weights[:, None, :]) @ (basis.transpose(0, 2, 1) @ self.spec.entropy_hessian)
        out[0] = values[0, 0] * np.eye(self.spec.ncomp)
        return out

    @cached_property
    def null_projector(self) -> np.ndarray:
        """P0 (M, N, N), read-only: summed on the half and completed, so P0(-xi) = P0(xi) bit for bit."""
        p0 = self.lattice.complete(self.branch_sum(self.null[self.lattice.zero_index():]))
        p0.setflags(write=False)
        return p0


def symmetric_advection_eigh(spec: SystemSpec, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of the symmetrized g^{1/2} a(xi) g^{-1/2} at each row of xi (K, d): one batched eigensolve."""
    root, inv_root = spec.metric_sqrt()
    sym = root @ advection_symbol(spec, xi) @ inv_root
    return np.linalg.eigh(0.5 * (sym + sym.swapaxes(-1, -2)))


def frequency_spectrum(spec: SystemSpec, lattice: FrequencyLattice) -> Spectrum:
    """Decomposition at every lattice mode: one batched eigensolve of the zero mode and the positive half.

    Eigenpairs from symmetric_advection_eigh.  A new branch starts wherever
    consecutive eigenvalues differ by more than CLUSTER_TOL * max(max|omega|,
    1), and its frequency is the cluster mean.  a(-xi) = -a(xi), so each mode
    -xi is built as the exact mirror of xi: its frequencies are those of xi
    negated over the branches reversed (the padding kept last and +0.0), its
    basis that of xi with the columns reversed, and branch, null and labels
    follow (labels negated).  So omega(-xi) = -omega(xi) holds bit for bit.
    """
    inv_root = spec.metric_sqrt()[1]
    evals, vecs = symmetric_advection_eigh(spec, lattice.array[lattice.zero_index():].astype(float))
    scale = np.maximum(np.abs(evals).max(axis=1, keepdims=True), 1.0)
    branch = np.cumsum(np.diff(evals, axis=1, prepend=evals[:, :1]) > CLUSTER_TOL * scale, axis=1)
    nfreq = branch[:, -1] + 1
    width = int(nfreq.max())
    size = (branch[:, None, :] == np.arange(width)[:, None]).sum(axis=2)
    first = np.cumsum(size, axis=1) - size  # branches are contiguous runs of columns
    frequencies = np.zeros((len(evals), width))
    # one gather per cluster size, so each mean sees exactly the cluster's own columns
    for count in np.unique(size[size > 0]):
        row, j = np.nonzero(size == count)
        cols = first[row, j][:, None] + np.arange(count)
        frequencies[row, j] = evals[row[:, None], cols].mean(axis=1)
    row, j = np.nonzero(size)
    spread = (evals[row, first[row, j] + size[row, j] - 1] - evals[row, first[row, j]]) / scale[row, 0]
    gaps = np.diff(evals, axis=1) / scale
    cluster_margin = (float(spread.max(initial=0.0)), float(gaps[np.diff(branch, axis=1) > 0].min(initial=np.inf)))
    basis = inv_root @ vecs
    frequencies[0] = 0.0  # the zero mode (row 0) has one branch: P = I, basis g^{-1/2}
    basis[0] = inv_root
    scale = np.maximum(np.abs(frequencies).max(axis=1, keepdims=True), 1.0)
    real = np.arange(width) < nfreq[:, None]
    null = real & (np.abs(frequencies) <= CLUSTER_TOL * scale)
    labels = np.where(null, 0, np.sign(frequencies)).astype(np.int8)  # a padded frequency is 0
    rel = np.abs(frequencies) / scale
    null_margin = (float(rel[null].max(initial=0.0)), float(rel[real & ~null].min(initial=np.inf)))
    j = np.arange(width)
    flip = np.where(real, nfreq[:, None] - 1 - j, j)  # branch j at -xi is branch flip[j] at xi
    mirrored = (
        0.0 - np.take_along_axis(frequencies, flip, axis=1),  # 0.0 - x: a zero stays +0.0
        nfreq,
        np.take_along_axis(null, flip, axis=1),
        -np.take_along_axis(labels, flip, axis=1),
        basis[:, :, ::-1],
        nfreq[:, None] - 1 - branch[:, ::-1],
    )
    # lattice order reverses under negation: the mirrors of the positive half, in reverse, come first
    half = (frequencies, nfreq, null, labels, basis, branch)
    arrays = [np.concatenate([m[:0:-1], h]) for m, h in zip(mirrored, half)]
    for arr in arrays:
        arr.setflags(write=False)
    return Spectrum(spec, lattice, *arrays, null_margin, cluster_margin)


def spectrum_csv_rows(spectrum: Spectrum) -> Iterator[list]:
    """Diagnostic rows (mode components..., frequency index, omega, projector rank): a rank counts its branch's columns."""
    ranks = (spectrum.branch[:, :, None] == np.arange(spectrum.frequencies.shape[1])).sum(axis=1)
    for i, mode in enumerate(spectrum.lattice):
        for j in range(spectrum.nfreq[i]):
            yield [*mode, j, float(spectrum.frequencies[i, j]), int(ranks[i, j])]


def mode_csv_rows(lattice: FrequencyLattice, values: np.ndarray) -> Iterator[list]:
    """(mode components..., index..., Re, Im) rows of a per-mode complex array (M, ...), in lattice then C order."""
    index = list(np.ndindex(values.shape[1:]))
    flat = values.reshape(len(lattice), -1)
    for mode, re, im in zip(lattice.modes, flat.real.tolist(), flat.imag.tolist()):
        for idx, r, i in zip(index, re, im):
            yield [*mode, *idx, r, i]
