"""Resonance-averaged diffusion and quadratic operators.

Long-time averaging of an operator conjugated by the unitary group
e^{-t A} keeps exactly the interactions whose frequencies cancel.  Per
mode, with spectral projectors p_j(xi) of the advection symbol:

    averaged diffusion   dbar(xi) = - sum_j p_j(xi) b(xi) p_j(xi)

    averaged quadratic   output at m = k + l accumulates
        p_j3(m) . (i m . q)( p_j1(k) w1(k), p_j2(l) w2(l) )
        over all triples with omega_j1(k) + omega_j2(l) = omega_j3(m).

The sign convention makes dbar the dissipative right-hand side: g dbar(xi)
is Hermitian nonpositive.  Both operators commute with the group action,
and the entropy structure gives the quadratic operator the cyclic identity

    (w1 | qbar(w2,w3)) + (w2 | qbar(w3,w1)) + (w3 | qbar(w1,w2)) = 0,

which is what makes the nonlinearity energy neutral.

The projectors have low rank (1 for an acoustic branch, 2 for a null
branch, N only at the zero mode) and the ranks at a mode sum to N, so one
g-orthonormal eigenvector basis B(xi) per mode carries every branch.  In
those branch coordinates a = B^T g w each resonant triple is a handful of
scalar interaction coefficients

    c = (B^T g)(m)_o . (i m . q)(B(k)_p, B(l)_q),

one per coordinate triple (o, p, q) in the branches (j3, j1, j2), and qbar
at m is B(m) times the sum of c a1(k)_p a2(l)_q over them.  Many c vanish
by structure (fast-fast resonances do not force the slow mode); they are
dropped at compile time against DROP_TOL, with the margin recorded.  The
null triples (all three frequencies zero) are resonant for every pair of
modes; together they are the slow, incompressible dynamics P0 Q(P0 w1, P0
w2), computed whole as one pseudo-spectral product on a padded grid.

Resonance detection is the main correctness hazard: by default frequency
sums are matched with a relative tolerance, and callers with arithmetic
structure (the gas-dynamics instantiation) supply an exact predicate
instead.  Output modes falling outside the truncation are dropped, i.e. the
sum is composed with the Galerkin projection onto the retained modes.

Brute-force time-average oracles for both operators are provided; they use
matrix-exponential propagator powers and trapezoidal quadrature, sharing no
code with the spectral formulas they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np
import scipy.fft
import scipy.linalg

from .spectral import FrequencyLattice, Spectrum
from .state import SpectralState, energy_norm, inner_product
from .system import SystemSpec, advection_symbol, diffusion_symbol

__all__ = [
    "AveragedDiffusion",
    "ResonanceTable",
    "averaged_diffusion",
    "apply_averaged_diffusion",
    "averaged_diffusion_oracle",
    "build_resonance_table",
    "apply_averaged_quadratic",
    "apply_quadratic",
    "quadratic_time_average_oracle",
    "cyclic_residual",
    "resonance_csv_rows",
    "diffusion_csv_rows",
]

# (k, omega1, l, omega2, m, omega3) on T candidates: (T, d) int modes, (T,) frequencies -> (T,) bools.
# Called once per lattice mode k; its arguments are read-only, and k is a broadcast view of one row.
ExactRule = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# propagator powers per block in the time-average oracles (bounds their memory)
DIFFUSION_ORACLE_CHUNK = 32768
QUADRATIC_ORACLE_CHUNK = 2048

# branch-coordinate coefficients of qbar with |c| <= DROP_TOL * max|c| vanish
# by structure and are dropped at compile time
DROP_TOL = 1e-12


@dataclass(eq=False)
class AveragedDiffusion:
    """Per-mode blocks of the averaged diffusion operator, in lattice order."""

    lattice: FrequencyLattice
    blocks: np.ndarray  # (nmodes, N, N) complex

    def block(self, mode) -> np.ndarray:
        return self.blocks[self.lattice.index(mode)]


def averaged_diffusion(spectrum: Spectrum) -> AveragedDiffusion:
    """dbar(xi) = - sum_j p_j(xi) b(xi) p_j(xi) for every mode of the spectrum's lattice."""
    spec, lattice = spectrum.spec, spectrum.lattice
    bsym = diffusion_symbol(spec, lattice.array.astype(float))
    proj = spectrum.projectors
    blocks = np.zeros((len(lattice), spec.ncomp, spec.ncomp), dtype=complex)
    blocks.real = -np.einsum("mjpq,mqr,mjrs->mps", proj, bsym, proj)
    # the symbol vanishes at the zero mode; keep its block at +0.0 (the
    # negation above would print as -0 in the CSV export)
    blocks[lattice.zero_index()] = 0.0
    # the identity dbar(-xi) = conj(dbar(xi)) holds exactly for real symbols;
    # enforcing it removes independent-eigensolve roundoff so that stepping
    # preserves the reality symmetry of states bit for bit
    upper = lattice.upper
    blocks[lattice.negation[upper]] = blocks[upper].conj()
    return AveragedDiffusion(lattice=lattice, blocks=blocks)


def apply_averaged_diffusion(avg: AveragedDiffusion, state: SpectralState) -> SpectralState:
    return SpectralState(state.lattice, np.einsum("mpq,mq->mp", avg.blocks, state.coeffs), state.time)


def averaged_diffusion_oracle(
    spec: SystemSpec,
    xi,
    t_span: float,
    n_steps: int,
) -> np.ndarray:
    """Trapezoidal time average of e^{i t a(xi)} (-b(xi)) e^{-i t a(xi)} on [-T, T].

    Independent of the projector route: the propagator comes from one scipy
    matrix exponential extended by batched powers; n_steps nodes cover each
    half-axis.  Converges to the averaged-diffusion block at rate O(1/T)
    (quasi-periodic integrand).
    """
    if t_span <= 0.0 or n_steps < 100:
        raise ValueError("need t_span > 0 and n_steps >= 100")
    xi = np.asarray(xi, dtype=float)
    b = diffusion_symbol(spec, xi).astype(complex)
    step = scipy.linalg.expm(1j * (t_span / n_steps) * advection_symbol(spec, xi))

    def integrand(powers: np.ndarray) -> np.ndarray:
        fwd = powers[:, 0]
        return (fwd @ -b) @ fwd.conj()

    return _trapezoid_average(step[None], t_span, n_steps, DIFFUSION_ORACLE_CHUNK, integrand)


@dataclass(eq=False)
class ResonanceTable:
    """Resonant frequency triples (k, j1; l, j2; m=k+l, j3) of one spectrum.

    The branches j are the spectrum's, so the table lives on its lattice
    and serves only its system.  `entries` columns: k index, j1, l index,
    j2, m index, j3.  `defects` stores the measured frequency mismatch
    omega1 + omega2 - omega3 (pure eigensolve noise for entries admitted by
    an exact rule).  Symmetric: the (l, k) mirror of every entry is
    present.  The float rule accepts |defect| <= tolerance * scale;
    `closest_rejected` is the smallest |defect| it rejected (inf if none,
    nan under an exact rule).  qbar assumes the table holds every null
    triple and is closed under negation; only `build_resonance_table`
    checks both, so tables must come from it.  `quadratic` is qbar
    compiled for the table, on first use.
    """

    spectrum: Spectrum
    entries: np.ndarray  # (T, 6) int64
    defects: np.ndarray  # (T,) float
    tolerance: float
    scale: float
    closest_rejected: float
    exact: bool

    def __len__(self) -> int:
        return self.entries.shape[0]

    @property
    def lattice(self) -> FrequencyLattice:
        return self.spectrum.lattice

    @cached_property
    def quadratic(self) -> _CompiledQuadratic:
        return _CompiledQuadratic(self)


def build_resonance_table(
    spectrum: Spectrum,
    tol: float = 1e-9,
    exact_rule: ExactRule | None = None,
) -> ResonanceTable:
    """Enumerate all resonant triples with k, l and k+l inside the spectrum's lattice.

    Built one k-block at a time: the candidates (l, j1, j2, j3) of one k, in
    table order (l ascending, then the branches lexicographically), are
    decided in one array call.  Generic detection accepts |omega1 + omega2 -
    omega3| <= tol * scale with scale the largest frequency magnitude on the
    lattice; floating-point near-resonances are the dominant hazard, so
    callers should pass an exact_rule (an array predicate, see ExactRule;
    ValueError unless it returns one boolean per candidate) whenever the
    spectrum has arithmetic structure.

    A candidate is carried only as three flat indices (mode * width +
    branch) into the stacked frequencies, which are read by flat gathers.
    The rule's arguments are read-only: k is a broadcast view of the
    block's one row, l and m are repeats of the block's l and m rows.  Only
    the accepted candidates become (k, j1, l, j2, m, j3) rows, by divmod of
    their indices.
    ValueError unless the table holds qbar's two invariants: each k-block
    accepts all n0(k) sum_l n0(l) n0(k + l) null triples (n0 counts the null
    branches at a mode; the error names k), and every row has its mirror.
    """
    lattice, freqs, nfreq = spectrum.lattice, spectrum.frequencies, spectrum.nfreq
    scale = max(float(np.abs(freqs).max()), 1.0)
    arr, zero = lattice.array, lattice.zero_index()
    flat, width = freqs.ravel(), freqs.shape[1]
    null, n0 = spectrum.null.ravel(), spectrum.null.sum(axis=1)
    # branch triples (j1, j2, j3) in lexicographic order
    j1, j2, j3 = (j.ravel() for j in np.indices((width,) * 3))
    accepted, defects, closest = [], [], np.inf
    for ki in range(len(lattice)):
        lis = np.flatnonzero(np.abs(arr + arr[ki]).max(axis=1) <= lattice.radius)
        mis = lis + (ki - zero)  # index(k + l) = index(k) + index(l) - index(0)
        # padded branches (j >= nfreq) are not candidates
        branch = (j1 < nfreq[ki]) & (j2 < nfreq[lis, None]) & (j3 < nfreq[mis, None])
        idx = [
            np.broadcast_to(ki * width + j1, branch.shape)[branch],
            (lis[:, None] * width + j2)[branch],
            (mis[:, None] * width + j3)[branch],
        ]
        w1, w2, w3 = (flat.take(i) for i in idx)
        defect = (w1 + w2) - w3
        if exact_rule is None:
            hit = np.abs(defect) <= tol * scale
            closest = min(closest, np.abs(defect[~hit]).min(initial=np.inf))
        else:
            per_l = np.count_nonzero(branch, axis=1)
            args = (
                np.broadcast_to(arr[ki], (len(defect), lattice.dim)),
                w1,
                np.repeat(arr[lis], per_l, axis=0),
                w2,
                np.repeat(arr[mis], per_l, axis=0),
                w3,
            )
            for a in args:
                a.flags.writeable = False
            hit = np.asarray(exact_rule(*args))
            if hit.dtype != bool or hit.shape != defect.shape:
                raise ValueError(f"exact_rule returned {hit.dtype} {hit.shape}, expected {len(defect)} booleans")
        keep = np.flatnonzero(hit)
        block = np.stack([i.take(keep) for i in idx])
        found = np.count_nonzero(null.take(block).all(axis=0))
        expected = n0[ki] * np.dot(n0[lis], n0[mis])
        if found != expected:
            missing = f"{expected - found} of the {expected} null triples at k = {tuple(arr[ki].tolist())}"
            raise ValueError(f"resonance rule rejects {missing}; every null triple is resonant")
        accepted.append(block)
        defects.append(defect.take(keep))
    # (k, j1, l, j2, m, j3) columns from the flat (mode, branch) indices
    entries = np.stack(np.divmod(np.concatenate(accepted, axis=1).T, width), axis=2).reshape(-1, 6)
    # qbar's mirror identity needs every row's mirror (-k, j1'; -l, j2'; -m, j3'), with
    # j' = nfreq - 1 - j the branch of -omega_j; m = k + l, so (k, j1, l, j2, j3) names a row
    k, j1, l, j2, m, j3 = entries.T
    neg = lattice.negation
    shape = (len(lattice), width, len(lattice), width, width)
    rows = np.sort(np.ravel_multi_index((k, j1, l, j2, j3), shape))
    mirrors = np.ravel_multi_index((neg[k], nfreq[k] - 1 - j1, neg[l], nfreq[l] - 1 - j2, nfreq[m] - 1 - j3), shape)
    unmatched = int(np.count_nonzero(rows.take(np.searchsorted(rows, mirrors), mode="clip") != mirrors))
    if unmatched:
        raise ValueError(f"resonance table is not closed under negation: {unmatched} rows lack their mirror")
    return ResonanceTable(
        spectrum=spectrum,
        entries=entries,
        defects=np.concatenate(defects),
        tolerance=tol,
        scale=scale,
        closest_rejected=np.nan if exact_rule is not None else float(closest),
        exact=exact_rule is not None,
    )


class _NullGrid(NamedTuple):
    """One padded grid of the null part: transform axes; the input modes,
    their null projectors and grid positions; the grid shape; the grid
    positions and (n, d n) read-out maps of the output modes."""

    axes: tuple
    modes: slice | np.ndarray
    p0: np.ndarray
    index: tuple
    shape: tuple
    out_index: tuple
    read: np.ndarray


class _CompiledQuadratic:
    """The averaged quadratic form of one table, compiled once (`ResonanceTable.quadratic`).

    Null triples, whose three branches all have zero frequency, are resonant
    for every pair of modes, so together they are the truncated convolution
    P0 Q(P0 w1, P0 w2), with P0(xi) the sum of the null projectors at xi
    (the whole identity at the zero mode).  That part is computed
    pseudo-spectrally on a zero-padded grid of at least 3R+1 points per
    axis, on which no product of two retained modes aliases onto a retained
    mode, by one inverse and one forward transform per call.  For
    reality-symmetric inputs P0 w is a real field: the transforms are real
    (scipy.fft.irfftn / rfftn on the half-spectrum grid), and so are the
    field products and the flux matmul.  Other inputs take the complex
    transforms of the full grid, read out on both halves of the modes.
    qbar(w, w) transforms its one input and forms the n(n+1)/2 products
    f_i f_j with i <= j, against the flux matrix with its (i, j) and (j, i)
    columns folded.

    The other table rows are applied in branch coordinates (see the module
    docstring): each row expands to its coordinate triples (o at m, p at k,
    q at l), one interaction coefficient c each.  The ranks are 1
    (acoustic) or 2 (null) off the zero mode, so a row holds a few scalars
    instead of a dense N x N^2 kernel.  Coefficients with |c| <= DROP_TOL *
    max|c| are structural zeros and are dropped.  The kept terms are sorted
    by output coordinate; a call projects each input to coordinates once
    per mode, then does one gather, multiply and reduceat over the terms
    and maps back with the basis.

    Rows whose output mode m is the zero mode contribute nothing (the
    divergence factor i*m vanishes) and are dropped.  The table part is
    evaluated on the positive half of the modes only: the symbols are real,
    so for any complex inputs qbar(w1, w2)(-m) = conj(qbar(~w1, ~w2)(m))
    with ~w(k) = conj(w(-k)), and the negative half is a second table pass
    on the mirrored inputs.  Reality-symmetric inputs are their own mirrors:
    one table pass, and the whole positive half (null part included) is
    mirrored by conjugation, so the output is reality-symmetric bit for
    bit.  The identity needs a table closed under negation, which the
    build checks.

    Plain attributes report what was compiled: `terms` (kept coefficients),
    `coefficient_bytes` (coefficient, index and segment arrays), `dropped`
    (structural zeros) and `drop_margin` (the largest dropped and the
    smallest kept |c|, both relative to max|c|).
    """

    def __init__(self, table: ResonanceTable) -> None:
        spectrum, spec, lattice = table.spectrum, table.spectrum.spec, table.lattice
        n = spec.ncomp
        self.lattice = lattice
        self.ncomp = n
        zero_idx = lattice.zero_index()
        self.upper = lattice.upper

        null = spectrum.null
        entries = table.entries
        null_triple = (
            null[entries[:, 0], entries[:, 1]] & null[entries[:, 2], entries[:, 3]] & null[entries[:, 4], entries[:, 5]]
        )
        # without a null branch off the zero mode every null triple has m = 0
        self.null_active = bool(null[self.upper].any())
        p0 = np.einsum("mj,mjpq->mpq", null, spectrum.projectors)
        # the null part at m is P0(m) (i m . F(m)) for the transformed flux F:
        # one (n, d n) map per mode
        read = (1j * lattice.array[:, None, :, None] * p0[:, :, None, :]).reshape(len(lattice), n, -1)
        dim, size = lattice.dim, scipy.fft.next_fast_len(3 * lattice.radius + 1, real=True)
        self.grid_shape = (size,) * dim
        index = (lattice.array % size).T
        # complex inputs: the full grid, read out on both halves (positive, then negative)
        self.halves = np.concatenate([self.upper, lattice.negation[self.upper]])
        self.complex_grid = _NullGrid(
            tuple(range(-dim, 0)),
            slice(None),
            p0,
            tuple(index),
            self.grid_shape,
            tuple(index[:, self.halves]),
            read[self.halves],
        )
        # reality-symmetric inputs: P0 w is a real field, and the real transform
        # halves the first axis (scipy halves the last of `axes`); that half
        # holds every mode with m_1 >= 0, so the whole positive half
        half = np.flatnonzero(lattice.array[:, 0] >= 0)
        self.real_grid = _NullGrid(
            (*range(1 - dim, 0), -dim),
            half,
            p0[half],
            tuple(index[:, half]),
            (size // 2 + 1, *self.grid_shape[1:]),
            tuple(index[:, self.upper]),
            read[self.upper],
        )
        quadratic = spec.quadratic.reshape(dim * n, n, n)
        self.flux_matrix = quadratic.reshape(dim * n, n * n)
        # qbar(w, w): the n(n+1)/2 products f_i f_j with i <= j, against the
        # (i, j) and (j, i) columns folded into one
        self.pair_i, self.pair_j = np.triu_indices(n)
        off = self.pair_i != self.pair_j
        self.folded_flux_matrix = quadratic[:, self.pair_i, self.pair_j] + off * quadratic[:, self.pair_j, self.pair_i]

        # every coordinate triple (o at m, p at k, q at l) of every non-null
        # row with m in the positive half: coordinates lie in the row's branches
        basis, branch = spectrum.basis, spectrum.branch
        self.cobasis = np.ascontiguousarray(basis.transpose(0, 2, 1) @ spec.entropy_hessian)
        self.upper_basis = basis[self.upper]
        k, j1, l, j2, m, j3 = entries[~null_triple & (entries[:, 4] > zero_idx)].T
        o, p, q = (c.ravel() for c in np.indices((n, n, n)))
        row, coord = np.nonzero(
            (branch[m][:, o] == j3[:, None]) & (branch[k][:, p] == j1[:, None]) & (branch[l][:, q] == j2[:, None])
        )
        k, l, m, o, p, q = k[row], l[row], m[row], o[coord], p[coord], q[coord]
        flux = np.einsum("aijk,tj,tk->tai", spec.quadratic, basis[k, :, p], basis[l, :, q])
        coef = 1j * np.einsum("ta,ti,tai->t", lattice.array[m].astype(float), self.cobasis[m, o], flux)
        magnitude = np.abs(coef)
        rel = magnitude / max(magnitude.max(initial=0.0), np.finfo(float).tiny)
        keep = rel > DROP_TOL
        self.dropped = int(np.count_nonzero(~keep))
        self.drop_margin = (float(rel[~keep].max(initial=0.0)), float(rel[keep].min(initial=np.inf)))
        out = (m - (zero_idx + 1)) * n + o  # output coordinate in the positive half
        kept = np.flatnonzero(keep)
        kept = kept[np.argsort(out[kept], kind="stable")]
        out = out[kept]
        self.coef, self.idx1, self.idx2 = coef[kept], (k * n + p)[kept], (l * n + q)[kept]
        self.seg_starts = np.flatnonzero(np.diff(out, prepend=-1))
        self.seg_pos = out[self.seg_starts]
        self.terms = len(self.coef)
        self.coefficient_bytes = sum(a.nbytes for a in (self.coef, self.idx1, self.idx2, self.seg_starts, self.seg_pos))

    def _table(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """The table part of qbar(c1, c2) on the positive half, in the order of self.upper."""
        n = self.ncomp
        a1 = np.matmul(self.cobasis, c1[:, :, None]).ravel()
        a2 = a1 if c2 is c1 else np.matmul(self.cobasis, c2[:, :, None]).ravel()
        coords = np.zeros(len(self.upper) * n, dtype=complex)
        coords[self.seg_pos] = np.add.reduceat(a1[self.idx1] * a2[self.idx2] * self.coef, self.seg_starts)
        return np.matmul(self.upper_basis, coords.reshape(-1, n, 1))[:, :, 0]

    def _null(self, c1: np.ndarray, c2: np.ndarray, real: bool) -> np.ndarray:
        """The null part P0 (i m . q)(P0 c1, P0 c2), summed over k + l = m by one
        padded inverse and one forward transform.

        Reality-symmetric inputs take the real transform of the half-spectrum
        grid and are read out on the positive half; other inputs take the
        complex transform and are read out on self.halves.
        """
        n = self.ncomp
        grid = self.real_grid if real else self.complex_grid
        inputs = np.stack([c1] if c2 is c1 else [c1, c2])[:, grid.modes]  # the same input is transformed once
        projected = np.matmul(grid.p0, inputs[..., None])[..., 0]
        spectra = np.zeros((len(inputs), n, *grid.shape), dtype=complex)
        spectra[(slice(None), slice(None), *grid.index)] = projected.transpose(0, 2, 1)
        if real:
            fields = scipy.fft.irfftn(spectra, s=self.grid_shape, axes=grid.axes, norm="forward", overwrite_x=True)
        else:
            fields = scipy.fft.ifftn(spectra, axes=grid.axes, norm="forward", overwrite_x=True)
        fields = fields.reshape(len(inputs), n, -1)
        if c2 is c1:
            pair, matrix = fields[0][self.pair_i] * fields[0][self.pair_j], self.folded_flux_matrix
        else:
            pair, matrix = (fields[0][:, None] * fields[1][None, :]).reshape(n * n, -1), self.flux_matrix
        if real:
            flux = scipy.fft.rfftn((matrix @ pair).reshape(-1, *self.grid_shape), axes=grid.axes, norm="forward")
        else:
            # the real matrix times the complex products, as one real matmul on their (re, im) pairs
            flux = (matrix @ pair.view(float)).view(complex).reshape(-1, *self.grid_shape)
            flux = scipy.fft.fftn(flux, axes=grid.axes, norm="forward", overwrite_x=True)
        gathered = flux[(slice(None), *grid.out_index)]
        return np.matmul(grid.read, gathered.T[:, :, None])[:, :, 0]

    def apply(self, w1: SpectralState, w2: SpectralState) -> SpectralState:
        neg = self.lattice.negation
        c1, c2 = w1.coeffs, w2.coeffs
        if c2 is not c1 and np.array_equal(c1, c2):
            c2 = c1  # qbar(w, w) whatever the arrays: one input to transform, symmetric products
        m1 = c1[neg].conj()
        m2 = m1 if c2 is c1 else c2[neg].conj()
        # reality-symmetric inputs are their own mirrors
        real = np.array_equal(m1, c1) and (c2 is c1 or np.array_equal(m2, c2))
        out = np.zeros_like(c1)
        half = self._table(c1, c2)
        if real:
            if self.null_active:
                half += self._null(c1, c2, True)
            out[self.upper] = half
            out[neg[self.upper]] = half.conj()
        else:
            out[self.upper] = half
            out[neg[self.upper]] = self._table(m1, m2).conj()
            if self.null_active:
                out[self.halves] += self._null(c1, c2, False)
        return SpectralState(w1.lattice, out, w1.time)


def apply_averaged_quadratic(
    spec: SystemSpec,
    spectrum: Spectrum,
    table: ResonanceTable,
    w1: SpectralState,
    w2: SpectralState,
) -> SpectralState:
    """qbar(w1, w2): resonant projected interactions accumulated at m = k + l.

    Symmetric in its arguments (the kernel is symmetric and the table stores
    both orderings of every pair); preserves reality symmetry bit for bit.
    Null triples take one padded transform pair per call (real transforms
    for reality-symmetric inputs); the rest is a sparse sum of
    branch-coordinate coefficients on the positive half, mirrored: one table
    pass for reality-symmetric inputs, two otherwise.  ValueError unless
    `spectrum is table.spectrum`, `spec is spectrum.spec` and the states
    live on the table's lattice.
    """
    if spectrum is not table.spectrum or spec is not spectrum.spec:
        raise ValueError("qbar needs the resonance table's own spectrum and that spectrum's spec")
    if w1.lattice != table.lattice or w2.lattice != table.lattice:
        raise ValueError("states and resonance table live on different lattices")
    return table.quadratic.apply(w1, w2)


def apply_quadratic(spec: SystemSpec, w1: SpectralState, w2: SpectralState) -> SpectralState:
    """Unaveraged quadratic operator: the plain truncated convolution

        out(m) = sum_{k+l=m} (i m . q)(w1(k), w2(l)),

    by direct pair summation (no FFT, hence no aliasing ambiguity).  Used as
    the all-resonant oracle and inside the time-average oracle.
    """
    lattice = w1.lattice
    if w2.lattice != lattice:
        raise ValueError("states live on different lattices")
    pk, pl, pm, seg_starts, seg_modes = lattice.convolution_pairs()
    quad = np.einsum("aijk,tj,tk->tai", spec.quadratic, w1.coeffs[pk], w2.coeffs[pl])
    div = 1j * np.einsum("ta,tai->ti", lattice.array[pm].astype(float), quad)
    out = np.zeros_like(w1.coeffs)
    out[seg_modes] = np.add.reduceat(div, seg_starts, axis=0)
    return SpectralState(lattice, out, w1.time)


def quadratic_time_average_oracle(
    spec: SystemSpec,
    state: SpectralState,
    t_span: float,
    n_steps: int,
) -> SpectralState:
    """Trapezoidal average of e^{t A} Q(e^{-t A} w, e^{-t A} w) over [-T, T].

    Propagators are scipy matrix exponentials extended by batched powers;
    the convolution is the unaveraged operator.  Converges O(1/T) to the
    averaged quadratic form on the same state.
    """
    if t_span <= 0.0 or n_steps < 100:
        raise ValueError("need t_span > 0 and n_steps >= 100")
    lattice = state.lattice
    arr = lattice.array.astype(float)
    nmodes = len(lattice)
    n = spec.ncomp
    dt = t_span / n_steps
    steps = np.empty((nmodes, n, n), dtype=complex)
    for i in range(nmodes):
        steps[i] = scipy.linalg.expm(-1j * dt * advection_symbol(spec, arr[i]))

    pk, pl, pm, seg_starts, seg_modes = lattice.convolution_pairs()
    mvec = arr[pm]

    def integrand(back: np.ndarray) -> np.ndarray:
        evolved = np.einsum("bmpq,mq->bmp", back, state.coeffs)
        quad = np.einsum("aijk,btj,btk->btai", spec.quadratic, evolved[:, pk], evolved[:, pl])
        div = 1j * np.einsum("ta,btai->bti", mvec, quad)
        conv = np.zeros((back.shape[0], nmodes, n), dtype=complex)
        conv[:, seg_modes] = np.add.reduceat(div, seg_starts, axis=1)
        return np.einsum("bmpq,bmq->bmp", back.conj(), conv)

    coeffs = _trapezoid_average(steps, t_span, n_steps, QUADRATIC_ORACLE_CHUNK, integrand)
    return SpectralState(lattice, coeffs, state.time)


def _trapezoid_average(
    steps: np.ndarray,
    t_span: float,
    n_steps: int,
    chunk: int,
    integrand: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Trapezoidal average over [-T, T] of integrand(powers of the propagator), n_steps nodes per half-axis.

    `steps` (nmodes, N, N) advances one node spacing for t >= 0.  For real
    symbols the propagator at -t is the elementwise conjugate of the one at
    t, so the t <= 0 half-axis is the power stream of steps.conj(); each
    half-axis is one stream, and the halves share the t = 0 node, whose two
    endpoint half-weights combine to the interior trapezoid weight.
    `integrand` maps a block of powers (b, nmodes, N, N) to b samples.
    """
    dt = t_span / n_steps
    acc = 0.0
    for side_steps in (steps, steps.conj()):
        offset = 0
        for powers in _propagator_powers_stack(side_steps, n_steps + 1, chunk):
            nb = powers.shape[0]
            weights = np.full(nb, dt)
            if offset == 0:
                weights[0] = 0.5 * dt
            if offset + nb == n_steps + 1:
                weights[-1] = 0.5 * dt
            acc = acc + np.einsum("b,b...->...", weights, integrand(powers))
            offset += nb
    return acc / (2.0 * t_span)


def _propagator_powers_stack(steps: np.ndarray, count: int, chunk: int) -> Iterator[np.ndarray]:
    """Powers of a stack of per-mode propagators: yields (block, nmodes, N, N)."""
    nmodes, n, _ = steps.shape
    block = np.empty((min(chunk, count), nmodes, n, n), dtype=complex)
    block[0] = np.eye(n)
    size = 1
    while size < block.shape[0]:
        take = min(size, block.shape[0] - size)
        block[size : size + take] = np.einsum("mpq,bmqr->bmpr", block[size - 1] @ steps, block[:take])
        size += take
    carry = np.broadcast_to(np.eye(n, dtype=complex), (nmodes, n, n)).copy()
    stride = block[-1] @ steps
    done = 0
    while done < count:
        take = min(block.shape[0], count - done)
        yield np.einsum("mpq,bmqr->bmpr", carry, block[:take])
        carry = carry @ stride
        done += take


def cyclic_residual(
    spec: SystemSpec,
    spectrum: Spectrum,
    table: ResonanceTable,
    w1: SpectralState,
    w2: SpectralState,
    w3: SpectralState,
) -> float:
    """Normalized magnitude of the cyclic sum of entropy pairings of qbar.

    Each pairing is normalized by its Cauchy-Schwarz magnitude, the largest
    of the three setting the scale; the bare pairings themselves can all
    vanish (equal arguments), which must read as a zero residual, not 0/0.
    Vanishes to roundoff on validated entropic systems; this cancellation is
    the mechanism behind nonlinear energy neutrality.
    """
    q23 = apply_averaged_quadratic(spec, spectrum, table, w2, w3)
    q31 = apply_averaged_quadratic(spec, spectrum, table, w3, w1)
    q12 = apply_averaged_quadratic(spec, spectrum, table, w1, w2)
    t1 = inner_product(spec, w1, q23)
    t2 = inner_product(spec, w2, q31)
    t3 = inner_product(spec, w3, q12)
    scale = max(
        energy_norm(spec, w1) * energy_norm(spec, q23),
        energy_norm(spec, w2) * energy_norm(spec, q31),
        energy_norm(spec, w3) * energy_norm(spec, q12),
        1e-300,
    )
    return abs(t1 + t2 + t3) / scale


def resonance_csv_rows(table: ResonanceTable) -> Iterator[list]:
    """(k..., j1, l..., j2, j3, frequency defect) rows for export."""
    arr = table.lattice.array
    for row, defect in zip(table.entries, table.defects):
        ki, j1, li, j2, _, j3 = (int(x) for x in row)
        yield [*arr[ki].tolist(), j1, *arr[li].tolist(), j2, j3, float(defect)]


def diffusion_csv_rows(avg: AveragedDiffusion) -> Iterator[list]:
    """(mode..., row, col, Re, Im) entries of every averaged diffusion block."""
    arr = avg.lattice.array
    n = avg.blocks.shape[1]
    for i in range(len(avg.lattice)):
        for p in range(n):
            for q in range(n):
                val = avg.blocks[i, p, q]
                yield [*arr[i].tolist(), p, q, float(val.real), float(val.imag)]
