"""Resonance-averaged diffusion and quadratic operators.

Long-time averaging of an operator conjugated by the unitary group
e^{-t A} keeps exactly the interactions whose frequencies cancel.  Per
mode, with p_j(xi) the spectral projector of branch j of the advection symbol:

    averaged diffusion   dbar(xi) = - sum_j p_j(xi) b(xi) p_j(xi)

    averaged quadratic   output at m = k + l accumulates
        p_j3(m) . (i m . q)( p_j1(k) w1(k), p_j2(l) w2(l) )
        over all triples with omega_j1(k) + omega_j2(l) = omega_j3(m).

The sign convention makes dbar the dissipative right-hand side: g dbar(xi)
is Hermitian nonpositive.  Both operators commute with the group action,
and the entropy structure gives the quadratic operator the cyclic identity

    (w1 | qbar(w2,w3)) + (w2 | qbar(w3,w1)) + (w3 | qbar(w1,w2)) = 0,

which is what makes the nonlinearity energy neutral.

Each projector has low rank (1 for an acoustic branch, 2 for a null
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
w2), computed whole as one pseudo-spectral product on a padded grid.  So
the resonance table stores only the other triples, the rows qbar reads,
and counts the null triples per k-block; the full table, for export, is
rebuilt from both one k-block at a time.  The build decides half the (k, l)
pairs and mirrors their rows onto the rest (the spectrum's -xi is the exact
mirror of xi), so the table is closed under negation by construction.

Resonance detection is the main correctness hazard: by default frequency
sums are matched with a relative tolerance, and callers with arithmetic
structure (the gas-dynamics instantiation) supply an exact predicate on the
spectrum's branch labels instead, which may first narrow the (k, l) pairs
by a `candidates` predicate on the integer modes.  Neither decides the null
triples: the table build accepts every one of them itself.  Output modes
falling outside the truncation are dropped, i.e. the sum is composed with
the Galerkin projection onto the retained modes.

Brute-force time-average oracles for both operators are provided; they sum
the trapezoidal nodes of the conjugated symbols by doubling, from
matrix-exponential propagators, sharing no code with the spectral formulas
they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
import scipy.fft
import scipy.linalg

from .spectral import FrequencyLattice, Spectrum, mode_csv_rows
from .state import SpectralState, energy_norm, inner_product, require_fit, require_reality
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

# (k, s1, l, s2, m, s3) on a grid of P pairs (k, l) by B^3 branch triples: (P, 1, 1, 1, d) int modes and
# (P, B, 1, 1), (P, 1, B, 1), (P, 1, 1, B) int8 branch labels (Spectrum.labels) -> (P, B, B, B) bools.
# Called once per grid of whole k-blocks; its arguments are read-only broadcast views.  A rule decides
# one half only, the pairs after (0, 0) in lattice order: the build mirrors its verdicts onto (-k, -l).
# The build accepts the all-null cells itself, so a rule decides only the others.  A rule may carry a
# `candidates` attribute, (k, l, m) read-only (P, d) int modes -> (P,) bools: the pairs that can hold a
# resonance off the all-null cells.  Only those reach the rule; without it, every pair of the half does.
ExactRule = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# grid cells ((k, l) pairs x branch triples) per resonance-rule call in the table build (bounds its
# transient memory; a larger k-block is one call).  The build enumerates at most RESONANCE_CHUNK_CELLS // B
# pairs at a time, whose pair-level arrays take about as much memory as one grid's
RESONANCE_CHUNK_CELLS = 65536

# the float rule's default: it accepts a frequency triple whose defect |omega1 + omega2 - omega3| is at most
# FLOAT_RULE_TOL times the largest frequency magnitude on the lattice
FLOAT_RULE_TOL = 1e-9

# branch-coordinate coefficients of qbar with |c| <= DROP_TOL * max|c| vanish
# by structure and are dropped at compile time
DROP_TOL = 1e-12

# eigenvalues of qbar's null-range Gram sum_m P0(m) with lambda <= NULL_RANK_TOL * max(lambda)
# are roundoff: the null range is spanned by the eigenvectors of the others
NULL_RANK_TOL = 1e-9


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
    # with p_j = B_j B_j^T g, dbar = -B (same-branch mask o B^T g b B) B^T g on the zero mode and the
    # positive half, completed: dbar(-xi) = conj(dbar(xi)) bit for bit, so stepping keeps real states real
    zero = lattice.zero_index()
    bsym = diffusion_symbol(spec, lattice.array[zero:].astype(float))
    basis, branch = spectrum.basis[zero:], spectrum.branch[zero:]
    cobasis = basis.transpose(0, 2, 1) @ spec.entropy_hessian
    same = branch[:, :, None] == branch[:, None, :]
    half = (-(basis @ np.where(same, cobasis @ bsym @ basis, 0.0) @ cobasis)).astype(complex)
    half[0] = 0.0  # the symbol vanishes there; +0.0, as the leading minus would print -0 in the CSV
    return AveragedDiffusion(lattice=lattice, blocks=lattice.complete(half))


def apply_averaged_diffusion(avg: AveragedDiffusion, state: SpectralState) -> SpectralState:
    """dbar w, mode-wise; ValueError unless the state has the blocks' lattice and components."""
    require_fit(state, avg.lattice, avg.blocks.shape[1], "an averaged diffusion")
    return SpectralState(state.lattice, np.einsum("mpq,mq->mp", avg.blocks, state.coeffs))


def averaged_diffusion_oracle(
    spec: SystemSpec,
    xi,
    t_span: float,
    n_steps: int,
) -> np.ndarray:
    """Trapezoidal time average of e^{i t a(xi)} (-b(xi)) e^{-i t a(xi)} on [-T, T].

    Independent of the projector route.  With U = expm(i dt a(xi)) from scipy,
    the samples X_j = U^j (-b) conj(U^j) are summed by doubling (see
    _doubled_trapezoid) under the rotation X -> U^p X conj(U^p); the t <= 0
    half-axis is the conjugate of the t >= 0 one (real symbols).  Converges to
    the averaged-diffusion block at rate O(1/T) (quasi-periodic integrand).
    """
    if t_span <= 0.0 or n_steps < 100:
        raise ValueError("need t_span > 0 and n_steps >= 100")
    dt = t_span / n_steps
    first = -diffusion_symbol(spec, xi).astype(complex)
    step = scipy.linalg.expm(1j * dt * advection_symbol(spec, xi))
    half = dt * _doubled_trapezoid(first, step, lambda u, x: u @ x @ u.conj(), n_steps)
    return (half + half.conj()) / (2.0 * t_span)


def _doubled_trapezoid(first: np.ndarray, step: np.ndarray, rotate: Callable, n_steps: int) -> np.ndarray:
    """Trapezoid node sum, in units of dt, of the samples X_j = R^j(first), j = 0..n_steps.

    rotate(U^p, X) = R^p(X) for a power U^p of the step propagator (one
    matrix, or a stack of one per mode).  The sums S(p) of the first p
    samples double as S(p + q) = S(p) + R^p(S(q)) along the binary digits of
    n_steps, least significant first, so n_steps nodes cost about
    log2(n_steps) rotations and squarings; the endpoints take half weight:
    S(n) + (X_n - X_0) / 2.
    """
    block_sum, block_power = first, step  # (S, U) of 2^k nodes
    identity = np.broadcast_to(np.eye(step.shape[-1], dtype=complex), step.shape)
    total, power = np.zeros_like(first), identity  # (S, U) of the nodes done
    for digit in bin(n_steps)[:1:-1]:
        if digit == "1":
            total = total + rotate(power, block_sum)
            power = power @ block_power
        block_sum = block_sum + rotate(block_power, block_sum)
        block_power = block_power @ block_power
    return total + 0.5 * (rotate(power, first) - first)


@dataclass(eq=False)
class ResonanceTable:
    """Resonant frequency triples (k, j1; l, j2; m=k+l, j3) of one spectrum.

    The branches j are the spectrum's, so the table lives on its lattice
    and serves only its system.  A row's columns: k index, j1, l index,
    j2, m index, j3; its defect is the measured frequency mismatch omega1 +
    omega2 - omega3 (pure eigensolve noise for rows admitted by an exact
    rule).  Rows come in table order: k ascending, then l, then (j1, j2,
    j3).  Symmetric: the (l, k) mirror of every row is present.  Closed
    under negation: the mirror (-k, j1'; -l, j2'; -m, j3') of every row is
    present, with j' = nfreq - 1 - j and its defect the negated one.

    Only what qbar reads is stored: `rows` (S, 6) and `row_defects` (S,),
    the accepted triples that are not null triples, in table order, and
    `null_counts` (M,), the number of null triples (all three branches
    null) in each k-block, n0(k) sum_l n0(l) n0(k + l) with n0 a mode's
    null branches.  The null triples are resonant for every pair of modes,
    so the table holds every one of them by construction, and qbar computes
    them whole without reading a row (see _CompiledQuadratic).  `blocks`
    rebuilds the full table one k-block at a time, the null triples merged
    back in with their defects; `entries`, `defects` and the CSV export
    read it, and `len` counts it.  The float rule accepts |defect| <=
    tolerance * scale; `closest_rejected` is the smallest |defect| it
    rejected (inf if none, nan under an exact rule).  qbar assumes both
    symmetries, which `build_resonance_table` builds in, so tables must
    come from it.  `quadratic` is qbar compiled for the table, on first use.
    """

    spectrum: Spectrum
    rows: np.ndarray  # (S, 6) int64
    row_defects: np.ndarray  # (S,) float
    null_counts: np.ndarray  # (M,) int64
    tolerance: float
    scale: float
    closest_rejected: float
    exact: bool

    def __len__(self) -> int:
        return len(self.rows) + int(self.null_counts.sum())

    @property
    def lattice(self) -> FrequencyLattice:
        return self.spectrum.lattice

    @property
    def entries(self) -> np.ndarray:
        """Every row of the table, (T, 6) int64 in table order, rebuilt on each access."""
        return np.concatenate([entries for entries, _ in self.blocks()])

    @property
    def defects(self) -> np.ndarray:
        """Every row's defect, (T,) in table order, rebuilt on each access."""
        return np.concatenate([defects for _, defects in self.blocks()])

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The full table one k-block at a time, in lattice order: (entries, defects) of the block.

        The block's stored rows are merged with its null triples in table
        order; a null triple's defect comes from the same flat gathers as
        the stored defects, so it has the bits a stored one would have.
        """
        spectrum, lattice = self.spectrum, self.lattice
        arr, radius, zero = lattice.array, lattice.radius, lattice.zero_index()
        null, width = spectrum.null, spectrum.frequencies.shape[1]
        flat = spectrum.frequencies.ravel()
        bounds = np.searchsorted(self.rows[:, 0], np.arange(len(lattice) + 1))
        for ki in range(len(lattice)):
            lis = np.flatnonzero((np.abs(arr[ki] + arr) <= radius).all(axis=1))
            mis = lis + (ki - zero)
            p, j1, j2, j3 = np.nonzero(
                null[ki][None, :, None, None] & null[lis][:, None, :, None] & null[mis][:, None, None, :]
            )
            li, mi = lis[p], mis[p]
            nulls = np.stack([np.full_like(li, ki), j1, li, j2, mi, j3], axis=1)
            null_defects = (flat.take(ki * width + j1) + flat.take(li * width + j2)) - flat.take(mi * width + j3)
            rows = self.rows[bounds[ki] : bounds[ki + 1]]
            entries = np.concatenate([rows, nulls])
            # within a k-block the table order is that of (l, j1, j2, j3)
            order = np.argsort(np.ravel_multi_index(tuple(entries[:, [2, 1, 3, 5]].T), (len(lattice),) + (width,) * 3))
            yield entries[order], np.concatenate([self.row_defects[bounds[ki] : bounds[ki + 1]], null_defects])[order]

    @cached_property
    def quadratic(self) -> _CompiledQuadratic:
        return _CompiledQuadratic(self)


def build_resonance_table(
    spectrum: Spectrum,
    tol: float = FLOAT_RULE_TOL,
    exact_rule: ExactRule | None = None,
) -> ResonanceTable:
    """Enumerate all resonant triples with k, l and k+l inside the spectrum's lattice.

    Only the pairs after (0, 0) in lattice order are decided: k in the
    positive half, or k = 0 and l in it.  The spectrum's -k is the exact
    mirror of k, so a decided triple's mirror (-k, j1'; -l, j2'; -m, j3'),
    j' = nfreq - 1 - j, has exactly the negated defect; negation reverses
    the table order, so the stored rows are the mirrored half's, reversed,
    then the half's, and the null counts at -k are those at k.

    The k-blocks from the zero mode on are enumerated once, a chunk of
    consecutive whole k-blocks at a time (at most RESONANCE_CHUNK_CELLS //
    B pairs, or one k-block), k ascending and then l.  Each k-block's null
    triples (cells whose three branches are all null) are counted there
    from pair-level integer arrays: they are resonant for every pair, and
    the table holds them by construction without storing them.  An exact
    rule with a `candidates` attribute proposes the pairs that can hold
    another resonance; every other rule, and the float rule, gets every
    pair of the half.  The proposed pairs, times the B^3 branch triples
    (j1, j2, j3), form (P, B, B, B) grids of consecutive whole k-blocks in
    table order, at most RESONANCE_CHUNK_CELLS cells each (one k-block if a
    single block is larger), each decided in one array call.  Generic
    detection accepts |omega1 + omega2 - omega3| <= tol * scale on the
    grid, with scale the largest frequency magnitude on the lattice
    (ValueError, naming the first k, if it rejects a null triple);
    floating-point near-resonances are the dominant hazard, so callers
    should pass an exact_rule (an array predicate on the branch labels, see
    ExactRule; ValueError unless it returns the (P, B, B, B) booleans, or
    its candidates the (P,) booleans) whenever the spectrum has arithmetic
    structure.

    The rule's arguments are read-only broadcast views: k, l and m of shape
    (P, 1, 1, 1, d) and the labels of shape (P, B, 1, 1), (P, 1, B, 1)
    and (P, 1, 1, B).  Cells of padded branches (j >= nfreq) are not
    candidates, whatever the verdict.  Only the accepted cells are decoded,
    into three flat indices (mode * B + branch) into the stacked
    frequencies, which drop the null triples, give the defects by flat
    gathers and, at the end, the (k, j1, l, j2, m, j3) rows by divmod.
    """
    lattice, freqs, nfreq, null = spectrum.lattice, spectrum.frequencies, spectrum.nfreq, spectrum.null
    scale = max(float(np.abs(freqs).max()), 1.0)
    arr, zero, radius = lattice.array, lattice.zero_index(), lattice.radius
    flat, width = freqs.ravel(), freqs.shape[1]
    # an accepted cell is stored when its three branches are real (j < nfreq) and not all null
    real_flat, null_flat = (np.arange(width) < nfreq[:, None]).ravel(), null.ravel()
    n0 = null.sum(axis=1)
    candidates = getattr(exact_rule, "candidates", None)
    cells = width**3
    # the l with k + l on the lattice form a box of prod_a (2R + 1 - |k_a|) modes;
    # ends[i] counts the pairs of the k-blocks before mode i
    ends = np.concatenate([[0], np.cumsum(np.prod(2 * radius + 1 - np.abs(arr), axis=1))])
    null_counts = np.zeros(len(lattice), dtype=np.int64)
    accepted, closest = [], np.inf
    start = zero
    while start < len(lattice):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] + RESONANCE_CHUNK_CELLS // width, side="right")) - 1)
        # the chunk's pairs, k ascending and then l: kp counts from start
        inside = np.ones((stop - start, len(lattice)), dtype=bool)
        for column in range(lattice.dim):
            inside &= np.abs(arr[start:stop, column, None] + arr[:, column]) <= radius
        kp, lis = np.nonzero(inside)
        kis = kp + start
        mis = lis + (kis - zero)  # index(k + l) = index(k) + index(l) - index(0)
        null_counts[start:stop] = np.bincount(kp, n0[kis] * n0[lis] * n0[mis], stop - start)
        after = (kis > zero) | (lis > zero)  # the pairs after (0, 0) in lattice order
        kis, lis, mis = kis[after], lis[after], mis[after]
        if candidates is not None:
            modes = tuple(arr.take(i, axis=0) for i in (kis, lis, mis))
            for a in modes:
                a.flags.writeable = False
            proposed = np.asarray(candidates(*modes))
            if proposed.dtype != bool or proposed.shape != kis.shape:
                raise ValueError(f"candidates returned {proposed.dtype} {proposed.shape}, expected {kis.shape} booleans")
            kis, lis, mis = kis[proposed], lis[proposed], mis[proposed]
        # the grids: consecutive whole k-blocks of the proposed pairs; bounds[i] counts the grid cells
        # of the chunk's k-blocks before block i
        bounds = np.searchsorted(kis, np.arange(start, stop + 1)) * cells
        first = 0
        while first < stop - start:
            last = max(first + 1, int(np.searchsorted(bounds, bounds[first] + RESONANCE_CHUNK_CELLS, side="right")) - 1)
            pairs = slice(bounds[first] // cells, bounds[last] // cells)
            first = last
            if pairs.start == pairs.stop:
                continue
            block, near = _decide(spectrum, kis[pairs], lis[pairs], mis[pairs], tol, scale, exact_rule)
            closest = min(closest, near)
            accepted.append(block[:, real_flat.take(block).all(axis=0) & ~null_flat.take(block).all(axis=0)])
        start = stop
    null_counts[:zero] = null_counts[:zero:-1]
    half = np.concatenate(accepted, axis=1) if accepted else np.zeros((3, 0), dtype=np.int64)
    # the pairs before (0, 0): the mirror of a triple is (-k, j1'; -l, j2'; -m, j3'), with j' = nfreq - 1 - j
    # the branch of -omega_j at -k, and negation reverses the table order
    mode, branch = np.divmod(half[:, ::-1], width)
    block = np.concatenate([lattice.negation[mode] * width + nfreq[mode] - 1 - branch, half], axis=1)
    row_defects = (flat.take(block[0]) + flat.take(block[1])) - flat.take(block[2])
    # (k, j1, l, j2, m, j3) columns from the flat (mode, branch) indices
    rows = np.stack(np.divmod(block.T, width), axis=2).reshape(-1, 6)
    return ResonanceTable(
        spectrum=spectrum,
        rows=rows,
        row_defects=row_defects,
        null_counts=null_counts,
        tolerance=tol,
        scale=scale,
        closest_rejected=np.nan if exact_rule is not None else float(closest),
        exact=exact_rule is not None,
    )


def _decide(
    spectrum: Spectrum,
    kis: np.ndarray,
    lis: np.ndarray,
    mis: np.ndarray,
    tol: float,
    scale: float,
    exact_rule: ExactRule | None,
) -> tuple[np.ndarray, float]:
    """One grid of pairs (kis, lis, mis) by the B^3 branch triples, decided: its accepted cells as (3, A)
    flat (mode, branch) indices in table order, padded and null ones included, and the float rule's
    smallest rejected |defect| on the real cells (inf under an exact rule)."""
    arr, width = spectrum.lattice.array, spectrum.frequencies.shape[1]
    grid = (len(kis), width, width, width)
    closest = np.inf
    if exact_rule is None:
        freqs, null, real = spectrum.frequencies, spectrum.null, np.arange(width) < spectrum.nfreq[:, None]
        w1, w2, w3 = (freqs.take(i, axis=0) for i in (kis, lis, mis))
        defect = (w1[:, :, None, None] + w2[:, None, :, None]) - w3[:, None, None, :]
        hit = np.abs(defect) <= tol * scale
        r1, r2, r3 = (real.take(i, axis=0) for i in (kis, lis, mis))
        valid = r1[:, :, None, None] & r2[:, None, :, None] & r3[:, None, None, :]
        closest = np.abs(defect[valid & ~hit]).min(initial=np.inf)
        # the all-null cells gather each side's (P, B) null mask to the (P, B^3) cells: a broadcast
        # over the inner (B, B) axes would run numpy's loops B elements at a time
        i1, i2, i3 = np.indices((width,) * 3).reshape(3, -1)
        z1, z2, z3 = (null.take(i, axis=0) for i in (kis, lis, mis))
        refused = (z1[:, i1] & z2[:, i2] & z3[:, i3]).reshape(grid) & ~hit
        if refused.any():
            name = tuple(arr[kis[np.flatnonzero(refused.any(axis=(1, 2, 3)))[0]]].tolist())
            raise ValueError(f"tolerance {tol:g} rejects null triples at k = {name}, whose defects exceed "
                             f"{tol * scale:.3e}; every null triple is resonant")
    else:
        k, l, m = (arr.take(i, axis=0)[:, None, None, None] for i in (kis, lis, mis))
        s1, s2, s3 = (spectrum.labels.take(i, axis=0) for i in (kis, lis, mis))
        args = (k, s1[:, :, None, None], l, s2[:, None, :, None], m, s3[:, None, None, :])
        for a in args:
            a.flags.writeable = False
        hit = np.asarray(exact_rule(*args))
        if hit.dtype != bool or hit.shape != grid:
            raise ValueError(f"exact_rule returned {hit.dtype} {hit.shape}, expected {grid} booleans")
    p, b1, b2, b3 = np.unravel_index(np.flatnonzero(hit), grid)
    return np.stack([kis[p] * width + b1, lis[p] * width + b2, mis[p] * width + b3]), float(closest)


class _CompiledQuadratic:
    """The averaged quadratic form of one table, compiled once (`ResonanceTable.quadratic`).

    Its inputs are real fields (`apply_averaged_quadratic` gates them), so
    qbar(w1, w2)(-m) = conj(qbar(w1, w2)(m)): the symbols are real and the
    table is closed under negation (by construction).  Only the positive
    half is computed, in one table pass and one null part: `half` returns it
    below a zero row for the zero mode (the divergence factor i*m vanishes
    there), which is how the solver's steps read qbar, and
    `apply_averaged_quadratic` completes it by the mirror.

    One set of arrays serves qbar(w, w) and qbar(w1, w2).  Both parts take
    products over unordered pairs (i, j): x[i] x[j] for qbar(w, w), and for
    distinct inputs the symmetrized (x1[i] x2[j] + x2[i] x1[j]) / 2 (see
    _pairs), so qbar(w1, w2) and qbar(w2, w1) are the same bits.  A call
    maps each input once, by the per-mode input map `inputs` (M, n + r, n):
    the cobasis rows B^T g, giving the branch coordinates a of the table
    part, stacked on the null-range rows E^T g P0 below.  It maps back once,
    by the output map `outputs` (U, n, n + d r) = [basis | read] on the U
    modes of the positive half.

    The table part: the stored rows (the table stores no null triple), with
    m in the positive half, are applied in branch coordinates (see the module
    docstring).  Each row expands to its coordinate triples (o at m, p at k,
    q at l), one interaction coefficient c each, a few scalars per row
    instead of a dense N x N^2 kernel.  Coefficients with |c| <= DROP_TOL *
    max|c| are structural zeros and are dropped.  The table holds both
    orderings of every pair, so the kept terms (k p, l q) and (l q, k p) at
    one output coordinate are folded into one unordered pair with their
    coefficients summed, sorted by output coordinate: one gather, multiply
    and reduceat per call.

    The null part: null triples, whose three branches all have zero frequency,
    are resonant for every pair of modes, so together they are the truncated
    convolution P0 Q(P0 w1, P0 w2), with P0(xi) the summed projector of the null
    branches at xi (the whole identity at the zero mode).  Off the zero mode
    every P0(m) maps into one null range of rank r (3 of 4 in the 2-D gas, 4 of
    5 in 3-D, 1 of 3 in 1-D, 0 in a system whose only null branch is the zero
    mode's), spanned by the g-orthonormal columns of E (n, r), read off the n x
    n Gram sum_m P0(m) of the positive half by one symmetric eigensolve (of
    g^{1/2} sum_m P0(m) g^{-1/2}, as the spectrum symmetrizes); its eigenvalues
    up to NULL_RANK_TOL times the largest are roundoff.  So P0(m) w(m) = E
    alpha(m) with alpha = E^T g P0 w, and as P0(m) = P0(m) E E^T g the output
    needs only E^T g of the flux.  The pairs with both k and l off the zero mode
    are computed pseudo-spectrally on a zero-padded grid of at least 3R+1 points
    per axis, on which no product of two retained modes aliases onto a retained
    mode: one real inverse transform of the r fields alpha per distinct input
    (scipy.fft.irfftn, halving the first axis: the modes with m_1 >= 0, the
    whole positive half), the r(r+1)/2 field products against the folded flux
    kernel E^T g q_a(E_s, E_t), and one real forward transform of the d r flux
    fields (scipy.fft.rfftn).  The pairs (m, 0) and (0, m) are pointwise linear
    in alpha(m): the zero-mode kernel E^T g q_a(E_s, w(0)) adds them to the same
    d r flux coordinates, which `read` = m_a P0(m) E maps back (with the factor
    i); when both inputs' zero-mode coefficients are exactly zero, as in every
    zero-mean field, the term is zero and is skipped.  When r = 0 the null part
    is zero and no transform runs.  Scatter and gather use flat indices.

    Plain attributes report what was compiled: `terms` (folded coefficients),
    `coefficient_bytes` (coefficient, index and segment arrays), `dropped`
    (ordered coefficients that are structural zeros), `drop_margin` (the
    largest dropped and the smallest kept |c|, both relative to max|c|),
    `null_rank` (r) and `null_margin` (the largest roundoff and the smallest
    kept Gram eigenvalue, both relative to the largest).
    """

    def __init__(self, table: ResonanceTable) -> None:
        spectrum, spec, lattice = table.spectrum, table.spectrum.spec, table.lattice
        n, dim, g = spec.ncomp, lattice.dim, spec.entropy_hessian
        zero_idx, upper = lattice.zero_index(), lattice.upper
        self.ncomp, self.zero_idx = n, zero_idx
        basis, branch, p0 = spectrum.basis, spectrum.branch, spectrum.null_projector

        # the null range: g-orthonormal E (n, r) from the Gram of the positive half's P0, symmetrized
        # as the spectrum is (g^{1/2} P0 g^{-1/2} is an orthogonal projector)
        root, inv_root = spec.metric_sqrt()
        gram = root @ p0[upper].sum(axis=0) @ inv_root
        evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
        rel = evals / max(evals.max(initial=0.0), np.finfo(float).tiny)
        in_range = rel > NULL_RANK_TOL
        e = inv_root @ evecs[:, in_range]
        r = self.null_rank = e.shape[1]
        self.null_margin = (float(np.abs(rel[~in_range]).max(initial=0.0)), float(rel[in_range].min(initial=np.inf)))
        eg = e.T @ g
        null_rows = eg @ p0  # (M, r, n); the zero mode enters by the linear term alone
        null_rows[zero_idx] = 0.0
        self.inputs = np.concatenate([basis.transpose(0, 2, 1) @ g, null_rows], axis=1)
        width = n + r
        read = lattice.array[upper, None, :, None] * (p0[upper] @ e)[:, :, None, :]  # (U, n, d, r)
        self.outputs = np.concatenate([basis[upper], read.reshape(len(upper), n, dim * r)], axis=2)

        # the null part's kernels, each row (a, rho) the flux coordinate E^T g q_a: the folded
        # (d r, r(r+1)/2) flux kernel of the field products f_s f_t, s <= t, and the (d r r, n)
        # zero-mode kernel that gives the (d r, r) map alpha(m) -> E^T g q_a(E alpha(m), w(0))
        self.pair_i, self.pair_j = np.triu_indices(r)
        kernel = np.einsum("ri,aijk,js,kt->arst", eg, spec.quadratic, e, e)
        off = self.pair_i != self.pair_j
        folded = kernel[..., self.pair_i, self.pair_j] + off * kernel[..., self.pair_j, self.pair_i]
        self.flux_kernel = folded.reshape(dim * r, len(off))
        self.zero_kernel = np.einsum("ri,aijk,js->arsk", eg, spec.quadratic, e).reshape(dim * r * r, n)
        # the padded grid, its transform axes (scipy halves the last) and the half-spectrum grid;
        # the flat scatter from the inputs' null-range coordinates (modes with m_1 >= 0) into the
        # half-spectrum fields, and the flat gather of the flux at the positive half
        size = scipy.fft.next_fast_len(3 * lattice.radius + 1, real=True)
        self.grid_shape = (size,) * dim
        self.null_axes = (*range(1 - dim, 0), -dim)
        self.spectrum_shape = (size // 2 + 1, *self.grid_shape[1:])
        self.spectrum_size = int(np.prod(self.spectrum_shape))
        half_grid = np.flatnonzero(lattice.array[:, 0] >= 0)
        scatter_at, self.gather_at = (
            np.ravel_multi_index(tuple((lattice.array[modes] % size).T), self.spectrum_shape) for modes in (half_grid, upper)
        )
        rho = np.arange(r)[:, None]
        self.scatter_from = (half_grid * width + n + rho).ravel()
        self.scatter_to = (rho * self.spectrum_size + scatter_at).ravel()
        # the null-range coordinates alpha(m) of the positive half, which the zero-mode kernel reads
        self.upper_null = (upper[:, None] * width + n + rho.T).ravel()

        # the table part: every coordinate triple (o at m, p at k, q at l) of every
        # stored row with m in the positive half; coordinates lie in the row's branches
        rows = table.rows
        k, j1, l, j2, m, j3 = rows[rows[:, 4] > zero_idx].T
        o, p, q = (c.ravel() for c in np.indices((n, n, n)))
        row, coord = np.nonzero(
            (branch[m][:, o] == j3[:, None]) & (branch[k][:, p] == j1[:, None]) & (branch[l][:, q] == j2[:, None])
        )
        k, l, m, o, p, q = k[row], l[row], m[row], o[coord], p[coord], q[coord]
        flux = np.einsum("aijk,tj,tk->tai", spec.quadratic, basis[k, :, p], basis[l, :, q])
        coef = 1j * np.einsum("ta,ti,tai->t", lattice.array[m].astype(float), self.inputs[m, o], flux)
        magnitude = np.abs(coef)
        rel = magnitude / max(magnitude.max(initial=0.0), np.finfo(float).tiny)
        keep = rel > DROP_TOL
        self.dropped = int(np.count_nonzero(~keep))
        self.drop_margin = (float(rel[~keep].max(initial=0.0)), float(rel[keep].min(initial=np.inf)))
        # fold the kept terms (k p, l q) and (l q, k p) at one output coordinate into one unordered pair
        # of flat input coordinates; the keys sort by output coordinate
        span = len(lattice) * width
        first, second = k * width + p, l * width + q
        key = ((m - (zero_idx + 1)) * n + o) * span * span + np.minimum(first, second) * span + np.maximum(first, second)
        kept = np.flatnonzero(keep)
        kept = kept[np.argsort(key[kept], kind="stable")]
        starts = np.flatnonzero(np.diff(key[kept], prepend=-1))
        self.coef = np.add.reduceat(coef[kept], starts)
        out, pair = np.divmod(key[kept[starts]], span * span)
        self.idx1, self.idx2 = np.divmod(pair, span)
        self.seg_starts = np.flatnonzero(np.diff(out, prepend=-1))
        self.seg_pos = out[self.seg_starts]
        self.terms = len(self.coef)
        self.coefficient_bytes = sum(a.nbytes for a in (self.coef, self.idx1, self.idx2, self.seg_starts, self.seg_pos))

    def _coordinates(self, c: np.ndarray) -> np.ndarray:
        """The input map of every mode's coefficients, flat (M (n + r),): a real matmul on the complex pairs."""
        pairs = np.ascontiguousarray(c).view(float).reshape(len(c), self.ncomp, 2)
        return np.matmul(self.inputs, pairs).view(complex).ravel()

    def _table(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """The table part's branch coordinates on the positive half, (U, n)."""
        coords = np.zeros(self.outputs.shape[0] * self.ncomp, dtype=complex)
        coords[self.seg_pos] = np.add.reduceat(_pairs(x1, x2, self.idx1, self.idx2) * self.coef, self.seg_starts)
        return coords.reshape(-1, self.ncomp)

    def _null(self, x1: np.ndarray, x2: np.ndarray, zero1: np.ndarray, zero2: np.ndarray) -> np.ndarray:
        """The null part's flux coordinates E^T g (i m . F)(m) on the positive half, (U, d r), from one padded
        real inverse transform per distinct input and one real forward transform."""
        r = self.null_rank
        inputs = x1[None] if x2 is x1 else np.stack([x1, x2])  # the same input is transformed once
        spectra = np.zeros((len(inputs), r * self.spectrum_size), dtype=complex)
        spectra[:, self.scatter_to] = inputs[:, self.scatter_from]
        spectra = spectra.reshape(len(inputs), r, *self.spectrum_shape)
        fields = scipy.fft.irfftn(spectra, s=self.grid_shape, axes=self.null_axes, norm="forward", overwrite_x=True)
        f1 = fields[0].reshape(r, -1)
        products = _pairs(f1, f1 if x2 is x1 else fields[1].reshape(r, -1), self.pair_i, self.pair_j)
        flux = scipy.fft.rfftn((self.flux_kernel @ products).reshape(-1, *self.grid_shape), axes=self.null_axes,
                               norm="forward")
        flux = flux.reshape(len(flux), -1)[:, self.gather_at].T
        # the pairs (m, 0) and (0, m), linear in alpha(m) and zero when both zero modes are; for one
        # input the two terms are one
        if zero1.any() or zero2.any():
            linear = x1[self.upper_null].reshape(-1, r) @ (self.zero_kernel @ zero2).reshape(-1, r).T
            if x2 is x1:
                linear += linear
            else:
                linear += x2[self.upper_null].reshape(-1, r) @ (self.zero_kernel @ zero1).reshape(-1, r).T
            flux += linear
        flux *= 1j
        return flux

    def half(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """qbar of two real fields, given by their coefficients on every mode, on the zero mode and
        the positive half, (U + 1, n): one table pass and the null part, with a zero row for the
        zero mode.  Ungated: `apply_averaged_quadratic` and the solver's steps pass it real fields."""
        if c2 is not c1 and np.array_equal(c1, c2):
            c2 = c1  # qbar(w, w) whatever the arrays: one input to transform, symmetric products
        x1 = self._coordinates(c1)
        x2 = x1 if c2 is c1 else self._coordinates(c2)
        n = self.ncomp
        stacked = np.empty((len(self.outputs), self.outputs.shape[2]), dtype=complex)
        stacked[:, :n] = self._table(x1, x2)
        if self.null_rank:
            stacked[:, n:] = self._null(x1, x2, c1[self.zero_idx], c2[self.zero_idx])
        out = np.zeros((len(stacked) + 1, n, 2))  # the zero mode's row stays zero
        np.matmul(self.outputs, stacked.view(float).reshape(*stacked.shape, 2), out=out[1:])
        return out.view(complex)[:, :, 0]


def _pairs(x1: np.ndarray, x2: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """x1[i] x2[j] of one input (x2 is x1); of two, the symmetrized (x1[i] x2[j] + x2[i] x1[j]) / 2,
    the same bits whichever input comes first."""
    if x2 is x1:
        return x1[i] * x1[j]
    return 0.5 * (x1[i] * x2[j] + x2[i] * x1[j])


def apply_averaged_quadratic(
    spec: SystemSpec,
    spectrum: Spectrum,
    table: ResonanceTable,
    w1: SpectralState,
    w2: SpectralState,
) -> SpectralState:
    """qbar(w1, w2): resonant projected interactions accumulated at m = k + l.

    Symmetric in its arguments (the kernel is symmetric and the table stores
    both orderings of every pair).  Takes real fields: each distinct input
    passes the entry gate `state.require_reality`, and the compiled half
    (see _CompiledQuadratic) is completed by the mirror, reality-symmetric
    bit for bit.  ValueError unless `spectrum is table.spectrum`, `spec is
    spectrum.spec`, the states fit the table and each is real.
    """
    if spectrum is not table.spectrum or spec is not spectrum.spec:
        raise ValueError("qbar needs the resonance table's own spectrum and that spectrum's spec")
    require_fit(w1, table.lattice, spec.ncomp, "a resonance table")
    require_fit(w2, table.lattice, spec.ncomp, "a resonance table")
    c1 = require_reality(w1).coeffs
    c2 = c1 if w2 is w1 else require_reality(w2).coeffs
    return SpectralState(w1.lattice, table.lattice.complete(table.quadratic.half(c1, c2)))


def apply_quadratic(spec: SystemSpec, w1: SpectralState, w2: SpectralState) -> SpectralState:
    """Unaveraged quadratic operator: the plain truncated convolution

        out(m) = sum_{k+l=m} (i m . q)(w1(k), w2(l)),

    by direct pair summation (no FFT, hence no aliasing ambiguity).  Used as
    the all-resonant oracle.  ValueError unless both states have w1's lattice
    and the spec's components.
    """
    lattice = w1.lattice
    for w in (w1, w2):
        require_fit(w, lattice, spec.ncomp, "a spec")
    pk, pl, pm, seg_starts, seg_modes = lattice.convolution_pairs()
    quad = np.einsum("aijk,tj,tk->tai", spec.quadratic, w1.coeffs[pk], w2.coeffs[pl])
    div = 1j * np.einsum("ta,tai->ti", lattice.array[pm].astype(float), quad)
    out = np.zeros(w1.coeffs.shape, dtype=complex)
    out[seg_modes] = np.add.reduceat(div, seg_starts)
    return SpectralState(lattice, out)


def quadratic_time_average_oracle(
    spec: SystemSpec,
    state: SpectralState,
    t_span: float,
    n_steps: int,
) -> SpectralState:
    """Trapezoidal average of e^{t A} Q(e^{-t A} w, e^{-t A} w) over [-T, T].

    The average is linear in a per-pair kernel: for every convolution pair
    (k, l; m = k + l) of the lattice, with K = i m . q and the scipy step
    U = expm(-i dt a) per mode, node j samples X_j = conj(U_m^j) K (U_k^j x
    U_l^j), and the output at m sums the averaged kernel against
    w(k) x w(l) over its pairs.  The nodes are summed by doubling (see
    _doubled_trapezoid; three matmuls per rotation).  As the symbols are
    real and K is imaginary, the t <= 0 half-axis is minus the conjugate of
    the t >= 0 one, and the kernel of (-k, -l) is the conjugate of that of
    (k, l), so only half the pairs are summed.  Independent of the
    spectrum, table and FFT routes.  Converges O(1/T) to the averaged
    quadratic form on the same state.

    Memory goes with the pairs, not the nodes: a few (pairs / 2, N, N, N)
    complex arrays.  On the gas the process peaked at 78 MB at 2-D R=4,
    111 MB at 3-D R=2 and 376 MB at 3-D R=3, the import included.
    """
    if t_span <= 0.0 or n_steps < 100:
        raise ValueError("need t_span > 0 and n_steps >= 100")
    lattice, n = state.lattice, spec.ncomp
    pk, pl, pm, seg_starts, seg_modes = lattice.convolution_pairs()
    # pair P - 1 - t is the mirror (-k, -l) of pair t, and its kernel the conjugate (real
    # symbols), so the pairs up to the middle one, (0, 0), carry them all
    hk, hl, hm = (p[: len(p) // 2 + 1] for p in (pk, pl, pm))
    dt = t_span / n_steps
    step = scipy.linalg.expm(-1j * dt * advection_symbol(spec, lattice.array.astype(float)))
    kernel = 1j * (lattice.array[hm].astype(float) @ spec.quadratic.reshape(spec.dim, -1)).reshape(-1, n, n, n)

    def rotate(u: np.ndarray, x: np.ndarray) -> np.ndarray:
        # conj(U_m) on the output axis, then U_l and U_k on the input axes, each as the last
        y = (u[hm].conj() @ x.reshape(-1, n, n * n)).reshape(-1, n * n, n) @ u[hl]
        y = y.reshape(-1, n, n, n).swapaxes(-1, -2).reshape(-1, n * n, n) @ u[hk]
        return y.reshape(-1, n, n, n).swapaxes(-1, -2)

    half = dt * _doubled_trapezoid(kernel, step, rotate, n_steps)
    avg = (half - half.conj()) / (2.0 * t_span)
    avg = np.concatenate([avg, avg[-2::-1].conj()])
    out = np.zeros(state.coeffs.shape, dtype=complex)
    out[seg_modes] = np.add.reduceat(np.einsum("tijk,tj,tk->ti", avg, state.coeffs[pk], state.coeffs[pl]), seg_starts)
    return SpectralState(lattice, out)


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
    """(k..., j1, l..., j2, j3, frequency defect) rows for export, one k-block of the full table at a time."""
    modes = table.lattice.modes
    for entries, defects in table.blocks():
        for (ki, j1, li, j2, _, j3), defect in zip(entries.tolist(), defects.tolist()):
            yield [*modes[ki], j1, *modes[li], j2, j3, defect]


def diffusion_csv_rows(avg: AveragedDiffusion) -> Iterator[list]:
    """(mode..., row, col, Re, Im) entries of every averaged diffusion block."""
    return mode_csv_rows(avg.lattice, avg.blocks)
