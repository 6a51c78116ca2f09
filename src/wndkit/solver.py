"""Spectral Galerkin time integration of the averaged system.

The evolution solved is

    d/dt w + A w + qbar(w, w) = dbar w,

block-diagonal per mode in its linear part: the generator at mode xi is
-i * sum_j omega_j p_j + dbar(xi).  Integrating-factor Runge-Kutta schemes
(midpoint and classical fourth order) advance the nonlinearity in the frame
of the exact per-mode linear propagator, computed once per step size as a
matrix exponential and cached.  The linear dynamics is therefore exact and
unconditionally stable; only the quadratic term carries time-stepping error.

A step advances the half: the coefficients of the zero mode and the positive
half, a (U + 1, n) array.  Every per-mode operator obeys X(-xi) =
conj(X(xi)) and so does every real field, so the rest adds nothing.  The
propagators are kept on the half, and qbar returns the half
(`_CompiledQuadratic.half`) of its input completed by the mirror.  The only
propagator applied is the half-step one, H = e^{dt/2 G}: the full-step one
is H H, so by linearity the classical scheme (T = -qbar(., .))

    k1 = T(u), k2 = T(H u + dt/2 H k1), k3 = T(H u + dt/2 k2),
    k4 = T(H (H u + dt k3)),
    u' = H H u + dt/6 (H H k1 + 2 H (k2 + k3) + k4)

is  u' = H (H u + dt/6 H k1 + dt/3 (k2 + k3)) + dt/6 k4:  four applies (H u,
H k1, H (H u + dt k3) and the last).  The midpoint scheme
u' = H (H u + dt k2), with k2 = T(H (u + dt/2 k1)), takes three.  `step`
gates its state, takes the half, advances it and completes it; `simulate`
gates the initial state once, advances the half from step to step and
completes a state only for a snapshot, so every snapshot is
reality-symmetric by construction.

Diagnostics accumulate the energy balance

    1/2 |w(t)|^2 - int_0^t (w | dbar w) dt'  =  1/2 |w(0)|^2

with the irregular-interval cumulative Simpson formula on the dissipation
samples (`_cumulative_simpson`, a port of scipy's `cumulative_simpson` with
`x` given that returns its bytes), and the budget residual is the defect of
this identity.  A filtered integration (group action removed, only dbar in
the exponent) is provided for the equivalence check w(t) = e^{-t A} y(t),
which holds exactly stage by stage for integrating-factor schemes because
both averaged operators commute with the group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .averaging import (
    FLOAT_RULE_TOL,
    AveragedDiffusion,
    ResonanceTable,
    apply_averaged_quadratic,
    averaged_diffusion,
    build_resonance_table,
)
from .spectral import FrequencyLattice, Mode, Spectrum, frequency_spectrum
from .state import SpectralState, energy_norm, evolve_state, require_fit, require_reality, sobolev_norm
from .system import SystemSpec

__all__ = [
    "BlowUpError",
    "WndOperators",
    "build_operators",
    "rhs",
    "step",
    "simulate",
    "DiagnosticsSeries",
    "filtered_equivalence_check",
    "weak_strong_experiment",
    "WeakStrongReport",
]

INTEGRATORS = ("if_rk2", "if_rk4")

BLOWUP_THRESHOLD = 1e12  # simulate raises BlowUpError once a coefficient magnitude exceeds this


class BlowUpError(RuntimeError):
    """A coefficient exceeded the blow-up threshold (or is not finite) during integration or at t = 0."""

    def __init__(self, mode: Mode, time: float, magnitude: float):
        self.mode, self.time, self.magnitude = mode, time, magnitude
        super().__init__(f"blow-up at mode {mode}, t = {time:.6g}, |coeff| = {magnitude:.3e}")


@dataclass(eq=False)
class WndOperators:
    """Everything needed to advance one system on one lattice; both are the spectrum's.

    `generator` holds the per-mode blocks -i sum_j omega_j p_j + dbar, and
    `omega_max` the fastest retained frequency.
    """

    spectrum: Spectrum
    avg: AveragedDiffusion
    table: ResonanceTable | None

    def __post_init__(self) -> None:
        # gen(-xi) = conj(gen(xi)) exactly for real symbols, as for the diffusion blocks
        zero = self.lattice.zero_index()
        asum = np.einsum("mj,mjpq->mpq", self.spectrum.frequencies[zero:], self.spectrum.projectors[zero:])
        self.generator = self.lattice.complete(-1j * asum + self.avg.blocks[zero:])
        self.omega_max = float(np.abs(self.spectrum.frequencies).max())
        self._propagators: dict[tuple[float, bool], np.ndarray] = {}

    @property
    def spec(self) -> SystemSpec:
        return self.spectrum.spec

    @property
    def lattice(self) -> FrequencyLattice:
        return self.spectrum.lattice

    def propagators(self, dt: float, filtered: bool) -> np.ndarray:
        """Cached per-mode matrix exponentials of dt * generator (of dt * dbar alone when
        `filtered`) on the zero mode and the positive half, (U + 1, n, n): the blocks a step applies.

        The blocks at -xi are their conjugates; `lattice.complete` adds them where a full
        lattice is wanted.
        """
        key = (float(dt), filtered)
        if key not in self._propagators:
            gen = self.avg.blocks if filtered else self.generator
            self._propagators[key] = scipy.linalg.expm(dt * gen[self.lattice.zero_index():])
        return self._propagators[key]


def build_operators(
    spec: SystemSpec,
    lattice: FrequencyLattice,
    resonance_tol: float = FLOAT_RULE_TOL,
    exact_rule=None,
    with_quadratic: bool = True,
) -> WndOperators:
    spectrum = frequency_spectrum(spec, lattice)
    avg = averaged_diffusion(spectrum)
    table = None
    if with_quadratic and np.abs(spec.quadratic).max() > 0.0:
        table = build_resonance_table(spectrum, resonance_tol, exact_rule)
    return WndOperators(spectrum, avg, table)


def _entry(ops: WndOperators, state: SpectralState) -> SpectralState:
    """The state, gated by `require_reality`; ValueError unless it has the operators' lattice and components."""
    require_fit(state, ops.lattice, ops.spec.ncomp, "operators")
    return require_reality(state)


def rhs(ops: WndOperators, state: SpectralState) -> SpectralState:
    """Tendency -A w - qbar(w, w) + dbar w, mode-wise; ValueError unless the state fits and is real."""
    state = _entry(ops, state)
    tendency = _apply(ops.generator, state.coeffs)
    if ops.table is not None:
        tendency -= apply_averaged_quadratic(ops.spec, ops.spectrum, ops.table, state, state).coeffs
    return SpectralState(state.lattice, tendency)


def _apply(props: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    return np.einsum("mpq,mq->mp", props, coeffs)


def _check_step(dt: float, method: str) -> None:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if method not in INTEGRATORS:
        raise ValueError(f"unknown integrator {method!r}; expected one of {INTEGRATORS}")


def step(
    ops: WndOperators,
    state: SpectralState,
    dt: float,
    method: str = "if_rk4",
    filtered: bool = False,
) -> SpectralState:
    """Advance one step; exact on the linear part for any dt.  ValueError unless the state fits and is real."""
    state = _entry(ops, state)
    _check_step(dt, method)
    half = _advance(ops, state.coeffs[ops.lattice.zero_index():], dt, method, filtered)
    return SpectralState(state.lattice, ops.lattice.complete(half))


def _tendency(ops: WndOperators, half: np.ndarray) -> np.ndarray:
    """-qbar(w, w) on the half, for the real field w whose half is `half`."""
    if ops.table is None:
        return np.zeros_like(half)
    coeffs = ops.lattice.complete(half)
    return -ops.table.quadratic.half(coeffs, coeffs)


def _advance(ops: WndOperators, half: np.ndarray, dt: float, method: str, filtered: bool) -> np.ndarray:
    """One IF-RK step of the half (U + 1, n), by the half-step propagator alone (module docstring)."""
    prop = ops.propagators(0.5 * dt, filtered)
    k1 = _tendency(ops, half)
    if method == "if_rk2":
        k2 = _tendency(ops, _apply(prop, half + 0.5 * dt * k1))
        return _apply(prop, _apply(prop, half) + dt * k2)
    u_half = _apply(prop, half)
    prop_k1 = _apply(prop, k1)
    k2 = _tendency(ops, u_half + 0.5 * dt * prop_k1)
    k3 = _tendency(ops, u_half + 0.5 * dt * k2)
    k4 = _tendency(ops, _apply(prop, u_half + dt * k3))
    return _apply(prop, u_half + (dt / 6.0) * prop_k1 + (dt / 3.0) * (k2 + k3)) + (dt / 6.0) * k4


def _check_finite(ops: WndOperators, half: np.ndarray, time: float) -> None:
    """BlowUpError unless every coefficient of the half is finite and at most BLOWUP_THRESHOLD.

    It names the mode the full lattice names: the first in lattice order to hold the first NaN
    or else the largest magnitude.  |w(-xi)| = |w(xi)|, so that is the mirror of the last half
    row to hold it (the zero mode when only its row does).
    """
    mags = np.abs(half)
    peak = float(mags.max())
    if np.isfinite(peak) and peak <= BLOWUP_THRESHOLD:
        return
    worst = np.isnan(mags) if np.isnan(peak) else mags == peak
    last = int(np.flatnonzero(worst.any(axis=1))[-1])
    raise BlowUpError(ops.lattice.modes[ops.lattice.zero_index() - last], time, peak)


@dataclass(eq=False)
class DiagnosticsSeries:
    """Time series of energy, dissipation, Sobolev norms and budget defects.

    `times` is the run's one clock, i dt at the snapshot after i steps."""

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray  # -(w | dbar w), nonnegative
    sobolev: dict[float, np.ndarray]
    budget_residual: np.ndarray

    def csv_rows(self):
        orders = sorted(self.sobolev)
        header = ["time", "energy", "dissipation"] + [f"h{s:g}_norm" for s in orders] + ["budget_residual"]
        yield header
        for i in range(len(self.times)):
            row = [self.times[i], self.energy[i], self.dissipation[i]]
            row += [self.sobolev[s][i] for s in orders]
            row.append(self.budget_residual[i])
            yield row


def whole_steps(t_end: float, dt: float) -> int:
    """The number of steps of dt that reach t_end; ValueError unless it is whole, to 1e-9 of max(t_end, dt),
    and at least one."""
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(t_end, dt):
        raise ValueError(f"t_end = {t_end:g} is not a whole number of steps of dt = {dt:g}")
    return n_steps


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The bytes of scipy's `cumulative_simpson(y, x=x, initial=0.0)` for 1-D float arrays.

    Eq. (8) of Cartwright's irregular-interval formula (scipy uses it whenever x is given)
    integrates each h1 interval forward and each h2 interval on the flipped arrays; they
    alternate, the last interval is an h2 one, and the cumulative sum of the pieces then has
    0.0 added, which makes a -0.0 partial sum +0.0.  Below three samples it is the trapezoid,
    with the 0.0 added as well.
    """
    if len(y) < 3:
        partial = _cumulative_trapezoid(y, x)[1:]
    else:
        dx = np.diff(x)
        h1 = _simpson_h1(y, dx)
        h2 = np.flip(_simpson_h1(np.flip(y), np.flip(dx)))
        pieces = np.empty(len(y) - 1)
        pieces[:-1:2] = h1[::2]
        pieces[1::2] = h2[::2]
        pieces[-1] = h2[-1]
        partial = np.cumsum(pieces)
    return np.concatenate(([0.0], partial + 0.0))


def _simpson_h1(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The integral over [x1, x2] of the parabola through (x1, y1), (x2, y2), (x3, y3), for every
    three consecutive samples, in scipy's order of operations."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The bytes of scipy's `cumulative_trapezoid(y, x, initial=0.0)` for 1-D float arrays: 0.0 is
    prepended, not added, so a -0.0 partial sum stays -0.0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def simulate(
    ops: WndOperators,
    initial: SpectralState,
    t_end: float,
    dt: float,
    method: str = "if_rk4",
    diagnostics_every: int = 10,
    sobolev_orders: Sequence[float] = (1.0,),
    filtered: bool = False,
    snapshot_hook: Callable[[SpectralState], None] | None = None,
) -> tuple[list[SpectralState], DiagnosticsSeries]:
    """Fixed-step integration with energy accounting.

    t_end must be a whole number of steps of dt, and the initial state must fit the
    operators and be real (ValueError otherwise): it passes the entry gate once, and the
    steps advance its half (module docstring).  Snapshots are full states taken every
    `diagnostics_every` steps (plus the final state), at the series' times: the gated
    initial state, copied bit for bit, and then the half completed by the mirror, so every
    snapshot is reality-symmetric.  Energy and dissipation are sampled after every step from
    the half, the zero mode weighted once and every other mode twice.  The budget residual
    reported at each snapshot is the defect of the energy identity accumulated from t = 0.
    BlowUpError once a coefficient is not finite or exceeds BLOWUP_THRESHOLD, from the gated
    initial state at t = 0 on.
    """
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("need t_end > 0 and dt > 0")
    if diagnostics_every < 1:
        raise ValueError("diagnostics_every must be >= 1")
    _check_step(dt, method)
    state = _entry(ops, initial)
    if ops.omega_max * dt > 0.5:
        warnings.warn(
            f"dt = {dt:g} under-resolves the fastest retained frequency "
            f"(omega_max = {ops.omega_max:g}); linear propagation stays exact "
            "but nonlinear stage accuracy may suffer",
            stacklevel=2,
        )
    n_steps = whole_steps(t_end, dt)

    spec, lattice = ops.spec, ops.lattice
    zero = lattice.zero_index()

    diss_samples = np.empty(n_steps + 1)
    energy_samples = np.empty(n_steps + 1)
    weights = np.full((len(lattice) - zero, 1), 2.0)  # a mode of the positive half stands for its mirror too
    weights[0] = 1.0
    diffusion = ops.avg.blocks[zero:]

    def record(i: int, half: np.ndarray) -> None:
        # (w | w) and (w | dbar w) share one matmul: w^H g is conj(w @ g), row by row
        weighted = weights * (half @ spec.entropy_hessian)
        energy_samples[i] = 0.5 * np.vdot(weighted, half).real
        diss_samples[i] = -np.vdot(weighted, _apply(diffusion, half)).real

    times = dt * np.arange(n_steps + 1)  # the run's one clock: the state after i steps is at t = i dt
    snap_indices: list[int] = []
    snapshots: list[SpectralState] = []
    half = state.coeffs[zero:]
    for i in range(n_steps + 1):
        if i:
            half = _advance(ops, half, dt, method, filtered)
        _check_finite(ops, half, float(times[i]))  # the gated initial state too, at t = 0
        record(i, half)
        if i % diagnostics_every == 0 or i == n_steps:
            snap_indices.append(i)
            snapshots.append(SpectralState(lattice, lattice.complete(half)) if i else state.copy())
            if snapshot_hook is not None:
                snapshot_hook(snapshots[-1])

    dissipated = _cumulative_simpson(diss_samples, times)
    idx = np.asarray(snap_indices)
    budget = energy_samples[idx] + dissipated[idx] - energy_samples[0]
    sobolev = {
        float(s): np.array([sobolev_norm(spec, snap, float(s)) for snap in snapshots])
        for s in sobolev_orders
    }
    series = DiagnosticsSeries(
        times=times[idx],
        energy=energy_samples[idx],
        dissipation=diss_samples[idx],
        sobolev=sobolev,
        budget_residual=budget,
    )
    return snapshots, series


def filtered_equivalence_check(
    ops: WndOperators,
    initial: SpectralState,
    t_end: float,
    dt: float,
    diagnostics_every: int = 10,
) -> float:
    """Sup over snapshots of the relative defect | w(t) - e^{-tA} y(t) |.

    y solves the filtered evolution d/dt y + qbar(y, y) = dbar y from the
    same data.  The two formulations are exactly equivalent, stage by stage,
    for integrating-factor schemes; the defect measures roundoff only.
    """
    full_snaps, _ = simulate(ops, initial, t_end, dt, diagnostics_every=diagnostics_every)
    filt_snaps, series = simulate(ops, initial, t_end, dt, diagnostics_every=diagnostics_every, filtered=True)
    worst = 0.0
    for t, w_snap, y_snap in zip(series.times, full_snaps, filt_snaps):
        unfiltered = evolve_state(ops.spectrum, t, y_snap)
        num = energy_norm(ops.spec, _diff_state(w_snap, unfiltered))
        den = max(energy_norm(ops.spec, w_snap), 1e-300)
        worst = max(worst, num / den)
    return worst


def _diff_state(a: SpectralState, b: SpectralState) -> SpectralState:
    return SpectralState(a.lattice, a.coeffs - b.coeffs)


@dataclass(frozen=True)
class WeakStrongReport:
    """`max_envelope_excess` is the largest excess of the separation over the envelope (and its
    slack) at any snapshot, 0.0 when the envelope holds; `holdout_excess` is the same over the
    snapshots after the first `fit_snapshots`, which the constant was fitted on."""

    fitted_constant: float
    fit_snapshots: int
    envelope_ok: bool
    max_envelope_excess: float
    holdout_excess: float
    energy_equality_defect: float
    max_difference: float
    initial_difference: float
    times: np.ndarray
    differences: np.ndarray
    envelope: np.ndarray


def weak_strong_experiment(
    ops: WndOperators,
    smooth_initial: SpectralState,
    perturbed_initial: SpectralState,
    t_end: float,
    dt: float,
    s: float,
    diagnostics_every: int = 10,
) -> WeakStrongReport:
    """Two-trajectory stability study against the Gronwall envelope

        |u2(t) - u1(t)|  <=  exp(C int_0^t |grad u1|_{H^s} dt') |u2(0) - u1(0)|.

    The sharp constant is not computable, so C is fitted as the smallest
    value making the bound hold on the first half of the run (the snapshots
    with t <= t_end / 2, to 1e-9 t_end, t = 0 included), then the envelope
    is checked at every snapshot, and on the out-of-sample ones after the
    first half alone.  The smooth trajectory's energy identity defect is
    reported alongside.
    """
    if s <= max(ops.spec.dim / 2.0, 1.0):
        raise ValueError("need s > max(d/2, 1)")
    snaps1, series1 = simulate(ops, smooth_initial, t_end, dt, diagnostics_every=diagnostics_every)
    snaps2, _ = simulate(ops, perturbed_initial, t_end, dt, diagnostics_every=diagnostics_every)

    times = series1.times
    grad_s = np.array([sobolev_norm(ops.spec, _grad_weight(snap), float(s)) for snap in snaps1])
    accumulated = _cumulative_trapezoid(grad_s, times)
    diffs = np.array(
        [energy_norm(ops.spec, _diff_state(a, b)) for a, b in zip(snaps2, snaps1)]
    )
    d0 = diffs[0]

    fit = int(np.count_nonzero(times <= 0.5 * t_end + 1e-9 * t_end))  # a prefix: the times increase
    fitted = 0.0
    if d0 > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.log(np.maximum(diffs, 1e-300) / d0) / np.where(accumulated > 0, accumulated, np.inf)
        fitted = max(0.0, float(np.nanmax(ratios[1:fit], initial=0.0)))
    envelope = d0 * np.exp(fitted * accumulated)
    slack = 1e-9 * max(d0, 1e-300)
    over = diffs - envelope - slack
    excess = float(np.max(over, initial=0.0))
    energy_defect = float(np.abs(series1.budget_residual).max())
    return WeakStrongReport(
        fitted_constant=fitted,
        fit_snapshots=fit,
        envelope_ok=bool(excess <= 0.0),
        max_envelope_excess=excess,
        holdout_excess=float(np.max(over[fit:], initial=0.0)),
        energy_equality_defect=energy_defect,
        max_difference=float(diffs.max()),
        initial_difference=float(d0),
        times=times,
        differences=diffs,
        envelope=envelope,
    )


def _grad_weight(state: SpectralState) -> SpectralState:
    """State with coefficients scaled by |xi| (spectral gradient magnitude)."""
    mags = np.sqrt((state.lattice.array.astype(float) ** 2).sum(axis=1))
    return SpectralState(state.lattice, state.coeffs * mags[:, None])
