"""Spectral Galerkin time integration of the averaged system.

The evolution solved is

    d/dt w + A w + qbar(w, w) = dbar w,

block-diagonal per mode in its linear part: the generator at mode xi is
-i * sum_j omega_j p_j + dbar(xi).  Integrating-factor Runge-Kutta schemes
(midpoint and classical fourth order) advance the nonlinearity in the frame
of the exact per-mode linear propagator, computed once per step size as a
matrix exponential and cached.  The linear dynamics is therefore exact and
unconditionally stable; only the quadratic term carries time-stepping error.

Diagnostics accumulate the energy balance

    1/2 |w(t)|^2 - int_0^t (w | dbar w) dt'  =  1/2 |w(0)|^2

with a composite-Simpson quadrature of the dissipation samples, and the
budget residual is the defect of this identity.  A filtered integration
(group action removed, only dbar in the exponent) is provided for the
equivalence check w(t) = e^{-t A} y(t), which holds exactly stage by stage
for integrating-factor schemes because both averaged operators commute with
the group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg

from .averaging import (
    AveragedDiffusion,
    ResonanceTable,
    apply_averaged_quadratic,
    averaged_diffusion,
    build_resonance_table,
)
from .spectral import FrequencyLattice, Mode, Spectrum, frequency_spectrum
from .state import SpectralState, energy_norm, evolve_state, sobolev_norm
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
    """A coefficient exceeded the blow-up threshold during integration."""

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
        asum = np.einsum("mj,mjpq->mpq", self.spectrum.frequencies, self.spectrum.projectors)
        # enforce the exact mirror identity a(-xi) = -a(xi); together with the
        # mirrored diffusion blocks this makes the per-mode generator satisfy
        # gen(-xi) = conj(gen(xi)) bitwise, so stepping preserves reality
        upper = self.lattice.upper
        asum[self.lattice.negation[upper]] = -asum[upper]
        self.generator = -1j * asum + self.avg.blocks
        self.omega_max = float(np.abs(self.spectrum.frequencies).max())
        self._propagators: dict[tuple[float, bool], np.ndarray] = {}

    @property
    def spec(self) -> SystemSpec:
        return self.spectrum.spec

    @property
    def lattice(self) -> FrequencyLattice:
        return self.spectrum.lattice

    def quadratic_tendency(self, state: SpectralState) -> np.ndarray:
        if self.table is None:
            return np.zeros_like(state.coeffs)
        out = apply_averaged_quadratic(self.spec, self.spectrum, self.table, state, state)
        return out.coeffs

    def propagators(self, dt: float, filtered: bool) -> np.ndarray:
        """Cached per-mode matrix exponentials of dt * generator.

        Only the lexicographically nonnegative half is exponentiated; the
        mirror half is its exact conjugate, keeping stepping reality-exact.
        """
        key = (float(dt), filtered)
        props = self._propagators.get(key)
        if props is None:
            gen = self.avg.blocks if filtered else self.generator
            props = np.empty_like(gen)
            half = np.arange(self.lattice.zero_index(), gen.shape[0])
            props[half] = scipy.linalg.expm(dt * gen[half])
            # the zero mode is its own mirror and takes the conjugate too
            props[self.lattice.negation[half]] = props[half].conj()
            self._propagators[key] = props
        return props


def build_operators(
    spec: SystemSpec,
    lattice: FrequencyLattice,
    resonance_tol: float = 1e-9,
    exact_rule=None,
    with_quadratic: bool = True,
) -> WndOperators:
    spectrum = frequency_spectrum(spec, lattice)
    avg = averaged_diffusion(spectrum)
    table = None
    if with_quadratic and np.abs(spec.quadratic).max() > 0.0:
        table = build_resonance_table(spectrum, resonance_tol, exact_rule)
    return WndOperators(spectrum, avg, table)


def rhs(ops: WndOperators, state: SpectralState) -> SpectralState:
    """Tendency -A w - qbar(w, w) + dbar w, mode-wise."""
    lin = np.einsum("mpq,mq->mp", ops.generator, state.coeffs)
    return SpectralState(state.lattice, lin - ops.quadratic_tendency(state), state.time)


def _stage_rhs(ops: WndOperators, coeffs: np.ndarray, template: SpectralState) -> np.ndarray:
    return -ops.quadratic_tendency(SpectralState(template.lattice, coeffs, template.time))


def _apply(props: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    return np.einsum("mpq,mq->mp", props, coeffs)


def step(
    ops: WndOperators,
    state: SpectralState,
    dt: float,
    method: str = "if_rk4",
    filtered: bool = False,
) -> SpectralState:
    """Advance one step; exact on the linear part for any dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if method not in INTEGRATORS:
        raise ValueError(f"unknown integrator {method!r}; expected one of {INTEGRATORS}")
    full = ops.propagators(dt, filtered)
    coeffs = state.coeffs
    if method == "if_rk2":
        k1 = _stage_rhs(ops, coeffs, state)
        mid = ops.propagators(0.5 * dt, filtered)
        k2 = _stage_rhs(ops, _apply(mid, coeffs + 0.5 * dt * k1), state)
        new = _apply(full, coeffs) + dt * _apply(mid, k2)
    else:
        half = ops.propagators(0.5 * dt, filtered)
        k1 = _stage_rhs(ops, coeffs, state)
        u_half = _apply(half, coeffs)
        k2 = _stage_rhs(ops, u_half + 0.5 * dt * _apply(half, k1), state)
        k3 = _stage_rhs(ops, u_half + 0.5 * dt * k2, state)
        k4 = _stage_rhs(ops, _apply(half, u_half + dt * k3), state)
        new = (
            _apply(full, coeffs)
            + (dt / 6.0) * (_apply(full, k1) + 2.0 * _apply(half, k2 + k3) + k4)
        )
    return SpectralState(state.lattice, new, state.time + dt)


def _check_finite(ops: WndOperators, coeffs: np.ndarray, time: float) -> None:
    mags = np.abs(coeffs)
    worst = int(np.argmax(mags))
    peak = float(mags.flat[worst])
    if not np.isfinite(peak) or peak > BLOWUP_THRESHOLD:
        mode_idx, comp = divmod(worst, coeffs.shape[1])
        raise BlowUpError(ops.lattice.modes[mode_idx], time, peak)


@dataclass(eq=False)
class DiagnosticsSeries:
    """Time series of energy, dissipation, Sobolev norms and budget defects."""

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
    """The number of steps of dt that reach t_end; ValueError unless whole."""
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end = {t_end:g} is not a whole number of steps of dt = {dt:g}")
    return n_steps


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

    t_end must be a whole number of steps of dt (ValueError otherwise).
    Snapshots are full states taken every `diagnostics_every` steps (plus the
    final state).  The budget residual reported at each snapshot is the
    defect of the energy identity accumulated from t = 0.
    """
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("need t_end > 0 and dt > 0")
    if diagnostics_every < 1:
        raise ValueError("diagnostics_every must be >= 1")
    if ops.omega_max * dt > 0.5:
        warnings.warn(
            f"dt = {dt:g} under-resolves the fastest retained frequency "
            f"(omega_max = {ops.omega_max:g}); linear propagation stays exact "
            "but nonlinear stage accuracy may suffer",
            stacklevel=2,
        )
    n_steps = whole_steps(t_end, dt)

    spec = ops.spec
    state = initial.copy()
    energy0 = 0.5 * energy_norm(spec, state) ** 2

    diss_samples = np.empty(n_steps + 1)
    energy_samples = np.empty(n_steps + 1)

    def record(i: int, st: SpectralState) -> None:
        energy_samples[i] = 0.5 * energy_norm(spec, st) ** 2
        diss = np.einsum(
            "mp,pq,mq->", st.coeffs.conj(), spec.entropy_hessian,
            np.einsum("mpq,mq->mp", ops.avg.blocks, st.coeffs),
        ).real
        diss_samples[i] = -diss

    record(0, state)
    snap_indices = [0]
    snapshots = [state.copy()]
    if snapshot_hook is not None:
        snapshot_hook(snapshots[-1])

    for i in range(1, n_steps + 1):
        state = step(ops, state, dt, method, filtered=filtered)
        _check_finite(ops, state.coeffs, state.time)
        record(i, state)
        if i % diagnostics_every == 0 or i == n_steps:
            snap_indices.append(i)
            snapshots.append(state.copy())
            if snapshot_hook is not None:
                snapshot_hook(snapshots[-1])

    times = dt * np.arange(n_steps + 1)
    dissipated = scipy.integrate.cumulative_simpson(diss_samples, x=times, initial=0.0)
    idx = np.asarray(snap_indices)
    budget = energy_samples[idx] + dissipated[idx] - energy0
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
    method: str = "if_rk4",
    diagnostics_every: int = 10,
) -> float:
    """Sup over snapshots of the relative defect | w(t) - e^{-tA} y(t) |.

    y solves the filtered evolution d/dt y + qbar(y, y) = dbar y from the
    same data.  The two formulations are exactly equivalent, stage by stage,
    for integrating-factor schemes; the defect measures roundoff only.
    """
    full_snaps, _ = simulate(ops, initial, t_end, dt, method, diagnostics_every)
    filt_snaps, _ = simulate(ops, initial, t_end, dt, method, diagnostics_every, filtered=True)
    worst = 0.0
    for w_snap, y_snap in zip(full_snaps, filt_snaps):
        unfiltered = evolve_state(ops.spectrum, y_snap.time, y_snap)
        num = energy_norm(ops.spec, _diff_state(w_snap, unfiltered))
        den = max(energy_norm(ops.spec, w_snap), 1e-300)
        worst = max(worst, num / den)
    return worst


def _diff_state(a: SpectralState, b: SpectralState) -> SpectralState:
    return SpectralState(a.lattice, a.coeffs - b.coeffs, a.time)


@dataclass(frozen=True)
class WeakStrongReport:
    fitted_constant: float
    envelope_ok: bool
    max_envelope_excess: float
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
    method: str = "if_rk4",
    diagnostics_every: int = 10,
) -> WeakStrongReport:
    """Two-trajectory stability study against the Gronwall envelope

        |u2(t) - u1(t)|  <=  exp(C int_0^t |grad u1|_{H^s} dt') |u2(0) - u1(0)|.

    The sharp constant is not computable, so C is fitted as the smallest
    value making the bound hold on the first half of the run, then the
    envelope is checked at every snapshot.  The smooth trajectory's energy
    identity defect is reported alongside.
    """
    if s <= max(ops.spec.dim / 2.0, 1.0):
        raise ValueError("need s > max(d/2, 1)")
    snaps1, series1 = simulate(ops, smooth_initial, t_end, dt, method, diagnostics_every)
    snaps2, _ = simulate(ops, perturbed_initial, t_end, dt, method, diagnostics_every)

    times = series1.times
    grad_s = np.array([sobolev_norm(ops.spec, _grad_weight(snap), float(s)) for snap in snaps1])
    accumulated = scipy.integrate.cumulative_trapezoid(grad_s, times, initial=0.0)
    diffs = np.array(
        [energy_norm(ops.spec, _diff_state(a, b)) for a, b in zip(snaps2, snaps1)]
    )
    d0 = diffs[0]

    fitted = 0.0
    if d0 > 0.0:
        half = times <= 0.5 * t_end + 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.log(np.maximum(diffs, 1e-300) / d0) / np.where(accumulated > 0, accumulated, np.inf)
        fitted = max(0.0, float(np.nanmax(ratios[half][1:], initial=0.0)))
    envelope = d0 * np.exp(fitted * accumulated)
    slack = 1e-9 * max(d0, 1e-300)
    excess = float(np.max(diffs - envelope - slack, initial=0.0))
    energy_defect = float(np.abs(series1.budget_residual).max())
    return WeakStrongReport(
        fitted_constant=fitted,
        envelope_ok=bool(excess <= 0.0),
        max_envelope_excess=excess,
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
    return SpectralState(state.lattice, state.coeffs * mags[:, None], state.time)
