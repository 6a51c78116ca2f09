"""The benchmark's two workloads, driven only through wndkit's public API.

Each workload builds its operators (set-up) and runs measured rounds on
them: simulate and verify.  Rounds repeat identical work from the same
seeded inputs, so every count a round produces is exact and every timing is
a repeat.  The wcns workload also certifies dissipativity and exports the
operators as CSV, in the run's first round only.

    gas2d-r8-evolve  R=8, exact acoustic rule, IF-RK4 from a random real
                     state: qbar on its reality fast path; ten cyclic trials.
    gas2d-r6-wcns    R=6, exact rule, the incompressible part of a
                     wcns_split state stepped as it comes out of the split
                     (qbar's general-complex path), checked against
                     simulate_incompressible_reference; once per run, the
                     certificate and the CSV export.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import wndkit as wk
from wndkit import averaging, dissipativity, solver
from wndkit.averaging import diffusion_csv_rows, resonance_csv_rows
from wndkit.cli import write_csv
from wndkit.navier_stokes import simulate_incompressible_reference, wcns_split
from wndkit.spectral import spectrum_csv_rows
from wndkit.state import is_reality_symmetric

from tracing import CountingRule, Span, Tracer

DT = 1e-3
ALPHAS = np.logspace(-2.0, 2.0, 32)  # the CLI's default alpha grid
EXTRA_DIRECTIONS = 200  # the CLI's default direction count
CYCLIC_TOL = 1e-10


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent generator keys for the workload's states, fixed by `seed`."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def qbar_attrs(spec, spectrum, table, w1, w2) -> dict:
    """Which qbar path a call takes: 1 half-table apply if both inputs are
    bitwise reality-symmetric, otherwise one per symmetric/antisymmetric pair."""
    c1 = not is_reality_symmetric(w1)
    c2 = not is_reality_symmetric(w2)
    return {"complex": c1 or c2, "halves": 1 + c1 + c2 + (c1 and c2)}


# wndkit attributes that wndkit's own code looks up at call time; traced runs
# swap them for span-opening wrappers.
LAYER_TARGETS = (
    (solver, "frequency_spectrum", "spectral.spectrum", None),
    (solver, "averaged_diffusion", "averaging.diffusion", None),
    (solver, "build_resonance_table", "averaging.table", None),
    (solver, "step", "solver.step", None),
    (solver, "apply_averaged_quadratic", "averaging.qbar", qbar_attrs),
    (averaging, "apply_averaged_quadratic", "averaging.qbar", qbar_attrs),
    (dissipativity, "kawashima_check", "dissipativity.kawashima", None),
    (dissipativity, "strict_criterion_search", "dissipativity.search", None),
    (dissipativity, "verify_delta", "dissipativity.verify_delta", None),
)


@dataclass
class Round:
    """Phase times (seconds), per-step wall times and checks of one round."""

    phases: dict[str, float] = field(default_factory=dict)
    step_intervals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    checks: list[tuple[str, bool, float]] = field(default_factory=list)
    export_rows: int = 0
    export_bytes: int = 0
    directions: int = 0

    def check(self, name: str, ok: bool, value: float) -> None:
        self.checks.append((name, bool(ok), float(value)))


class Workload:
    name = ""
    radius = 0
    steps = 0  # simulate steps per round

    def __init__(self, seed: int, outdir: Path) -> None:
        self.model = wk.build_preset("ideal-gas-2d")
        self.spec = self.model.spec
        self.lattice = wk.FrequencyLattice(2, self.radius)
        self.seeds = derived_seeds(seed, 32)
        self.outdir = outdir
        self.initial = wk.random_real_state(
            self.lattice, self.spec.ncomp, seed=self.seeds[0], decay=3.0, amplitude=0.2
        )

    def cyclic_triples(self, count: int) -> list[list]:
        return [
            [
                wk.random_real_state(self.lattice, self.spec.ncomp, seed=self.seeds[1 + 3 * t + j], decay=2.0)
                for j in range(3)
            ]
            for t in range(count)
        ]

    # -- set-up ---------------------------------------------------------------

    def setup(self, tr: Tracer) -> tuple[wk.WndOperators, Span]:
        """All lazy set-up: operators, both IF-RK4 propagators, kernel compile."""
        rule = wk.make_exact_resonance_rule(self.model)
        if tr.enabled:
            rule = CountingRule(rule)
        with tr.span("setup") as sp:
            with tr.span("solver.build_operators"):
                ops = wk.build_operators(self.spec, self.lattice, exact_rule=rule)
            with tr.span("solver.propagators"):
                ops.propagators(DT, False)
                ops.propagators(0.5 * DT, False)
            with tr.span("averaging.compile"):
                # the first qbar call on a table compiles its kernels
                wk.apply_averaged_quadratic(self.spec, ops.spectrum, ops.table, self.initial, self.initial)
        if isinstance(rule, CountingRule):
            sp.attrs.update(rule_calls=rule.calls, rule_s=rule.seconds)
        return ops, sp

    # -- shared round phases ---------------------------------------------------

    @contextlib.contextmanager
    def phase(self, tr: Tracer, rnd: Round, key: str, name: str):
        with tr.span(name) as sp:
            yield sp
        rnd.phases[key] = rnd.phases.get(key, 0.0) + sp.duration

    def simulate(self, tr: Tracer, rnd: Round, ops, initial):
        stamps: list[float] = []
        with self.phase(tr, rnd, "solve_s", "solver.simulate"):
            snaps, series = wk.simulate(
                ops, initial, t_end=self.steps * DT, dt=DT, diagnostics_every=1,
                snapshot_hook=lambda _snap: stamps.append(time.perf_counter()),
            )
        # the first interval carries the first step's warm-up; drop it
        rnd.step_intervals = np.diff(stamps)[1:]
        return snaps, series

    def round(self, tr: Tracer, ops: wk.WndOperators, first: bool) -> Round:
        """One measured round; `first` marks the run's first round."""
        raise NotImplementedError


class Evolve(Workload):
    name = "gas2d-r8-evolve"
    radius = 8
    steps = 26

    def __init__(self, seed: int, outdir: Path) -> None:
        super().__init__(seed, outdir)
        self.triples = self.cyclic_triples(10)

    def round(self, tr: Tracer, ops: wk.WndOperators, first: bool) -> Round:
        rnd = Round()
        snaps, series = self.simulate(tr, rnd, ops, self.initial)
        with self.phase(tr, rnd, "verify_s", "verify"):
            budget = float(np.abs(series.budget_residual).max()) / float(series.times[-1])
            rnd.check("budget_residual_per_time", budget <= 1e-6, budget)
            rise = float(np.diff(series.energy).max()) / float(series.energy[0])
            rnd.check("energy_non_increasing", rise <= 1e-12, rise)
            real = sum(is_reality_symmetric(s) for s in snaps)
            rnd.check("snapshots_reality_symmetric", real == len(snaps), len(snaps) - real)
            for triple in self.triples:
                with tr.span("averaging.cyclic"):
                    res = wk.cyclic_residual(self.spec, ops.spectrum, ops.table, *triple)
                rnd.check("cyclic_residual", res <= CYCLIC_TOL, res)
        return rnd


class Wcns(Workload):
    name = "gas2d-r6-wcns"
    radius = 6
    steps = 21

    def round(self, tr: Tracer, ops: wk.WndOperators, first: bool) -> Round:
        rnd = Round()
        model, spec = self.model, self.spec
        with self.phase(tr, rnd, "verify_s", "navier_stokes.split"):
            w_in0, _ = wcns_split(model, ops.spectrum, self.initial)
        # stepped as the split returns it: roundoff-level reality defects put
        # every qbar call on the general-complex path, as users hit today
        snaps, series = self.simulate(tr, rnd, ops, w_in0)
        with self.phase(tr, rnd, "verify_s", "verify"):
            with tr.span("navier_stokes.split"):
                acoustic = [wcns_split(model, ops.spectrum, s)[1] for s in snaps]
            leak = max(wk.energy_norm(spec, w) for w in acoustic) / wk.energy_norm(spec, w_in0)
            rnd.check("acoustic_leak", leak <= 1e-10, leak)
            with tr.span("navier_stokes.reference"):
                u, theta = simulate_incompressible_reference(
                    model, self.lattice, w_in0.coeffs[:, 1:3], w_in0.coeffs[:, 3], float(series.times[-1]), DT
                )
            ref = wk.zero_state(self.lattice, spec.ncomp)
            ref.coeffs[:, 1:3] = u
            ref.coeffs[:, 3] = theta
            ref.coeffs[:, 0] = -model.p_theta / model.p_rho * theta
            diff = ref.copy()
            diff.coeffs = snaps[-1].coeffs - ref.coeffs
            match = wk.energy_norm(spec, diff) / wk.energy_norm(spec, ref)
            rnd.check("incompressible_reference_match", match <= 1e-6, match)
        if first:
            # `wndkit dissipativity` and `wndkit operators`, once per run
            # (timed, not gated)
            self.certify(tr, rnd, ops)
            rows = self.export(tr, rnd, [
                ("averaged_diffusion.csv", diffusion_csv_rows(ops.avg)),
                ("spectrum.csv", spectrum_csv_rows(ops.spectrum)),
                ("resonance_table.csv", resonance_csv_rows(ops.table)),
            ])["resonance_table.csv"]
            rnd.check("resonance_csv_rows", rows == len(ops.table), rows)
        return rnd

    def certify(self, tr: Tracer, rnd: Round, ops) -> None:
        with self.phase(tr, rnd, "certify_s", "dissipativity.analyze"):
            rep = wk.analyze_dissipativity(
                ops.spec, self.lattice, ops.avg, alphas=ALPHAS, extra_directions=EXTRA_DIRECTIONS
            )
        rnd.directions = rep.n_directions
        rnd.check("certificate", rep.criterion_ok and 0.0 < rep.delta <= rep.delta_empirical, rep.delta)

    def export(self, tr: Tracer, rnd: Round, files: list) -> dict[str, int]:
        """Write (file name, rows) pairs with wndkit's CSV writer; rows per file."""
        outdir = self.outdir / self.name
        outdir.mkdir(parents=True, exist_ok=True)
        counts: dict[str, int] = {}

        def counted(name, rows):
            for row in rows:
                counts[name] += 1
                yield row

        with self.phase(tr, rnd, "export_s", "cli.export"):
            for name, rows in files:
                counts[name] = 0
                write_csv(outdir / name, counted(name, rows))
        rnd.export_rows += sum(counts.values())
        rnd.export_bytes += sum((outdir / name).stat().st_size for name, _ in files)
        return counts


WORKLOADS = {w.name: w for w in (Evolve, Wcns)}
