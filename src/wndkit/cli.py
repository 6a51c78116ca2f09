"""Command-line pipeline: validate -> operators -> dissipativity -> simulate.

Configuration is a single JSON document; all numerics are 64-bit floats.
CSV output uses 17-significant-digit decimals so regression files are
byte-stable, and random initial data comes from a counter-based generator
keyed by the recorded seed, so identical config plus seed reproduces output
byte for byte.

Exit codes: 0 success, 1 analysis failure (valid input, negative finding),
2 input error, 3 runtime blow-up.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import navier_stokes as ns
from .averaging import cyclic_residual, diffusion_csv_rows, resonance_csv_rows
from .dissipativity import analyze_dissipativity, default_alpha_grid
from .solver import INTEGRATORS, BlowUpError, build_operators, simulate, whole_steps
from .spectral import FrequencyLattice, convolution_pair_count, spectrum_csv_rows
from .state import SpectralState, random_real_state, state_from_modes
from .system import (
    SpecShapeError,
    spec_from_dict,
    spec_to_dict,
    validate_entropy_structure,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT = 2
EXIT_BLOWUP = 3

# a dissipativity run stacks one (N, N) matrix per direction and solves one pencil per direction and alpha
MAX_DIRECTIONS = 100_000
MAX_ALPHAS = 10_000
# the (k, l) pairs of the lattice size the resonance-table candidates, the oracles and the incompressible reference
MAX_PAIRS = 12_000_000


class ConfigError(ValueError):
    pass


def _count(value, key: str) -> int:
    """A count must be a JSON integer: a bool, a fraction or a string is an input error."""
    if type(value) is not int:
        raise ConfigError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


def _number(value, key: str) -> float:
    """A real parameter must be a finite JSON number: a bool, a string, inf or nan is an input error."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite JSON number, got {json.dumps(value)}")
    return float(value)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (np.floating,)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def write_keyvalue(path: Path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in mapping.items():
            handle.write(f"{key} = {_fmt(value)}\n")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


class Run:
    """Resolved configuration: spec (plus gas model when preset-based) and knobs."""

    def __init__(self, config: dict, seed_override: int | None = None):
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        for name in ("resonance", "simulation", "dissipativity", "outputs"):
            if not isinstance(config.get(name, {}), dict):
                raise ConfigError(f"'{name}' must be a JSON object")
        directory = config.get("outputs", {}).get("directory", "out")
        if type(directory) is not str or not directory:
            raise ConfigError(f"outputs.directory must be a nonempty JSON string, got {json.dumps(directory)}")
        self.directory = directory
        system = config.get("system")
        self.model: ns.CnsModel | None = None
        if isinstance(system, str):
            try:
                self.model = ns.build_preset(system)
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
            self.spec = self.model.spec
        elif isinstance(system, dict):
            try:
                self.spec = spec_from_dict(system)
            except (SpecShapeError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad inline system spec: {exc}") from exc
        else:
            raise ConfigError("config needs 'system': preset name or inline spec mapping")

        self.lattice_k = _count(config.get("lattice_k", 4), "lattice_k")
        if self.lattice_k < 1:
            raise ConfigError("lattice_k must be >= 1")
        pairs = convolution_pair_count(self.spec.dim, self.lattice_k)
        if pairs > MAX_PAIRS:
            raise ConfigError(
                f"lattice_k {self.lattice_k} in {self.spec.dim}-D gives {pairs} convolution pairs, "
                f"more than {MAX_PAIRS}"
            )
        res = config.get("resonance", {})
        self.resonance_tol = _number(res.get("tolerance", 1e-9), "tolerance")
        if self.resonance_tol <= 0.0:
            raise ConfigError("tolerance must be positive")
        self.use_exact_rule = res.get("exact_rule", self.model is not None)
        if type(self.use_exact_rule) is not bool:
            raise ConfigError(f"exact_rule must be a JSON boolean, got {json.dumps(self.use_exact_rule)}")
        if self.use_exact_rule and self.model is None:
            raise ConfigError("exact_rule requires a gas-dynamics preset system")
        sim = config.get("simulation", {})
        self.dt = None if sim.get("dt") is None else _number(sim["dt"], "dt")
        if self.dt is not None and self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        self.t_end = _number(sim.get("t_end", 1.0), "t_end")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        self.integrator = str(sim.get("integrator", "if_rk4"))
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"unknown integrator {self.integrator!r}; expected one of {INTEGRATORS}")
        self.diagnostics_every = _count(sim.get("diagnostics_every", 10), "diagnostics_every")
        if self.diagnostics_every < 1:
            raise ConfigError("diagnostics_every must be >= 1")
        orders = sim.get("sobolev_orders", [1.0])
        if type(orders) is not list:
            raise ConfigError(f"sobolev_orders must be a JSON list of numbers, got {json.dumps(orders)}")
        self.sobolev_orders = [_number(s, "sobolev_orders") for s in orders]
        self.initial_cfg = dict(
            sim.get("initial", {"type": "random", "seed": 0, "decay": 3.0, "amplitude": 0.1})
        )
        seed = _count(sim.get("seed", 0), "seed")  # the random initial's seed when it names none
        if self.initial_cfg.get("type", "random") == "random":
            self.initial_cfg["seed"] = _count(self.initial_cfg.get("seed", seed), "seed")
            if seed_override is not None:
                self.initial_cfg["seed"] = int(seed_override)
            for key, default in (("decay", 3.0), ("amplitude", 0.1)):
                self.initial_cfg[key] = _number(self.initial_cfg.get(key, default), key)
        diss = config.get("dissipativity", {})
        # a count of log-spaced alphas in [1e-2, 1e2], or the alphas themselves
        grid = diss.get("alpha_grid", 32)
        if type(grid) not in (int, list):
            raise ConfigError(f"alpha_grid must be a JSON integer or a JSON list of numbers, got {json.dumps(grid)}")
        if (grid if type(grid) is int else len(grid)) > MAX_ALPHAS:
            raise ConfigError(f"alpha_grid holds more than {MAX_ALPHAS} alphas")
        self.alphas = default_alpha_grid(grid) if type(grid) is int else np.array([_number(a, "alpha_grid") for a in grid])
        if not self.alphas.size or not (self.alphas > 0).all():
            raise ConfigError("alpha_grid must be a count >= 1 or a nonempty list of positive alphas")
        self.direction_count = _count(diss.get("direction_count", 200), "direction_count")
        if not 1 <= self.direction_count <= MAX_DIRECTIONS:
            raise ConfigError(f"direction_count must be in [1, {MAX_DIRECTIONS}]")

    def lattice(self) -> FrequencyLattice:
        return FrequencyLattice(self.spec.dim, self.lattice_k)

    def operators(self, lattice: FrequencyLattice):
        """The run's operators; a refused table is an input error under the float rule, a fault under the exact one."""
        rule = ns.make_exact_resonance_rule(self.model) if self.use_exact_rule else None
        try:
            return build_operators(self.spec, lattice, resonance_tol=self.resonance_tol, exact_rule=rule)
        except ValueError as exc:
            if rule is not None:
                raise
            raise ConfigError(str(exc)) from exc

    def initial_state(self, lattice: FrequencyLattice) -> SpectralState:
        cfg = self.initial_cfg
        kind = cfg.get("type", "random")
        if kind == "random":
            return random_real_state(
                lattice,
                self.spec.ncomp,
                seed=cfg["seed"],
                decay=cfg["decay"],
                amplitude=cfg["amplitude"],
            )
        if kind == "modes":
            n = self.spec.ncomp
            items = cfg.get("entries", [])
            if not isinstance(items, list):
                raise ConfigError(f"modes 'entries' must be a list, got {items!r}")
            entries = []
            for item in items:
                try:
                    mode = tuple(_count(c, "mode") for c in item["mode"])
                    re = np.array([_number(c, "coeff_re") for c in item["coeff_re"]], dtype=float)
                    im = np.array([_number(c, "coeff_im") for c in item.get("coeff_im", [0.0] * n)], dtype=float)
                except (KeyError, TypeError) as exc:
                    raise ConfigError(f"bad modes entry {item!r}: needs 'mode' and 'coeff_re' ({exc!r})") from exc
                if not lattice.contains(mode):
                    raise ConfigError(
                        f"mode {list(mode)} is outside the {lattice.dim}-D lattice of radius {lattice.radius}"
                    )
                if re.shape != (n,) or im.shape != (n,):
                    raise ConfigError(f"mode {list(mode)}: coeff_re and coeff_im need {n} components each")
                entries.append((mode, re + 1j * im))
            try:
                return state_from_modes(lattice, n, entries)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if kind == "zero":
            return state_from_modes(lattice, self.spec.ncomp, [])
        raise ConfigError(f"unknown initial condition type {kind!r}")


def cmd_validate(run: Run, outdir: Path) -> int:
    report = validate_entropy_structure(run.spec)
    payload = report.as_dict()
    payload["worst_direction"] = " ".join(_fmt(x) for x in report.worst_direction)
    write_keyvalue(outdir / "entropy_report.txt", payload)
    with open(outdir / "system_spec.json", "w", encoding="utf-8") as handle:
        json.dump(spec_to_dict(run.spec), handle, indent=1)
    print(f"entropy structure: {'PASS' if report.passed else 'FAIL'} "
          f"(asymmetry {report.max_asymmetry:.3e}, diffusion floor {report.min_diffusion_eigenvalue:.3e})")
    return EXIT_OK if report.passed else EXIT_FINDING


def cmd_operators(run: Run, outdir: Path) -> int:
    report = validate_entropy_structure(run.spec)
    if not report.passed:
        print("entropy validation failed; refusing to build operators", file=sys.stderr)
        return EXIT_FINDING
    lattice = run.lattice()
    ops = run.operators(lattice)
    write_csv(outdir / "averaged_diffusion.csv", diffusion_csv_rows(ops.avg))
    write_csv(outdir / "spectrum.csv", spectrum_csv_rows(ops.spectrum))
    residuals = []
    if ops.table is not None:
        write_csv(outdir / "resonance_table.csv", resonance_csv_rows(ops.table))
        for trial in range(10):
            states = [
                random_real_state(lattice, run.spec.ncomp, seed=1000 + 3 * trial + j, decay=2.0)
                for j in range(3)
            ]
            residuals.append([trial, cyclic_residual(run.spec, ops.spectrum, ops.table, *states)])
        write_csv(outdir / "cyclic_residuals.csv", [["trial", "residual"]] + residuals)
        print(f"resonance triples: {len(ops.table)}; "
              f"max cyclic residual {max(r[1] for r in residuals):.3e}")
        quad = ops.table.quadratic
        largest, smallest = quad.drop_margin
        print(f"qbar coefficients: {quad.terms} terms, {quad.coefficient_bytes} bytes; "
              f"{quad.dropped} dropped as structural zeros, largest dropped {largest:.3e}, "
              f"smallest kept {smallest:.3e} (relative to max |c|)")
        if not ops.table.exact:
            t = ops.table
            print(f"float resonance rule: worst accepted |defect| {np.abs(t.defects).max(initial=0.0):.3e}, "
                  f"tolerance {t.tolerance * t.scale:.3e}, closest rejected {t.closest_rejected:.3e}")
    else:
        print("quadratic kernel is zero; no resonance table")
    return EXIT_OK


def cmd_dissipativity(run: Run, outdir: Path) -> int:
    lattice = run.lattice()
    ops = build_operators(run.spec, lattice, with_quadratic=False)
    report = analyze_dissipativity(
        run.spec, lattice, ops.avg, alphas=run.alphas, extra_directions=run.direction_count
    )
    write_keyvalue(outdir / "dissipativity_report.txt", report.as_dict())
    if report.beta_by_alpha:
        write_csv(outdir / "beta_by_alpha.csv", [["alpha", "beta"]] + [list(p) for p in report.beta_by_alpha])
    if report.beta_per_direction:
        header = [f"dir{i}" for i in range(run.spec.dim)] + ["beta"]
        rows = [[*xi, beta] for xi, beta in report.beta_per_direction]
        write_csv(outdir / "beta_by_direction.csv", [header] + rows)
    status = "strictly dissipative" if report.criterion_ok and report.delta > 0 else "criterion failed"
    print(f"{status}: delta = {report.delta:.6g}, empirical = {report.delta_empirical:.6g}, "
          f"kawashima = {report.kawashima_ok}")
    return EXIT_OK if report.criterion_ok and report.delta > 0 else EXIT_FINDING


def cmd_simulate(run: Run, outdir: Path) -> int:
    if run.dt is not None:
        try:
            whole_steps(run.t_end, run.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    lattice = run.lattice()
    ops = run.operators(lattice)
    initial = run.initial_state(lattice)
    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    dt = run.dt
    if dt is None:
        # keep the nonlinear stage error dominant: resolve the fastest frequency,
        # in the fewest equal steps that end at t_end
        dt_max = min(1e-3, 0.1 / ops.omega_max) if ops.omega_max > 0 else 1e-3
        dt = run.t_end / math.ceil(run.t_end / dt_max)
    try:
        snapshots, series = simulate(
            ops,
            initial,
            t_end=run.t_end,
            dt=dt,
            method=run.integrator,
            diagnostics_every=run.diagnostics_every,
            sobolev_orders=run.sobolev_orders,
        )
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        write_keyvalue(outdir / "blowup.txt", {
            "mode": " ".join(str(c) for c in exc.mode),
            "time": exc.time,
            "magnitude": exc.magnitude,
        })
        return EXIT_BLOWUP
    write_csv(outdir / "diagnostics.csv", series.csv_rows())
    with open(outdir / "energy.dat", "w", encoding="utf-8") as handle:
        for t, e in zip(series.times, series.energy):
            handle.write(f"{_fmt(t)} {_fmt(e)}\n")
    for snap in snapshots:
        rows = []
        for i, mode in enumerate(lattice):
            for comp in range(run.spec.ncomp):
                val = snap.coeffs[i, comp]
                rows.append([*mode, comp, float(val.real), float(val.imag)])
        write_csv(snapdir / f"state_t{snap.time:.6f}.csv", rows)
    print(f"simulated to t = {series.times[-1]:.6g}; final energy {series.energy[-1]:.6e}; "
          f"max budget residual {np.abs(series.budget_residual).max():.3e}")
    return EXIT_OK


def cmd_wcns_report(run: Run, outdir: Path) -> int:
    if run.model is None:
        print("wcns-report requires a gas-dynamics preset system", file=sys.stderr)
        return EXIT_INPUT
    if run.model.dim != 2:
        print(f"wcns-report needs a 2-D gas-dynamics preset, got d = {run.model.dim}", file=sys.stderr)
        return EXIT_INPUT
    lattice = run.lattice()
    if lattice.radius < 5:
        lattice = FrequencyLattice(run.spec.dim, 5)
    ops = run.operators(lattice)
    report = ns.wcns_coupling_report(run.model, ops.spectrum, ops.table)
    with open(outdir / "wcns_report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"c0 = {report['sound_speed']:.12g}, nu_bar = {report['acoustic_diffusivity']:.12g}, "
          f"triples = {report['n_triples']}")
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "operators": cmd_operators,
    "dissipativity": cmd_dissipativity,
    "simulate": cmd_simulate,
    "wcns-report": cmd_wcns_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wndkit", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default: config outputs.directory)")
    parser.add_argument("--seed", type=int, default=None, help="override the random initial-data seed")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        run = Run(config, seed_override=args.seed)
    except (TypeError, ValueError) as exc:  # ConfigError, or a value int()/float() cannot read
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    outdir = Path(args.out or run.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](run, outdir)
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
