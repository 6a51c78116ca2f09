"""Command-line pipeline: validate -> operators -> dissipativity -> simulate.

Configuration is one JSON document, read once into a `Run`, the resolved run: it
checks every input and builds the lattice and the initial state, so the commands
only compute.  All numerics are 64-bit floats; CSV output uses 17-significant-digit
decimals so regression files are byte-stable, and random initial data comes from a
counter-based generator keyed by the recorded seed, so identical config plus seed
reproduces output byte for byte.

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
from .averaging import FLOAT_RULE_TOL, cyclic_residual, diffusion_csv_rows, resonance_csv_rows
from .dissipativity import analyze_dissipativity, default_alpha_grid
from .solver import BLOWUP_THRESHOLD, INTEGRATORS, BlowUpError, build_operators, simulate, whole_steps
from .spectral import FrequencyLattice, convolution_pair_count, mode_csv_rows, spectrum_csv_rows
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
# the (k, l) pairs of the lattice size the resonance-table candidates, the oracles and the incompressible reference.
# At the edge, 2-D R=32 and 3-D R=8, the exact-rule table builds in 0.95 and 1.75 s on a shared 2-core host (one BLAS
# thread), storing 0.21 and 0.80 million of its 10.3 and 11.0 million rows (the others are counted null triples), and
# peak RSS reaches 103 and 195 MB; the qbar compile then takes 0.34 and 2.9 s and sets the peak, 160 and 643 MB.
# The value was set when the table stored every row and those rows were the peak (1.41 and 1.51 GB), and is kept
MAX_PAIRS = 12_000_000
# the criterion search solves one pencil per alpha and direction, 4.0-4.4 us each on a 2-core host
# (2-D and 3-D gas, 6.4 x 10^5 pencils): 10^7 pencils take ~45 s, and their betas 80 MB
MAX_PENCILS = 10_000_000
# a simulation keeps at most one snapshot of every coefficient (mode x component) per step: 800 MB here.
# The steps are those of the dt that runs: Run counts an explicit dt, cmd_simulate the automatic one.
# With one BLAS thread on a shared 2-core host, a step takes 0.26-0.32 ms on 9-36 coefficients (the 1-D and
# 2-D gas at R=1) and 0.60-0.69 ms on 1,156 (2-D R=8), 0.54 us a coefficient: so a step is charged at least
# STEP_COEFFICIENTS, its fixed cost, and the cap is 27-46 s of steps at these sizes here
MAX_COEFFICIENT_STEPS = 50_000_000
STEP_COEFFICIENTS = 350


# the keys each section and each initial type of a config may hold; any other is an input error
SECTION_KEYS = {"resonance": ("tolerance", "exact_rule"),
                "simulation": ("dt", "t_end", "integrator", "diagnostics_every", "sobolev_orders", "initial", "seed"),
                "dissipativity": ("alpha_grid", "direction_count"), "outputs": ("directory",)}
INITIAL_KEYS = {"random": ("type", "seed", "decay", "amplitude"), "modes": ("type", "entries"), "zero": ("type",)}


class ConfigError(ValueError):
    pass


def _require_object(value, known: tuple[str, ...], where: str) -> None:
    """ConfigError unless `value` is a JSON object of `known` keys only; the message names the first unknown one."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; known keys: {', '.join(sorted(set(known)))}")


class EntropyRefusal(Exception):
    """A spec without entropy structure, refused by a command that builds on the spectrum (exit 1)."""


def require_entropy_structure(spec) -> None:
    # the spectrum decomposes the g-symmetrized advection symbol, which is the spec's own only with the structure
    if not validate_entropy_structure(spec).passed:
        raise EntropyRefusal("entropy validation failed; refusing to build operators")


def require_coefficient_steps(steps: float, coefficients: int) -> None:
    if steps * max(coefficients, STEP_COEFFICIENTS) > MAX_COEFFICIENT_STEPS:
        raise ConfigError(f"{steps:.3g} steps of {coefficients} coefficients exceed {MAX_COEFFICIENT_STEPS} "
                          f"coefficient-steps (a step costs at least {STEP_COEFFICIENTS} coefficients)")


def snapshot_steps(t_end: float, dt: float, every: int) -> int:
    """The steps of dt to t_end; ConfigError unless whole, and unless the snapshots (every `every`
    steps and the last) lie 1e-6 apart: each is named by its time to 6 decimals, and closer ones
    would overwrite each other."""
    try:
        steps = whole_steps(t_end, dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    gap = dt * min(every, steps % every or every)
    if gap < 1e-6:
        raise ConfigError(f"snapshots {gap:.3g} apart (dt = {dt:g}, diagnostics_every = {every}, {steps} steps) "
                          f"would share a file name; they must be at least 1e-06 apart")
    return steps


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


def _seed(value) -> int:
    """A seed is a JSON integer in the Philox key range [0, 2**128)."""
    seed = _count(value, "seed")
    if not 0 <= seed < 2**128:
        raise ConfigError(f"seed must be in [0, 2**128), got {seed}")
    return seed


def _fmt(value) -> str:
    """17 significant digits for a float (np.float64 is one), str() for anything else."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def write_keyvalue(path: Path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in mapping.items():
            handle.write(f"{key} = {_fmt(value)}\n")


def make_directory(path: Path) -> None:
    """mkdir -p; ConfigError when the path cannot be a directory (a file holds the name, or no permission)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the directory {path}: {exc.strerror}") from exc


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _modes_state(lattice: FrequencyLattice, n: int, items) -> SpectralState:
    """The real state of a modes initial's entries (a zero initial has none); ConfigError on a bad entry.

    Each mode is named at most once, its mirror included: the field is real, so w(-k) = conj(w(k)) is
    set with w(k), and state_from_modes would sum a second value into it."""
    if not isinstance(items, list):
        raise ConfigError(f"modes 'entries' must be a list, got {items!r}")
    entries = []
    named: dict[tuple, tuple] = {}  # each mode named so far, keyed by the lesser of it and its mirror
    for item in items:
        _require_object(item, ("mode", "coeff_re", "coeff_im"), "a modes entry")
        try:
            mode = tuple(_count(c, "mode") for c in item["mode"])
            re = np.array([_number(c, "coeff_re") for c in item["coeff_re"]], dtype=float)
            im = np.array([_number(c, "coeff_im") for c in item.get("coeff_im", [0.0] * n)], dtype=float)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad modes entry {item!r}: needs 'mode' and 'coeff_re' ({exc!r})") from exc
        if not lattice.contains(mode):
            raise ConfigError(f"mode {list(mode)} is outside the {lattice.dim}-D lattice of radius {lattice.radius}")
        if re.shape != (n,) or im.shape != (n,):
            raise ConfigError(f"mode {list(mode)}: coeff_re and coeff_im need {n} components each")
        key = min(mode, tuple(-c for c in mode))
        if key in named:
            first = named[key]
            raise ConfigError(f"mode {list(mode)} is named twice" if first == mode else
                              f"modes {list(first)} and {list(mode)} are mirrors; name one, the other is its conjugate")
        named[key] = mode
        entries.append((mode, re + 1j * im))
    try:
        return state_from_modes(lattice, n, entries)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class Run:
    """The resolved run: spec (plus gas model when preset-based), lattice, initial state and settings.

    It checks every input (ConfigError), the initial state's magnitudes (finite, at most BLOWUP_THRESHOLD)
    included, but those that depend on the command or on what it builds: `wcns-report`'s 2-D preset, the
    automatic dt's steps and a float-rule table's tolerance."""

    def __init__(self, config: dict, seed_override: int | None = None):
        _require_object(config, ("system", "lattice_k", *SECTION_KEYS), "the config")
        for name, known in SECTION_KEYS.items():
            _require_object(config.get(name, {}), known, name)
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
                raise ConfigError(exc.args[0]) from exc  # str() of a KeyError is its message's repr
            self.spec = self.model.spec
        elif isinstance(system, dict):
            try:
                self.spec = spec_from_dict(system)
            except (SpecShapeError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad inline system spec: {exc}") from exc
            _require_object(system, (*spec_to_dict(self.spec), "labels"), "the inline spec")
            for name, entry in system.items():
                if isinstance(entry, dict):  # a tensor
                    _require_object(entry, ("data", "shape"), f"system.{name}")
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
        self.lattice = FrequencyLattice(self.spec.dim, self.lattice_k)  # only now is its size known to be admitted
        res = config.get("resonance", {})
        self.resonance_tol = _number(res.get("tolerance", FLOAT_RULE_TOL), "tolerance")
        if self.resonance_tol <= 0.0:
            raise ConfigError("tolerance must be positive")
        self.use_exact_rule = res.get("exact_rule", self.model is not None)
        if type(self.use_exact_rule) is not bool:
            raise ConfigError(f"exact_rule must be a JSON boolean, got {json.dumps(self.use_exact_rule)}")
        if self.use_exact_rule and self.model is None:
            raise ConfigError("exact_rule requires a gas-dynamics preset system")
        if self.use_exact_rule and "tolerance" in res:
            raise ConfigError("resonance.tolerance sets the float rule, and this run uses the exact rule; "
                              "drop the key or set exact_rule to false")
        sim = config.get("simulation", {})
        self.dt = None if sim.get("dt") is None else _number(sim["dt"], "dt")
        if self.dt is not None and self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        self.t_end = _number(sim.get("t_end", 1.0), "t_end")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        coefficients = len(self.lattice) * self.spec.ncomp
        # without dt the steps are counted at 1e-3, a lower bound: the automatic step of cmd_simulate
        # is at most 1e-3, and cmd_simulate checks the step it picks before it writes a snapshot
        require_coefficient_steps(self.t_end / (self.dt or 1e-3), coefficients)
        self.integrator = str(sim.get("integrator", "if_rk4"))
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"unknown integrator {self.integrator!r}; expected one of {INTEGRATORS}")
        self.diagnostics_every = _count(sim.get("diagnostics_every", 10), "diagnostics_every")
        if self.diagnostics_every < 1:
            raise ConfigError("diagnostics_every must be >= 1")
        if self.dt is not None:
            snapshot_steps(self.t_end, self.dt, self.diagnostics_every)
        orders = sim.get("sobolev_orders", [1.0])
        if type(orders) is not list:
            raise ConfigError(f"sobolev_orders must be a JSON list of numbers, got {json.dumps(orders)}")
        self.sobolev_orders = [_number(s, "sobolev_orders") for s in orders]
        initial = sim.get("initial", {"type": "random", "decay": 3.0, "amplitude": 0.1})
        kind = initial.get("type", "random") if isinstance(initial, dict) else None
        if not isinstance(kind, str) or kind not in INITIAL_KEYS:
            raise ConfigError(f"simulation.initial must be a JSON object of type {', '.join(INITIAL_KEYS)}, "
                              f"got {json.dumps(initial)}")
        _require_object(initial, INITIAL_KEYS[kind], f"a {kind} initial")
        seed = _seed(sim.get("seed", 0))  # the random initial's seed when it names none
        with np.errstate(all="ignore"):  # an initial that overflows is refused below, with no warning
            if kind == "random":
                seed = _seed(initial.get("seed", seed))
                if seed_override is not None:
                    seed = _seed(int(seed_override))
                decay = _number(initial.get("decay", 3.0), "decay")
                amplitude = _number(initial.get("amplitude", 0.1), "amplitude")
                self.initial = random_real_state(self.lattice, self.spec.ncomp, seed, decay, amplitude)
            elif seed_override is not None:
                raise ConfigError(f"--seed keys a random initial, and this run's initial is of type {kind}")
            else:
                self.initial = _modes_state(self.lattice, self.spec.ncomp, initial.get("entries", []))
            peak = float(np.abs(self.initial.coeffs).max())
        if not peak <= BLOWUP_THRESHOLD:
            raise ConfigError(f"the initial state's largest coefficient magnitude is {peak:.3e}; "
                              f"it must be finite and at most the blow-up threshold {BLOWUP_THRESHOLD:g}")
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
        if self.alphas.size * self.direction_count > MAX_PENCILS:
            raise ConfigError(
                f"{self.alphas.size} alphas x {self.direction_count} directions exceed {MAX_PENCILS} criterion pencils")

    def operators(self, lattice: FrequencyLattice):
        """The run's operators; a refused table is an input error under the float rule, a fault under the exact one."""
        rule = ns.make_exact_resonance_rule(self.model) if self.use_exact_rule else None
        try:
            return build_operators(self.spec, lattice, resonance_tol=self.resonance_tol, exact_rule=rule)
        except ValueError as exc:
            if rule is not None:
                raise
            raise ConfigError(str(exc)) from exc


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
    require_entropy_structure(run.spec)
    ops = run.operators(run.lattice)
    write_csv(outdir / "averaged_diffusion.csv", diffusion_csv_rows(ops.avg))
    write_csv(outdir / "spectrum.csv", spectrum_csv_rows(ops.spectrum))
    (largest, smallest), (spread, gap) = ops.spectrum.null_margin, ops.spectrum.cluster_margin
    print(f"spectrum: largest null |omega| {largest:.3e}, smallest other {smallest:.3e}; largest merged spread "
          f"{spread:.3e}, smallest kept gap {gap:.3e} (relative to each mode's max(max |omega|, 1))")
    residuals = []
    if ops.table is not None:
        write_csv(outdir / "resonance_table.csv", resonance_csv_rows(ops.table))
        for trial in range(10):
            states = [
                random_real_state(run.lattice, run.spec.ncomp, seed=1000 + 3 * trial + j, decay=2.0)
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
        largest, smallest = quad.null_margin
        print(f"qbar null range: rank {quad.null_rank}, largest roundoff eigenvalue {largest:.3e}, "
              f"smallest kept {smallest:.3e} (relative to the largest)")
        if not ops.table.exact:
            t = ops.table
            worst = max(np.abs(defects).max(initial=0.0) for _, defects in t.blocks())
            print(f"float resonance rule: worst accepted |defect| {worst:.3e}, "
                  f"tolerance {t.tolerance * t.scale:.3e}, closest rejected {t.closest_rejected:.3e}")
    else:
        print("quadratic kernel is zero; no resonance table")
    return EXIT_OK


def cmd_dissipativity(run: Run, outdir: Path) -> int:
    require_entropy_structure(run.spec)
    ops = build_operators(run.spec, run.lattice, with_quadratic=False)
    report = analyze_dissipativity(run.spec, run.lattice, ops.avg, alphas=run.alphas,
                                   extra_directions=run.direction_count)
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
    snapdir = outdir / "snapshots"
    if snapdir.exists() and not snapdir.is_dir():  # refused before anything is built; make_directory reports the rest
        raise ConfigError(f"cannot make the directory {snapdir}: a file holds its name")
    require_entropy_structure(run.spec)
    ops = run.operators(run.lattice)
    dt = run.dt
    if dt is None:
        # keep the nonlinear stage error dominant: resolve the fastest frequency,
        # in the fewest equal steps that end at t_end
        dt_max = min(1e-3, 0.1 / ops.omega_max) if ops.omega_max > 0 else 1e-3
        dt = run.t_end / math.ceil(run.t_end / dt_max)
        steps = snapshot_steps(run.t_end, dt, run.diagnostics_every)
        require_coefficient_steps(steps, len(run.lattice) * run.spec.ncomp)
    make_directory(snapdir)
    try:
        snapshots, series = simulate(
            ops,
            run.initial,
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
    for t, snap in zip(series.times, snapshots):
        write_csv(snapdir / f"state_t{t:.6f}.csv", mode_csv_rows(run.lattice, snap.coeffs))
    print(f"simulated to t = {series.times[-1]:.6g}; final energy {series.energy[-1]:.6e}; "
          f"max budget residual {np.abs(series.budget_residual).max():.3e}")
    return EXIT_OK


def cmd_wcns_report(run: Run, outdir: Path) -> int:
    if run.model is None:
        raise ConfigError("wcns-report requires a gas-dynamics preset system")
    if run.model.dim != 2:
        raise ConfigError(f"wcns-report needs a 2-D gas-dynamics preset, got d = {run.model.dim}")
    require_entropy_structure(run.spec)
    ops = run.operators(run.lattice if run.lattice_k >= 5 else FrequencyLattice(run.spec.dim, 5))
    report = ns.wcns_coupling_report(run.model, ops.table)
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
        outdir = Path(args.out or run.directory)
        make_directory(outdir)
    except (TypeError, ValueError) as exc:  # ConfigError, or a value int()/float() cannot read
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        return COMMANDS[args.command](run, outdir)
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EntropyRefusal as exc:
        print(exc, file=sys.stderr)
        return EXIT_FINDING


if __name__ == "__main__":
    sys.exit(main())
