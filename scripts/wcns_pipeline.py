#!/usr/bin/env python3
"""End-to-end pipeline on the 2-D ideal-gas preset.

Validates the entropy structure, builds the averaged operators with the
exact acoustic resonance rule, certifies strict dissipativity, runs a short
simulation from random incompressible-plus-acoustic data, and prints the
split-energy history together with the interaction-coupling report.
"""

import argparse
import time

import numpy as np

import wndkit as wk
from wndkit.navier_stokes import wcns_coupling_report, wcns_split


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=int, default=6, help="lattice truncation radius")
    parser.add_argument("--t-end", type=float, default=2.0)
    parser.add_argument("--dt", type=float, default=2e-3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    model = wk.build_preset("ideal-gas-2d")
    print(f"sound speed c0 = {model.sound:.12g}, acoustic diffusivity = {model.diffusivity:.12g}")

    rep = wk.validate_entropy_structure(model.spec)
    print(f"entropy structure: {'ok' if rep.passed else 'VIOLATED'} "
          f"(asymmetry {rep.max_asymmetry:.2e})")

    lattice = wk.FrequencyLattice(2, args.radius)
    t0 = time.perf_counter()
    ops = wk.build_operators(model.spec, lattice, exact_rule=wk.make_exact_resonance_rule(model))
    print(f"operators on {len(lattice)} modes, {len(ops.table)} resonant triples "
          f"({time.perf_counter() - t0:.1f}s)")

    cert = wk.analyze_dissipativity(model.spec, lattice, ops.avg)
    print(f"strict dissipativity: delta = {cert.delta:.4e} at alpha = {cert.alpha:.3g}, "
          f"empirical rate = {cert.delta_empirical:.4e}")

    state = wk.random_real_state(lattice, model.ncomp, seed=args.seed, decay=3.0, amplitude=0.15)
    snaps, series = wk.simulate(ops, state, t_end=args.t_end, dt=args.dt, diagnostics_every=100)
    print(f"\n{'t':>8} {'energy':>12} {'incompressible':>15} {'acoustic':>12} {'budget':>10}")
    for snap, t, e, b in zip(snaps, series.times, series.energy, series.budget_residual):
        w_in, w_ac = wcns_split(model, ops.spectrum, snap)
        print(f"{t:8.3f} {e:12.6e} {0.5 * wk.energy_norm(model.spec, w_in)**2:15.6e} "
              f"{0.5 * wk.energy_norm(model.spec, w_ac)**2:12.6e} {abs(b):10.2e}")

    if args.radius >= 5:
        report = wcns_coupling_report(model, ops.table)
        print("\nresonance counts by branch pattern:")
        for key, count in report["resonance_counts"].items():
            print(f"  {key}: {count}")
        print("empirical interaction amplitudes:")
        for name, entry in report["couplings"].items():
            print(f"  {name}: normalized = {entry['normalized']:+.6f} "
                  f"(k={entry['k']}, l={entry['l']}, {entry['branches']})")


if __name__ == "__main__":
    main()
