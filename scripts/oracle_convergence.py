#!/usr/bin/env python3
"""Convergence sweep of the time-average oracles against the spectral formulas.

The averaged diffusion block is computed two ways: the spectral-projector
sum and brute-force trapezoidal time averaging of the conjugated symbol.
So is the averaged quadratic form qbar(w, w) of the gas: the compiled
resonant sum and the time average of the conjugated nonlinearity.  The
quasi-periodic integrands make the averages converge like 1/T; the sweep
prints the measured errors and fitted rate for the partially dissipative
wave pair, a handful of gas-dynamics modes and qbar on a random real state
of the 2-D gas at R=3.  The averaging spans are three decades ending at
--max-span (default 1e4).

    python scripts/oracle_convergence.py [--max-span 1e4]
"""

import argparse
import math

import numpy as np

import wndkit as wk
from wndkit.averaging import averaged_diffusion_oracle, quadratic_time_average_oracle


def report(label, spans, errs) -> None:
    rate = math.log(errs[0] / errs[-1]) / math.log(spans[-1] / spans[0])
    rows = "  ".join(f"T={s:g}: {e:.3e}" for s, e in zip(spans, errs))
    print(f"  {label}: {rows}   fitted order {rate:.2f}")


def sweep(spec, mode, target, spans, dt=0.01) -> None:
    errs = []
    for span in spans:
        oracle = averaged_diffusion_oracle(spec, np.asarray(mode, float), span, max(100, int(span / dt)))
        errs.append(float(np.abs(oracle - target).max()))
    report(f"mode {tuple(mode)}", spans, errs)


def quadratic_sweep(spec, state, target, spans, dt=0.01) -> None:
    errs = []
    for span in spans:
        oracle = quadratic_time_average_oracle(spec, state, span, max(100, int(span / dt)))
        errs.append(float(np.abs(oracle.coeffs - target.coeffs).max()))
    report("qbar(w, w)", spans, errs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-span", type=float, default=1e4, help="longest averaging span T (default 1e4)")
    args = parser.parse_args()
    if args.max_span <= 0.0:
        parser.error("--max-span must be positive")
    spans = (args.max_span / 100.0, args.max_span / 10.0, args.max_span)

    adv = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    dif = np.zeros((1, 1, 2, 2))
    dif[0, 0] = np.diag([1.0, 0.0])
    wave = wk.SystemSpec(1, 2, [0.0, 0.0], adv, dif, np.zeros((1, 2, 2, 2)), np.eye(2))
    print("partially dissipative wave pair (exact block -xi^2/2 I):")
    sweep(wave, (1,), -0.5 * np.eye(2), spans)

    model = wk.build_preset("ideal-gas-2d")
    lattice = wk.FrequencyLattice(2, 3)
    ops = wk.build_operators(model.spec, lattice, exact_rule=wk.make_exact_resonance_rule(model))
    print("ideal-gas system (projector blocks as reference):")
    for mode in [(1, 0), (1, 1), (2, -1)]:
        sweep(model.spec, mode, ops.avg.block(mode), spans)

    w = wk.random_real_state(lattice, model.spec.ncomp, seed=11, decay=2.0, amplitude=0.5)
    print("ideal-gas system, quadratic form (exact-rule qbar as reference):")
    quadratic_sweep(model.spec, w, wk.apply_averaged_quadratic(model.spec, ops.spectrum, ops.table, w, w), spans)


if __name__ == "__main__":
    main()
