"""Run the five CLI commands on eight fixed configs and keep everything they print and write.

    PYTHONPATH=src python scripts/cli_outputs.py OUT

Under OUT/<config>/<command>/ each command leaves its output files plus
`stdout`, `stderr` and `exit_code`; OUT/<config>/config.json is the config
it read.  The commands run in-process through `wndkit.cli.main`, so the
wndkit measured is the one on PYTHONPATH.  To check that a change keeps the
CLI outputs byte-identical, run the script once with each source tree on
PYTHONPATH and compare the two directories:

    PYTHONPATH=old/src python scripts/cli_outputs.py before
    PYTHONPATH=src python scripts/cli_outputs.py after
    diff -r before after

The configs are the 2-D gas at R=4 under the exact resonance rule, the 1-D
gas at R=6, the 2-D gas written out as an inline spec at R=3 under the
float rule, the 2-D gas at R=3 stepped by IF-RK2 from a `modes` initial
with a nonzero zero mode, so that the zero mode's propagator row and
if_rk2 reach the snapshots, the 3-D gas at R=2 under the exact rule, and
an inline 1-D spec whose g a(xi) is not symmetric (a = [[0, 1], [2, 0]],
g = I), which validate, operators, dissipativity and simulate refuse with
exit 1, and the 2-D gas at R=3 from a `modes` entry of 2 of its 4
components, which every command refuses with exit 2 when it reads the
config, and the 2-D gas at R=1 stepped by dt = 1.5e-6 to 3e-5 with a
snapshot every step, whose 21 snapshot files are named by the times of
their diagnostics.csv rows, t = i dt.  wcns-report also exits 2 on every
other config but the 2-D presets (it needs a 2-D preset).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np

from wndkit.cli import main as cli_main
from wndkit.navier_stokes import build_preset
from wndkit.system import SystemSpec, spec_to_dict

COMMANDS = ("validate", "operators", "dissipativity", "simulate", "wcns-report")

BASE = {
    "simulation": {
        "dt": 0.005,
        "t_end": 0.05,
        "integrator": "if_rk4",
        "diagnostics_every": 5,
        "initial": {"type": "random", "seed": 7, "decay": 3.0, "amplitude": 0.1},
    },
    "dissipativity": {"alpha_grid": 8, "direction_count": 32},
}

CONFIGS = {
    "gas2d-r4": {"system": "ideal-gas-2d", "lattice_k": 4, "resonance": {"exact_rule": True}},
    "gas1d-r6": {"system": "ideal-gas-1d", "lattice_k": 6},
    "inline": {
        "system": spec_to_dict(build_preset("ideal-gas-2d").spec),
        "lattice_k": 3,
        "resonance": {"exact_rule": False},
    },
    "gas2d-r3-rk2": {
        "system": "ideal-gas-2d",
        "lattice_k": 3,
        "simulation": {
            "dt": 0.001,
            "t_end": 0.05,
            "integrator": "if_rk2",
            "diagnostics_every": 5,
            "initial": {
                "type": "modes",
                "entries": [
                    {"mode": [0, 0], "coeff_re": [0.02, -0.01, 0.03, 0.015]},
                    {"mode": [1, 2], "coeff_re": [0.05, 0.02, -0.04, 0.01], "coeff_im": [-0.03, 0.04, 0.01, -0.02]},
                    {"mode": [2, -1], "coeff_re": [-0.04, 0.03, 0.02, 0.05]},
                ],
            },
        },
    },
    "gas3d-r2": {"system": "ideal-gas-3d", "lattice_k": 2, "resonance": {"exact_rule": True}},
    "asymmetric": {
        "system": spec_to_dict(SystemSpec(1, 2, [0.0, 0.0], [[[0.0, 1.0], [2.0, 0.0]]], [[[[1.0, 0.0], [0.0, 0.0]]]],
                                          np.zeros((1, 2, 2, 2)), np.eye(2))),
        "lattice_k": 4,
    },
    "bad-modes": {
        "system": "ideal-gas-2d",
        "lattice_k": 3,
        "simulation": {**BASE["simulation"],
                       "initial": {"type": "modes", "entries": [{"mode": [1, 0], "coeff_re": [0.05, 0.02]}]}},
    },
    "clock": {
        "system": "ideal-gas-2d",
        "lattice_k": 1,
        "simulation": {**BASE["simulation"], "dt": 1.5e-6, "t_end": 3e-5, "diagnostics_every": 1},
    },
}


def run_command(command: str, config: Path, outdir: Path) -> None:
    """One in-process CLI run; warnings are kept as `category: message` lines of stderr."""
    outdir.mkdir(parents=True, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main([command, "--config", str(config), "--out", str(outdir)])
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    (outdir / "stdout").write_text(out.getvalue(), encoding="utf-8")
    (outdir / "stderr").write_text(err.getvalue(), encoding="utf-8")
    (outdir / "exit_code").write_text(f"{code}\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory that receives OUT/<config>/<command>/")
    args = parser.parse_args()
    for name, overrides in CONFIGS.items():
        confdir = args.out / name
        confdir.mkdir(parents=True, exist_ok=True)
        config = confdir / "config.json"
        config.write_text(json.dumps({**BASE, **overrides}, indent=1), encoding="utf-8")
        for command in COMMANDS:
            run_command(command, config, confdir / command)
    print(f"wrote {len(CONFIGS) * len(COMMANDS)} command runs under {args.out}")


if __name__ == "__main__":
    main()
