"""Run the five CLI commands on nine fixed configs and keep everything they print and write.

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

When they differ, the compare mode says by how much:

    PYTHONPATH=src python scripts/cli_outputs.py --compare before after

It lists the files found on one side only and, for each file whose bytes
moved, the lines inserted and deleted (the lines are aligned first, so an
inserted line hides no number that moved below it) and, on the lines that
pair up, the numbers that changed and how many of them are integers (a
token with no `.`, `e`, `inf` or `nan` on both sides: ranks, indices and
counts, which no roundoff may move; a float written as a whole number on
one side only, like a roundoff zero 0 -> 1e-17, is no integer), the
largest relative change |a - b| /
max(|a|, |b|) with its two values, the largest change |a - b| relative to
the file's largest finite |a| (which reads roundoff zeros at their scale),
the zeros whose sign flipped (+0 to -0 and back) and the lines that changed
otherwise (text, or a number written another way); it exits 1 if anything
moved.

The configs are the 2-D gas at R=4 under the exact resonance rule, the 1-D
gas at R=6, the 2-D gas at R=6 under the float rule, whose table build
decides its pairs in four grids of the cell budget, the 2-D gas written
out as an inline spec at R=3 under the float rule, the 2-D gas at R=3
stepped by IF-RK2 from a `modes` initial with a nonzero zero mode, so that
the zero mode's propagator row and if_rk2 reach the snapshots, the 3-D gas
at R=2 under the exact rule, and an inline 1-D spec whose g a(xi) is not
symmetric (a = [[0, 1], [2, 0]], g = I), which validate, operators,
dissipativity and simulate refuse with exit 1, and the 2-D gas at R=3 from
a `modes` entry of 2 of its 4 components, which every command refuses with
exit 2 when it reads the config, and the 2-D gas at R=1 stepped by dt =
1.5e-6 to 3e-5 with a snapshot every step, whose 21 snapshot files are
named by the times of their diagnostics.csv rows, t = i dt.  wcns-report
also exits 2 on every other config but the 2-D presets (it needs a 2-D
preset).
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import math
import re
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
    "gas2d-r6-float": {"system": "ideal-gas-2d", "lattice_k": 6, "resonance": {"exact_rule": False}},
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


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
INTEGER = re.compile(r"[-+]?\d+")


def compare_file(before: str, after: str) -> dict:
    """How the text `after` moved from `before`: the lines inserted and deleted, and on the lines that
    pair up, the numbers that changed and the integers among them (both sides written as integers),
    the largest relative change and its values, the largest change
    relative to the largest finite |number| of `before`, the zeros whose sign flipped, and the lines
    that changed otherwise.

    The lines are aligned first (difflib.SequenceMatcher), so an inserted line moves no later line out
    of its pair.  Within a replaced run the lines pair by position, and the longer side's surplus
    counts as inserted or deleted."""
    report = {"changed": 0, "integers": 0, "largest": (0.0, "", ""), "of_scale": 0.0, "to_minus_zero": 0, "to_plus_zero": 0,
              "other_lines": 0, "inserted": 0, "deleted": 0}
    scale = max((abs(v) for v in map(float, NUMBER.findall(before)) if math.isfinite(v)), default=0.0)
    lines_a, lines_b = before.splitlines(), after.splitlines()
    pairs = []
    for tag, a0, a1, b0, b1 in difflib.SequenceMatcher(None, lines_a, lines_b, autojunk=False).get_opcodes():
        if tag == "equal":
            continue
        report["deleted"] += max(0, (a1 - a0) - (b1 - b0))
        report["inserted"] += max(0, (b1 - b0) - (a1 - a0))
        pairs += zip(lines_a[a0:a1], lines_b[b0:b1])
    for line_a, line_b in pairs:
        words_a, words_b = NUMBER.findall(line_a), NUMBER.findall(line_b)
        if NUMBER.split(line_a) != NUMBER.split(line_b) or len(words_a) != len(words_b):
            report["other_lines"] += 1
            continue
        other = False
        for word_a, word_b in zip(words_a, words_b):
            if word_a == word_b:
                continue
            a, b = float(word_a), float(word_b)
            if a == b == 0.0 and math.copysign(1.0, a) != math.copysign(1.0, b):
                report["to_minus_zero" if math.copysign(1.0, b) < 0 else "to_plus_zero"] += 1
            elif a == b or (math.isnan(a) and math.isnan(b)):
                other = True  # the same number, written another way
            else:
                report["changed"] += 1
                report["integers"] += bool(INTEGER.fullmatch(word_a) and INTEGER.fullmatch(word_b))
                rel = abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b) else math.inf
                if not rel <= report["largest"][0]:
                    report["largest"] = (rel, word_a, word_b)
                report["of_scale"] = max(report["of_scale"], abs(a - b) / scale if scale else math.inf)
        report["other_lines"] += other
    return report


def compare(before: Path, after: Path) -> int:
    """Print how every file under `after` moved from its namesake under `before`; 1 if any did."""
    files_a = {p.relative_to(before) for p in before.rglob("*") if p.is_file()}
    files_b = {p.relative_to(after) for p in after.rglob("*") if p.is_file()}
    for side, only in ((before, files_a - files_b), (after, files_b - files_a)):
        for path in sorted(only):
            print(f"only in {side}: {path}")
    moved = 0
    for path in sorted(files_a & files_b):
        bytes_a, bytes_b = (before / path).read_bytes(), (after / path).read_bytes()
        if bytes_a == bytes_b:
            continue
        moved += 1
        r = compare_file(bytes_a.decode("utf-8", "replace"), bytes_b.decode("utf-8", "replace"))
        rel, word_a, word_b = r["largest"]
        largest = (f"largest relative change {rel:.3g} ({word_a} -> {word_b}), {r['of_scale']:.3g} of the largest |value|"
                   if r["changed"] else "no number changed")
        print(f"{path}: {r['changed']} numbers changed ({r['integers']} integers), {largest}; zero signs +0 -> -0 {r['to_minus_zero']}, "
              f"-0 -> +0 {r['to_plus_zero']}; other changed lines {r['other_lines']}; lines inserted {r['inserted']}, "
              f"deleted {r['deleted']}")
    same = len(files_a & files_b) - moved
    print(f"{moved} files moved, {same} identical, {len(files_a ^ files_b)} on one side only")
    return int(bool(moved or files_a ^ files_b))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="?", help="directory that receives OUT/<config>/<command>/")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two output directories instead of writing one")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT, or --compare BEFORE AFTER")
    for name, overrides in CONFIGS.items():
        confdir = args.out / name
        confdir.mkdir(parents=True, exist_ok=True)
        config = confdir / "config.json"
        config.write_text(json.dumps({**BASE, **overrides}, indent=1), encoding="utf-8")
        for command in COMMANDS:
            run_command(command, config, confdir / command)
    print(f"wrote {len(CONFIGS) * len(COMMANDS)} command runs under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
