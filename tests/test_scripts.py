"""Smoke runs of the experiment scripts at small sizes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("wcns_pipeline.py", ["--radius", "5", "--t-end", "0.02", "--dt", "1e-3"]),
        ("weak_strong_demo.py", ["--radius", "2", "--t-end", "0.05"]),
        ("oracle_convergence.py", ["--max-span", "1e2"]),
    ],
)
def test_script_runs(script, args):
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr


def test_cli_outputs_script_keeps_every_command_run(tmp_path):
    proc = _run("cli_outputs.py", [str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    codes = {
        (path.parent.parent.name, path.parent.name): int(path.read_text())
        for path in tmp_path.glob("*/*/exit_code")
    }
    assert len(codes) == 40
    # wcns-report needs a 2-D preset: on the other configs it is an input error; and every command
    # refuses a modes entry of 2 components for the 4-component gas when it reads the config
    commands = ("validate", "operators", "dissipativity", "simulate", "wcns-report")
    refused = {(config, "wcns-report") for config in ("gas1d-r6", "inline", "gas3d-r2", "asymmetric")}
    refused |= {("bad-modes", command) for command in commands}
    assert {run for run, code in codes.items() if code == 2} == refused
    for config, command in refused:
        assert (tmp_path / config / command / "stderr").read_text().startswith("input error: ")
    assert {(tmp_path / "bad-modes" / command / "stderr").read_text() for command in commands} == {
        "input error: mode [1, 0]: coeff_re and coeff_im need 4 components each\n"}
    # the spec without entropy structure fails validation, and the commands on the spectrum refuse it
    failed = {(run, command) for (run, command), code in codes.items() if code == 1}
    assert failed == {("asymmetric", c) for c in ("validate", "operators", "dissipativity", "simulate")}
    assert set(codes.values()) == {0, 1, 2}
    assert all(codes[("clock", command)] == 0 for command in commands)
    assert (tmp_path / "asymmetric" / "simulate" / "stderr").read_text() == (
        "entropy validation failed; refusing to build operators\n")
    assert (tmp_path / "gas3d-r2" / "operators" / "resonance_table.csv").is_file()
    assert (tmp_path / "gas2d-r4" / "operators" / "resonance_table.csv").is_file()
    assert any((tmp_path / "gas2d-r4" / "simulate" / "snapshots").iterdir())
    # IF-RK2 from a nonzero zero mode: 50 steps, a snapshot every 5
    assert len(list((tmp_path / "gas2d-r3-rk2" / "simulate" / "snapshots").iterdir())) == 11
    # dt = 1.5e-6 to 3e-5, a snapshot every step: 21 files, each named by its diagnostics.csv time
    assert len(list((tmp_path / "clock" / "simulate" / "snapshots").iterdir())) == 21


def test_cli_outputs_compare_reports_how_files_moved(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for root, text in ((before, "t,e\n0,0.5\n1,0\n2,1e-20\n"), (after, "t,e\n0,0.5000000001\n1,-0\n2,-1e-20\n")):
        (root / "cfg").mkdir(parents=True)
        (root / "cfg" / "diagnostics.csv").write_text(text)
        (root / "cfg" / "stdout").write_text("done\n")
    (after / "cfg" / "extra").write_text("x\n")
    proc = _run("cli_outputs.py", ["--compare", str(before), str(after)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        f"only in {after}: cfg/extra",
        "cfg/diagnostics.csv: 2 numbers changed (0 integers), largest relative change 2 (1e-20 -> -1e-20), 5e-11 of the largest "
        "|value|; zero signs +0 -> -0 1, -0 -> +0 0; other changed lines 0; lines inserted 0, deleted 0",
        "1 files moved, 1 identical, 1 on one side only",
    ]
    same = _run("cli_outputs.py", ["--compare", str(before), str(before)])
    assert same.returncode == 0 and same.stdout == "0 files moved, 2 identical, 0 on one side only\n"


def test_cli_outputs_compare_aligns_lines_before_numbers(tmp_path):
    """A line inserted above a moved number is reported as inserted, and the number still reads as
    moved; a deleted line reads as deleted."""
    before, after = tmp_path / "before", tmp_path / "after"
    for root, text in (
        (before, "spectrum: 1e-16\nresonance triples: 120\nmax cyclic residual 2.0e-16\ndone\nlast\n"),
        (after, "spectrum: 1e-16\nmargin: 0.5\nresonance triples: 120\nmax cyclic residual 3.0e-16\ndone\n"),
    ):
        (root / "cfg").mkdir(parents=True)
        (root / "cfg" / "stdout").write_text(text)
    proc = _run("cli_outputs.py", ["--compare", str(before), str(after)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "cfg/stdout: 1 numbers changed (0 integers), largest relative change 0.333 (2.0e-16 -> 3.0e-16), 8.33e-19 of the largest "
        "|value|; zero signs +0 -> -0 0, -0 -> +0 0; other changed lines 0; lines inserted 1, deleted 1",
        "1 files moved, 0 identical, 0 on one side only",
    ]


def test_cli_outputs_compare_counts_the_integers_that_moved(tmp_path):
    """A number written as an integer on both sides (no `.`, `e`, `inf` or `nan`) that changes is
    counted apart from the others: a rank 2 -> 3 is one, while a float that moved (0.5), a float
    written as a whole number on one side only (3.0 -> 4) and a roundoff zero (0 -> 1e-17) are not,
    and an index 7 -> 7.0 or a count 10 -> 1e1 is the same number written another way."""
    before, after = tmp_path / "before", tmp_path / "after"
    for root, text in (
        (before, "k,j,omega,rank\n1,0,0.5,2\n1,7,0,1\ncount 10, total 3.0\n"),
        (after, "k,j,omega,rank\n1,0,0.5000000001,3\n1,7.0,1e-17,1\ncount 1e1, total 4\n"),
    ):
        (root / "cfg").mkdir(parents=True)
        (root / "cfg" / "spectrum.csv").write_text(text)
    proc = _run("cli_outputs.py", ["--compare", str(before), str(after)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "cfg/spectrum.csv: 4 numbers changed (1 integers), largest relative change 1 (0 -> 1e-17), 0.1 of the largest "
        "|value|; zero signs +0 -> -0 0, -0 -> +0 0; other changed lines 2; lines inserted 0, deleted 0",
        "1 files moved, 0 identical, 0 on one side only",
    ]


def test_weak_strong_demo_prints_the_fit_half_and_the_holdout():
    # 150 steps of 2e-3, a snapshot every 50: t = 0 and 0.1 of 0.3 are the fit half
    proc = _run("weak_strong_demo.py", ["--radius", "2", "--t-end", "0.3"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"fitted constant    : \S+ on 2 of 4 snapshots", lines[1])
    assert lines[3] == "envelope holds     : True"
    assert re.fullmatch(r"held-out excess    : \d\.\d{3}e[+-]\d\d", lines[4])
    assert len(lines) == 5 + 2 + 4  # five fields, a blank line and the column titles, four snapshot rows


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
