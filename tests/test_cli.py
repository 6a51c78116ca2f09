import json
import re
from pathlib import Path

import numpy as np
import pytest

import wndkit as wk
from wndkit import cli
from wndkit.cli import main
from wndkit.spectral import convolution_pair_count


def write_config(path: Path, **overrides) -> Path:
    config = {
        "system": "ideal-gas-2d",
        "lattice_k": 2,
        "resonance": {"exact_rule": True},
        "simulation": {
            "dt": 0.005,
            "t_end": 0.05,
            "integrator": "if_rk4",
            "diagnostics_every": 5,
            "initial": {"type": "random", "seed": 7, "decay": 3.0, "amplitude": 0.1},
        },
        "dissipativity": {"alpha_grid": 8, "direction_count": 32},
        "outputs": {"directory": str(path.parent / "out")},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def test_validate_preset(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    assert main(["validate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "entropy_report.txt").exists()
    assert "PASS" in capsys.readouterr().out


def test_validate_roundtrips_spec(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    main(["validate", "--config", str(cfg)])
    payload = json.loads((tmp_path / "out" / "system_spec.json").read_text())
    spec = wk.spec_from_dict(payload)
    model = wk.build_preset("ideal-gas-2d")
    assert np.array_equal(spec.advection, model.spec.advection)
    assert np.array_equal(spec.quadratic, model.spec.quadratic)


def test_validate_negative_diffusion_exits_one(tmp_path):
    bad = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[-1.0]]]], [[[[0.0]]]], [[1.0]])
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(bad))
    cfg_data = json.loads(cfg.read_text())
    cfg_data["resonance"] = {"exact_rule": False}
    cfg.write_text(json.dumps(cfg_data))
    assert main(["validate", "--config", str(cfg)]) == 1
    text = (tmp_path / "out" / "entropy_report.txt").read_text()
    assert "min_diffusion_eigenvalue = -1" in text


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{broken")
    assert main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def one_mode(**entry) -> dict:
    """A `modes` initial condition with one entry."""
    return {"type": "modes", "entries": [entry]}


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("validate", None, "lattice_k", "abc"),
        ("validate", "resonance", "tolerance", "x"),
        ("simulate", "simulation", "integrator", "rk3"),
        ("simulate", "simulation", "diagnostics_every", 0),
        ("simulate", "simulation", "t_end", -1),
        ("dissipativity", "dissipativity", "direction_count", 0),
        ("validate", None, None, []),  # key None: the whole config is `value`
        ("validate", None, "resonance", []),
        ("simulate", None, "simulation", []),
        ("dissipativity", None, "dissipativity", "abc"),
        ("validate", None, "outputs", []),
        ("dissipativity", "dissipativity", "alpha_grid", [-1.0]),
        ("dissipativity", "dissipativity", "alpha_grid", "abc"),
        ("dissipativity", "dissipativity", "alpha_grid", 0),
        ("dissipativity", "dissipativity", "alpha_grid", []),
        ("dissipativity", "dissipativity", "alpha_grid", 10**12),  # refused before allocating
        ("dissipativity", "dissipativity", "alpha_grid", [1.0] * 10_001),
        ("dissipativity", "dissipativity", "direction_count", 10**12),
        # exact_rule is a JSON boolean and the counts JSON integers: nothing is coerced
        ("validate", "resonance", "exact_rule", "false"),
        ("validate", "resonance", "exact_rule", 0),
        ("validate", None, "lattice_k", 2.7),
        ("validate", None, "lattice_k", 2.0),
        ("validate", None, "lattice_k", "3"),
        ("validate", None, "lattice_k", True),
        ("validate", "simulation", "diagnostics_every", 2.5),
        ("validate", "simulation", "diagnostics_every", True),
        ("validate", "dissipativity", "direction_count", 10.9),
        ("validate", "dissipativity", "direction_count", "32"),
        # real parameters are finite JSON numbers and seeds JSON integers
        ("simulate", "simulation", "t_end", "inf"),
        ("simulate", "simulation", "t_end", float("inf")),
        ("simulate", "simulation", "t_end", True),
        ("simulate", "simulation", "t_end", "0.05"),
        ("simulate", "simulation", "dt", "0.005"),
        ("simulate", "simulation", "dt", float("nan")),
        ("simulate", "simulation", "dt", True),
        ("validate", "resonance", "tolerance", float("inf")),
        ("validate", "resonance", "tolerance", True),
        ("simulate", "simulation", "initial", {"type": "random", "amplitude": "nan"}),
        ("simulate", "simulation", "initial", {"type": "random", "amplitude": float("nan")}),
        ("simulate", "simulation", "initial", {"type": "random", "decay": "3"}),
        ("simulate", "simulation", "initial", {"type": "random", "decay": float("-inf")}),
        ("simulate", "simulation", "initial", {"type": "random", "seed": 7.9}),
        ("simulate", "simulation", "initial", {"type": "random", "seed": True}),
        ("simulate", "simulation", "seed", 2.5),
        ("simulate", "simulation", "seed", "3"),
        ("simulate", "simulation", "sobolev_orders", ["nan"]),
        ("simulate", "simulation", "sobolev_orders", "1"),
        # a modes entry holds JSON integers and finite JSON numbers
        ("simulate", "simulation", "initial", one_mode(mode=[1.7, 0], coeff_re=[1, 0, 0, 0])),
        ("simulate", "simulation", "initial", one_mode(mode=[1, 0], coeff_re=["nan", 0, 0, 0])),
        ("simulate", "simulation", "initial", one_mode(mode=[1, 0], coeff_re=[1, 0, 0, 0], coeff_im=[float("nan")] * 4)),
        # the tolerance is positive, the output directory a JSON string and each alpha a finite JSON number
        ("validate", "resonance", "tolerance", 0),
        ("validate", "resonance", "tolerance", -1),
        ("validate", "outputs", "directory", 5),
        ("validate", "outputs", "directory", ["out"]),
        ("dissipativity", "dissipativity", "alpha_grid", ["0.5", True]),
        ("dissipativity", "dissipativity", "alpha_grid", [0.5, True]),
        ("dissipativity", "dissipativity", "alpha_grid", [[0.5]]),
        ("dissipativity", "dissipativity", "alpha_grid", [float("nan")]),
        ("dissipativity", "dissipativity", "alpha_grid", 2.5),
        # the empty directory would be the working directory
        ("validate", "outputs", "directory", ""),
        # the zero mode is its own mirror: an imaginary part there is refused, not dropped
        ("simulate", "simulation", "initial", one_mode(mode=[0, 0], coeff_re=[1, 0, 0, 0], coeff_im=[0.5, 0, 0, 0])),
    ],
)
def test_bad_config_values_exit_two(tmp_path, capsys, command, section, key, value):
    cfg = write_config(tmp_path / "run.json")
    data = json.loads(cfg.read_text())
    if key is None:
        data = value
    else:
        (data if section is None else data.setdefault(section, {}))[key] = value
    cfg.write_text(json.dumps(data))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["operators", "simulate", "wcns-report"])
def test_refused_resonance_table_exits_two_before_writing(tmp_path, capsys, command):
    # the float rule at 1e-30 rejects null triples, whose frequencies are eigensolve noise
    cfg = write_config(tmp_path / "run.json", resonance={"exact_rule": False, "tolerance": 1e-30})
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ")
    assert "null triples at k = " in err
    assert not any((tmp_path / "out").iterdir())


def test_exact_rule_table_refusal_is_a_fault(tmp_path, monkeypatch):
    # the exact rule has no tolerance in the config, so a refused table is a
    # program fault: it propagates instead of becoming an input error
    monkeypatch.setattr(cli.ns, "make_exact_resonance_rule", lambda model: lambda k, w1, *rest: np.zeros(w1.shape, bool))
    cfg = write_config(tmp_path / "run.json")
    with pytest.raises(ValueError, match="null triples at k = ") as info:
        main(["operators", "--config", str(cfg)])
    assert not isinstance(info.value, cli.ConfigError)


def test_lattice_pair_guard_exits_two_before_building(tmp_path, capsys, monkeypatch):
    # 2-D R=34 has (3*34^2 + 3*34 + 1)^2 = 12,752,041 pairs; R=33 (11,336,689) is admitted
    assert convolution_pair_count(2, 34) > cli.MAX_PAIRS >= convolution_pair_count(2, 33)

    def refuse(*args, **kwargs):
        raise AssertionError("build_operators called")

    monkeypatch.setattr(cli, "build_operators", refuse)
    cfg = write_config(tmp_path / "run.json", lattice_k=34)
    assert main(["operators", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ")
    assert "12752041" in err


def modes_config(path: Path, entries: list) -> Path:
    cfg = write_config(path)
    data = json.loads(cfg.read_text())
    data["simulation"]["initial"] = {"type": "modes", "entries": entries}
    cfg.write_text(json.dumps(data))
    return cfg


@pytest.mark.parametrize(
    "entry",
    [
        {"coeff_re": [1.0, 0.0, 0.0, 0.0]},  # no mode
        {"mode": [1, 0]},  # no coeff_re
        {"mode": [9, 9], "coeff_re": [1.0, 0.0, 0.0, 0.0]},  # outside the radius-2 lattice
        {"mode": [1], "coeff_re": [1.0, 0.0, 0.0, 0.0]},  # 1-D mode on the 2-D lattice
        {"mode": [1, 0], "coeff_re": [1.0, 0.0]},  # 2 components for the 4-component gas
        {"mode": [1, 0], "coeff_re": [1.0, 0.0, 0.0, 0.0], "coeff_im": [1.0]},
    ],
)
def test_bad_modes_entry_exits_two(tmp_path, capsys, entry):
    cfg = modes_config(tmp_path / "run.json", [entry])
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ")


@pytest.mark.parametrize("entries", [5, None])
def test_modes_entries_not_a_list_exits_two(tmp_path, capsys, entries):
    cfg = modes_config(tmp_path / "run.json", entries)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ")


def test_simulate_dt_must_divide_t_end(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    data = json.loads(cfg.read_text())
    data["simulation"]["dt"] = 0.03  # t_end 0.05 is not a whole number of steps
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ")
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


def test_simulate_default_dt_ends_at_t_end(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    data = json.loads(cfg.read_text())
    del data["simulation"]["dt"]
    data["simulation"]["t_end"] = 0.0125  # 12.5 steps of the 1e-3 cap: 13 equal steps instead
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert "simulated to t = 0.0125;" in capsys.readouterr().out
    energy = np.loadtxt(tmp_path / "out" / "energy.dat")
    assert energy[-1, 0] == pytest.approx(0.0125, rel=1e-12)


def test_simulate_modes_initial(tmp_path):
    entry = {"mode": [1, 0], "coeff_re": [0.0, 0.01, 0.0, 0.0], "coeff_im": [0.0, 0.0, 0.02, 0.0]}
    cfg = modes_config(tmp_path / "run.json", [entry])
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "snapshots" / "state_t0.000000.csv").read_text().splitlines()
    values = {}
    for row in rows:
        fields = row.split(",")
        values[tuple(int(c) for c in fields[:3])] = complex(float(fields[3]), float(fields[4]))
    assert values[(1, 0, 1)] == 0.01 and values[(1, 0, 2)] == 0.02j
    assert values[(-1, 0, 1)] == 0.01 and values[(-1, 0, 2)] == -0.02j  # the mirrored conjugate
    assert sum(abs(v) for v in values.values()) == pytest.approx(0.06)


def test_unknown_preset_exits_two(tmp_path):
    cfg = write_config(tmp_path / "run.json", system="no-such-system")
    assert main(["validate", "--config", str(cfg)]) == 2


def test_operators_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    assert main(["operators", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    assert "float resonance rule" not in stdout  # exact rule: no margin line
    assert re.search(r"qbar coefficients: [1-9]\d* terms, [1-9]\d* bytes; [1-9]\d* dropped as structural zeros, "
                     r"largest dropped \S+, smallest kept \S+", stdout)
    out = tmp_path / "out"
    table = (out / "resonance_table.csv").read_text().strip().splitlines()
    assert len(table) > 0
    residuals = (out / "cyclic_residuals.csv").read_text().strip().splitlines()[1:]
    assert all(float(line.split(",")[1]) <= 1e-10 for line in residuals)


def test_operators_scalar_advection_diffusion(tmp_path, capsys):
    scalar = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.25]]]], [[[[0.5]]]], [[1.0]])
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(scalar), lattice_k=8)
    data = json.loads(cfg.read_text())
    data["resonance"] = {"exact_rule": False}
    cfg.write_text(json.dumps(data))
    assert main(["operators", "--config", str(cfg)]) == 0
    # every scalar pair is resonant, so the float rule (scale 8) rejects nothing
    assert "tolerance 8.000e-09, closest rejected inf" in capsys.readouterr().out
    out = tmp_path / "out"
    spectrum = (out / "spectrum.csv").read_text().strip().splitlines()
    assert len(spectrum) == 17  # one frequency per mode on the radius-8 line
    residuals = (out / "cyclic_residuals.csv").read_text().strip().splitlines()[1:]
    assert all(float(line.split(",")[1]) <= 1e-12 for line in residuals)


def test_dissipativity_exit_codes(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    assert main(["dissipativity", "--config", str(cfg)]) == 0
    euler = wk.build_cns_spec(wk.ideal_gas(3), wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
    cfg2 = write_config(tmp_path / "euler.json", system=wk.spec_to_dict(euler))
    data = json.loads(cfg2.read_text())
    data["resonance"] = {"exact_rule": False}
    cfg2.write_text(json.dumps(data))
    assert main(["dissipativity", "--config", str(cfg2)]) == 1


def test_simulate_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    diag = (out / "diagnostics.csv").read_bytes()
    energy = np.loadtxt(out / "energy.dat")
    assert energy.shape[1] == 2
    assert np.all(np.diff(energy[:, 1]) <= 1e-12)
    assert len(list((out / "snapshots").glob("*.csv"))) >= 2
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (out / "diagnostics.csv").read_bytes() == diag


def test_simulate_zero_initial(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    data = json.loads(cfg.read_text())
    data["simulation"]["initial"] = {"type": "zero"}
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg)]) == 0
    energy = np.loadtxt(tmp_path / "out" / "energy.dat")
    assert np.abs(energy[:, 1]).max() == 0.0


def test_simulate_blowup_exits_three(tmp_path):
    euler = wk.build_cns_spec(wk.ideal_gas(3), wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(euler))
    data = json.loads(cfg.read_text())
    data["resonance"] = {"exact_rule": False}
    data["simulation"] = {
        "dt": 0.01,
        "t_end": 5.0,
        "integrator": "if_rk4",
        "diagnostics_every": 100,
        "initial": {"type": "random", "seed": 2, "decay": 1.0, "amplitude": 5000.0},
    }
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert (tmp_path / "out" / "blowup.txt").exists()


def test_wcns_report(tmp_path):
    cfg = write_config(tmp_path / "run.json", lattice_k=5)
    assert main(["wcns-report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "wcns_report.json").read_text())
    assert report["sound_speed"] == pytest.approx((5.0 / 3.0) ** 0.5)
    assert report["acoustic_diffusivity"] == pytest.approx(0.8)


def test_wcns_report_requires_preset(tmp_path):
    spec = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.1]]]], [[[[0.0]]]], [[1.0]])
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(spec))
    data = json.loads(cfg.read_text())
    data["resonance"] = {"exact_rule": False}
    cfg.write_text(json.dumps(data))
    assert main(["wcns-report", "--config", str(cfg)]) == 2


def test_wcns_report_requires_two_dimensions(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("operators built for a 1-D wcns-report")

    monkeypatch.setattr("wndkit.cli.build_operators", fail)
    cfg = write_config(tmp_path / "run.json", system="ideal-gas-1d")
    assert main(["wcns-report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "d = 1" in err


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    main(["simulate", "--config", str(cfg), "--seed", "1"])
    first = (tmp_path / "out" / "diagnostics.csv").read_bytes()
    main(["simulate", "--config", str(cfg), "--seed", "2"])
    second = (tmp_path / "out" / "diagnostics.csv").read_bytes()
    assert first != second


def test_simulation_level_seed_alias(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    data = json.loads(cfg.read_text())
    data["simulation"]["initial"] = {"type": "random", "decay": 3.0, "amplitude": 0.1}
    data["simulation"]["seed"] = 7
    cfg.write_text(json.dumps(data))
    main(["simulate", "--config", str(cfg)])
    aliased = (tmp_path / "out" / "diagnostics.csv").read_bytes()
    data["simulation"]["initial"]["seed"] = 7
    del data["simulation"]["seed"]
    cfg.write_text(json.dumps(data))
    main(["simulate", "--config", str(cfg)])
    assert (tmp_path / "out" / "diagnostics.csv").read_bytes() == aliased
