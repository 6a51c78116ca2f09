import dataclasses
import json
import re
import warnings
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


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err == f"input error: config file not found: {tmp_path / 'absent.json'}\n"


def one_mode(**entry) -> dict:
    """A `modes` initial condition with one entry."""
    return {"type": "modes", "entries": [entry]}


@pytest.mark.parametrize(
    "command, section, key, value",
    # explicit ids: a case added anywhere renames no other; the older ones keep the
    # names pytest first generated for them
    [
        pytest.param("validate", None, "lattice_k", "abc", id="validate-None-lattice_k-abc"),
        pytest.param("validate", "resonance", "tolerance", "x", id="validate-resonance-tolerance-x"),
        pytest.param("simulate", "simulation", "integrator", "rk3", id="simulate-simulation-integrator-rk3"),
        pytest.param("simulate", "simulation", "diagnostics_every", 0, id="simulate-simulation-diagnostics_every-0"),
        pytest.param("simulate", "simulation", "t_end", -1, id="simulate-simulation-t_end--1"),
        pytest.param("dissipativity", "dissipativity", "direction_count", 0,
                     id="dissipativity-dissipativity-direction_count-0"),
        # key None: the whole config is `value`
        pytest.param("validate", None, None, [], id="validate-None-None-value6"),
        pytest.param("validate", None, "resonance", [], id="validate-None-resonance-value7"),
        pytest.param("simulate", None, "simulation", [], id="simulate-None-simulation-value8"),
        pytest.param("dissipativity", None, "dissipativity", "abc", id="dissipativity-None-dissipativity-abc"),
        pytest.param("validate", None, "outputs", [], id="validate-None-outputs-value10"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", [-1.0],
                     id="dissipativity-dissipativity-alpha_grid-value11"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", "abc",
                     id="dissipativity-dissipativity-alpha_grid-abc"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", 0, id="dissipativity-dissipativity-alpha_grid-0"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", [],
                     id="dissipativity-dissipativity-alpha_grid-value14"),
        # refused before allocating
        pytest.param("dissipativity", "dissipativity", "alpha_grid", 10**12,
                     id="dissipativity-dissipativity-alpha_grid-1000000000000"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", [1.0] * 10_001,
                     id="dissipativity-dissipativity-alpha_grid-value16"),
        pytest.param("dissipativity", "dissipativity", "direction_count", 10**12,
                     id="dissipativity-dissipativity-direction_count-1000000000000"),
        # exact_rule is a JSON boolean and the counts JSON integers: nothing is coerced
        pytest.param("validate", "resonance", "exact_rule", "false", id="validate-resonance-exact_rule-false"),
        pytest.param("validate", "resonance", "exact_rule", 0, id="validate-resonance-exact_rule-0"),
        pytest.param("validate", None, "lattice_k", 2.7, id="validate-None-lattice_k-2.7"),
        pytest.param("validate", None, "lattice_k", 2.0, id="validate-None-lattice_k-2.0"),
        pytest.param("validate", None, "lattice_k", "3", id="validate-None-lattice_k-3"),
        pytest.param("validate", None, "lattice_k", True, id="validate-None-lattice_k-True"),
        pytest.param("validate", "simulation", "diagnostics_every", 2.5,
                     id="validate-simulation-diagnostics_every-2.5"),
        pytest.param("validate", "simulation", "diagnostics_every", True,
                     id="validate-simulation-diagnostics_every-True"),
        pytest.param("validate", "dissipativity", "direction_count", 10.9,
                     id="validate-dissipativity-direction_count-10.9"),
        pytest.param("validate", "dissipativity", "direction_count", "32",
                     id="validate-dissipativity-direction_count-32"),
        # real parameters are finite JSON numbers and seeds JSON integers
        pytest.param("simulate", "simulation", "t_end", "inf", id="simulate-simulation-t_end-inf0"),
        pytest.param("simulate", "simulation", "t_end", float("inf"), id="simulate-simulation-t_end-inf1"),
        pytest.param("simulate", "simulation", "t_end", True, id="simulate-simulation-t_end-True"),
        pytest.param("simulate", "simulation", "t_end", "0.05", id="simulate-simulation-t_end-0.05"),
        pytest.param("simulate", "simulation", "dt", "0.005", id="simulate-simulation-dt-0.005"),
        pytest.param("simulate", "simulation", "dt", float("nan"), id="simulate-simulation-dt-nan"),
        pytest.param("simulate", "simulation", "dt", True, id="simulate-simulation-dt-True"),
        pytest.param("validate", "resonance", "tolerance", float("inf"), id="validate-resonance-tolerance-inf"),
        pytest.param("validate", "resonance", "tolerance", True, id="validate-resonance-tolerance-True"),
        pytest.param("simulate", "simulation", "initial", {"type": "random", "amplitude": "nan"},
                     id="simulate-simulation-initial-value37"),
        pytest.param("simulate", "simulation", "initial", {"type": "random", "amplitude": float("nan")},
                     id="simulate-simulation-initial-value38"),
        pytest.param("simulate", "simulation", "initial", {"type": "random", "decay": "3"},
                     id="simulate-simulation-initial-value39"),
        pytest.param("simulate", "simulation", "initial", {"type": "random", "decay": float("-inf")},
                     id="simulate-simulation-initial-value40"),
        pytest.param("simulate", "simulation", "initial", {"type": "random", "seed": 7.9},
                     id="simulate-simulation-initial-value41"),
        pytest.param("simulate", "simulation", "initial", {"type": "random", "seed": True},
                     id="simulate-simulation-initial-value42"),
        pytest.param("simulate", "simulation", "seed", 2.5, id="simulate-simulation-seed-2.5"),
        pytest.param("simulate", "simulation", "seed", "3", id="simulate-simulation-seed-3"),
        pytest.param("simulate", "simulation", "sobolev_orders", ["nan"],
                     id="simulate-simulation-sobolev_orders-value45"),
        pytest.param("simulate", "simulation", "sobolev_orders", "1", id="simulate-simulation-sobolev_orders-1"),
        # a modes entry holds JSON integers and finite JSON numbers
        pytest.param("simulate", "simulation", "initial", one_mode(mode=[1.7, 0], coeff_re=[1, 0, 0, 0]),
                     id="simulate-simulation-initial-value47"),
        pytest.param("simulate", "simulation", "initial", one_mode(mode=[1, 0], coeff_re=["nan", 0, 0, 0]),
                     id="simulate-simulation-initial-value48"),
        pytest.param("simulate", "simulation", "initial",
                     one_mode(mode=[1, 0], coeff_re=[1, 0, 0, 0], coeff_im=[float("nan")] * 4),
                     id="simulate-simulation-initial-value49"),
        # the tolerance is positive, the output directory a JSON string and each alpha a finite JSON number
        pytest.param("validate", "resonance", "tolerance", 0, id="validate-resonance-tolerance-0"),
        pytest.param("validate", "resonance", "tolerance", -1, id="validate-resonance-tolerance--1"),
        pytest.param("validate", "outputs", "directory", 5, id="validate-outputs-directory-5"),
        pytest.param("validate", "outputs", "directory", ["out"], id="validate-outputs-directory-value53"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", ["0.5", True],
                     id="dissipativity-dissipativity-alpha_grid-value54"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", [0.5, True],
                     id="dissipativity-dissipativity-alpha_grid-value55"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", [[0.5]],
                     id="dissipativity-dissipativity-alpha_grid-value56"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", [float("nan")],
                     id="dissipativity-dissipativity-alpha_grid-value57"),
        pytest.param("dissipativity", "dissipativity", "alpha_grid", 2.5,
                     id="dissipativity-dissipativity-alpha_grid-2.5"),
        # the empty directory would be the working directory
        pytest.param("validate", "outputs", "directory", "", id="validate-outputs-directory-"),
        # the zero mode is its own mirror: an imaginary part there is refused, not dropped
        pytest.param("simulate", "simulation", "initial",
                     one_mode(mode=[0, 0], coeff_re=[1, 0, 0, 0], coeff_im=[0.5, 0, 0, 0]),
                     id="simulate-simulation-initial-value60"),
        pytest.param("validate", None, "lattice_k", 0, id="validate-None-lattice_k-0"),
        pytest.param("simulate", "simulation", "dt", 0, id="simulate-simulation-dt-0"),
        pytest.param("simulate", "simulation", "initial", {"type": "sine"}, id="simulate-simulation-initial-value63"),
        # the system is a preset name or an inline spec mapping, and the exact rule needs a preset
        pytest.param("validate", None, "system", 5, id="validate-None-system-5"),
        pytest.param("validate", None, "system", {"dim": 1, "ncomp": 1}, id="validate-None-system-value65"),
        pytest.param("validate", None, "system",
                     wk.spec_to_dict(wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.1]]]], [[[[0.0]]]], [[1.0]])),
                     id="validate-None-system-value66"),
        # a random initial's seed is a Philox key, in [0, 2**128)
        pytest.param("simulate", "simulation", "initial", {"type": "random", "seed": -1},
                     id="simulate-simulation-initial-value67"),
        pytest.param("simulate", "simulation", "initial", {"type": "random", "seed": 2**128},
                     id="simulate-simulation-initial-value68"),
        # simulation.seed keys a random initial that names no seed
        pytest.param("simulate", None, None, {"system": "ideal-gas-2d", "lattice_k": 2, "simulation": {
            "dt": 0.005, "t_end": 0.05, "seed": -1, "initial": {"type": "random"}}}, id="simulate-None-None-value69"),
        # an unknown key is refused, not ignored: a lattice radius the config cannot hold, a misspelled
        # integrator and a misspelled seed once ran on the defaults
        pytest.param("simulate", None, "lattice", {"radius": 16}, id="simulate-None-lattice-radius"),
        pytest.param("simulate", "simulation", "integrater", "if_rk2", id="simulate-simulation-integrater"),
        pytest.param("simulate", "simulation", "initial", {"type": "random", "sed": 7},
                     id="simulate-simulation-initial-sed"),
        # the initial condition is a JSON object, not a value dict() accepts
        pytest.param("validate", "simulation", "initial", [], id="validate-simulation-initial-list"),
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


GAS_SPEC = wk.spec_to_dict(wk.build_preset("ideal-gas-2d").spec)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        pytest.param(None, "lattice", {"radius": 16}, "unknown key 'lattice' in the config; known keys: "
                     "dissipativity, lattice_k, outputs, resonance, simulation, system", id="config"),
        pytest.param("resonance", "tolerence", 1e-9,
                     "unknown key 'tolerence' in resonance; known keys: exact_rule, tolerance", id="resonance"),
        pytest.param("simulation", "integrater", "if_rk2", "unknown key 'integrater' in simulation; known keys: "
                     "diagnostics_every, dt, initial, integrator, seed, sobolev_orders, t_end", id="simulation"),
        pytest.param("simulation", "initial", {"type": "random", "sed": 7},
                     "unknown key 'sed' in a random initial; known keys: amplitude, decay, seed, type",
                     id="random-initial"),
        pytest.param("simulation", "initial", {"type": "modes", "entry": []},
                     "unknown key 'entry' in a modes initial; known keys: entries, type", id="modes-initial"),
        pytest.param("simulation", "initial", {"type": "zero", "seed": 3},
                     "unknown key 'seed' in a zero initial; known keys: type", id="zero-initial"),
        pytest.param("simulation", "initial", one_mode(mode=[1, 0], coeff_re=[1, 0, 0, 0], coeff_imag=[0, 0, 0, 0]),
                     "unknown key 'coeff_imag' in a modes entry; known keys: coeff_im, coeff_re, mode",
                     id="modes-entry"),
        pytest.param("dissipativity", "alpha", 8,
                     "unknown key 'alpha' in dissipativity; known keys: alpha_grid, direction_count",
                     id="dissipativity"),
        pytest.param("outputs", "dir", "out", "unknown key 'dir' in outputs; known keys: directory", id="outputs"),
        pytest.param(None, "system", {**GAS_SPEC, "lables": ["rho", "u", "v", "theta"]},
                     "unknown key 'lables' in the inline spec; known keys: advection, diffusion, dim, "
                     "entropy_hessian, labels, ncomp, quadratic, state", id="inline-spec"),
        pytest.param(None, "system", {**GAS_SPEC, "diffusion": {**GAS_SPEC["diffusion"], "dtype": "float64"}},
                     "unknown key 'dtype' in system.diffusion; known keys: data, shape", id="inline-spec-tensor"),
    ],
)
def test_unknown_config_keys_exit_two(tmp_path, capsys, section, key, value, message):
    data = json.loads(write_config(tmp_path / "run.json").read_text())
    (data if section is None else data[section])[key] = value
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


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
    make_rule = cli.ns.make_exact_resonance_rule

    def lopsided(model):
        rule = make_rule(model)

        def decide(k, s1, l, s2, m, s3):
            # drops the (+, + -> +) triples at k = (1, 0) but keeps their mirrors
            plus = (k == (1, 0)).all(axis=-1) & (s1 == 1) & (s2 == 1) & (s3 == 1)
            return rule(k, s1, l, s2, m, s3) & ~plus

        return decide

    monkeypatch.setattr(cli.ns, "make_exact_resonance_rule", lopsided)
    cfg = write_config(tmp_path / "run.json")
    with pytest.raises(ValueError, match="not closed under negation") as info:
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


@pytest.mark.parametrize(
    "section, values, message",
    [
        # 10^9 criterion pencils: hours of eigensolves and 8 GB of betas
        ("dissipativity", {"alpha_grid": 10_000, "direction_count": 100_000}, "criterion pencils"),
        # 10^8 steps of 289 modes x 4 components: 1.85 TB of snapshots
        ("simulation", {"t_end": 1e5, "dt": 1e-3, "diagnostics_every": 1}, "coefficient-steps"),
        # without dt the steps are counted at 1e-3, a lower bound: the automatic step never exceeds it
        ("simulation", {"t_end": 1e5, "dt": None, "diagnostics_every": 1}, "coefficient-steps"),
        # 10^7 steps of a scalar at R=1 are only 3 x 10^7 coefficient-steps, but at a step's fixed ~0.2 ms
        # they take over half an hour: a step is charged at least cli.STEP_COEFFICIENTS coefficients
        ("config", {"system": wk.spec_to_dict(wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.3]]]], [[[[0.5]]]], [[1.0]])),
                    "lattice_k": 1, "resonance": {}, "simulation": {"t_end": 1e4, "dt": 1e-3}}, "coefficient-steps"),
    ],
)
def test_run_refuses_products_past_their_caps(tmp_path, section, values, message):
    # only Run is built: the refused configs must never run
    config = json.loads(write_config(tmp_path / "run.json", lattice_k=8).read_text())
    (config if section == "config" else config[section]).update(values)
    with pytest.raises(cli.ConfigError, match=message):
        cli.Run(config)


def test_automatic_step_past_the_coefficient_step_cap_exits_two(tmp_path, capsys, monkeypatch):
    # a = 1000 at R=100 makes omega_max 10^5 and the automatic step 10^-6: 10^7 steps of 201
    # coefficients, 40 times the cap, where Run counts 10^4 steps at 1e-3 and admits the config
    def refuse(*args, **kwargs):
        raise AssertionError("simulate called")

    monkeypatch.setattr(cli, "simulate", refuse)
    fast = wk.SystemSpec(1, 1, [0.0], [[[1000.0]]], [[[[1.0]]]], [[[[0.0]]]], [[1.0]])
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(fast), lattice_k=100,
                       resonance={"exact_rule": False}, simulation={"t_end": 10.0})
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ")
    assert "201 coefficients exceed" in err
    assert not (tmp_path / "out" / "snapshots").exists()


def test_seed_override_outside_the_key_range_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    assert main(["simulate", "--config", str(cfg), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "input error: seed must be in [0, 2**128), got -1\n"
    assert not (tmp_path / "out").exists()


def test_run_admits_products_at_their_caps(tmp_path):
    config = json.loads(write_config(tmp_path / "run.json", lattice_k=8).read_text())
    config["dissipativity"] = {"alpha_grid": cli.MAX_PENCILS // 100_000, "direction_count": 100_000}
    # 289 modes x 4 components
    config["simulation"].update(dt=1e-3, t_end=cli.MAX_COEFFICIENT_STEPS // (289 * 4) * 1e-3)
    run = cli.Run(config)
    assert run.alphas.size * run.direction_count == cli.MAX_PENCILS


def modes_config(path: Path, entries: list) -> Path:
    cfg = write_config(path)
    data = json.loads(cfg.read_text())
    data["simulation"]["initial"] = {"type": "modes", "entries": entries}
    cfg.write_text(json.dumps(data))
    return cfg


def input_error(capsys, command: str, cfg: Path, *flags: str) -> str:
    """The one `input error:` line of a command that exits 2."""
    assert main([command, "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ")
    return err


@pytest.fixture
def refused_at_load(monkeypatch, capsys):
    """Run a command on a config it must refuse as it reads it: exit 2, nothing built or written."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_operators called")

    monkeypatch.setattr(cli, "build_operators", refuse)

    def run(command: str, cfg: Path, *flags: str) -> str:
        err = input_error(capsys, command, cfg, *flags)
        assert not (cfg.parent / "out").exists()
        return err

    return run


def on_every_command(cases: list, ids: list[str]) -> list:
    # the simulate cases keep the ids they had when only simulate was run
    return [pytest.param(command, case, id=i if command == "simulate" else f"{command}-{i}")
            for command in sorted(cli.COMMANDS) for case, i in zip(cases, ids)]


def mode_entry(mode, re, im=None) -> dict:
    return {"mode": mode, "coeff_re": re} if im is None else {"mode": mode, "coeff_re": re, "coeff_im": im}


ONE = [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "command, case",
    on_every_command([
        ([{"coeff_re": ONE}], "needs 'mode' and 'coeff_re'"),  # no mode
        ([{"mode": [1, 0]}], "needs 'mode' and 'coeff_re'"),  # no coeff_re
        ([mode_entry([9, 9], ONE)], "mode [9, 9] is outside the 2-D lattice of radius 2"),
        ([mode_entry([1], ONE)], "mode [1] is outside the 2-D lattice"),  # 1-D mode on the 2-D lattice
        ([mode_entry([1, 0], [1.0, 0.0])], "coeff_re and coeff_im need 4 components each"),  # 2 of the gas's 4
        ([mode_entry([1, 0], ONE, [1.0])], "coeff_re and coeff_im need 4 components each"),
        # a real field sets w(-k) with w(k): a mode named twice, or with its mirror, was summed silently
        ([mode_entry([1, 0], [0.01, 0, 0, 0]), mode_entry([1, 0], [0.02, 0, 0, 0]), mode_entry([-1, 0], [0.0] * 4, [0.05, 0, 0, 0])],
         "mode [1, 0] is named twice"),
        ([mode_entry([1, 0], [0.01, 0, 0, 0]), mode_entry([-1, 0], [0.0] * 4, [0.05, 0, 0, 0])],
         "modes [1, 0] and [-1, 0] are mirrors"),
        ([mode_entry([0, 0], ONE), mode_entry([0, 0], ONE)], "mode [0, 0] is named twice"),  # its own mirror
    ], [f"entry{i}" for i in range(9)]),
)
def test_bad_modes_entry_exits_two(tmp_path, refused_at_load, command, case):
    entries, message = case
    assert message in refused_at_load(command, modes_config(tmp_path / "run.json", entries))


@pytest.mark.parametrize("command, entries", on_every_command([5, None], ["5", "None"]))
def test_modes_entries_not_a_list_exits_two(tmp_path, refused_at_load, command, entries):
    refused_at_load(command, modes_config(tmp_path / "run.json", entries))


@pytest.mark.parametrize("command, kind, seed", [("validate", "modes", "-1"), ("simulate", "zero", "5")])
def test_seed_flag_without_a_random_initial_exits_two(tmp_path, refused_at_load, command, kind, seed):
    # --seed keys only a random initial; on any other it was neither checked nor used
    cfg = modes_config(tmp_path / "run.json", [mode_entry([1, 0], ONE)])
    if kind == "zero":
        data = json.loads(cfg.read_text())
        data["simulation"]["initial"] = {"type": "zero"}
        cfg.write_text(json.dumps(data))
    err = refused_at_load(command, cfg, "--seed", seed)
    assert err == f"input error: --seed keys a random initial, and this run's initial is of type {kind}\n"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("resonance", [{"tolerance": 1e-30}, {"exact_rule": True, "tolerance": 1e-9}],
                         ids=["preset-default", "explicit"])
def test_tolerance_under_the_exact_rule_exits_two(tmp_path, refused_at_load, command, resonance):
    # the exact rule reads no tolerance, so the key would be ignored; the float rule refuses 1e-30
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "ideal-gas-2d", "lattice_k": 2, "resonance": resonance,
                               "outputs": {"directory": str(tmp_path / "out")}}))
    assert refused_at_load(command, cfg) == ("input error: resonance.tolerance sets the float rule, and this run "
                                             "uses the exact rule; drop the key or set exact_rule to false\n")


@pytest.mark.parametrize("kind", ["modes", "zero"])
def test_simulation_seed_outside_the_key_range_exits_two_whatever_the_initial(tmp_path, refused_at_load, kind):
    cfg = modes_config(tmp_path / "run.json", [mode_entry([1, 0], ONE)])
    data = json.loads(cfg.read_text())
    data["simulation"]["seed"] = -1
    if kind == "zero":
        data["simulation"]["initial"] = {"type": "zero"}
    cfg.write_text(json.dumps(data))
    assert refused_at_load("validate", cfg) == "input error: seed must be in [0, 2**128), got -1\n"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_output_directory_that_is_a_file_exits_two(tmp_path, refused_at_load, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    err = refused_at_load(command, write_config(tmp_path / "run.json"), "--out", str(taken))
    assert err == f"input error: cannot make the directory {taken}: File exists\n"


def test_snapshot_directory_that_is_a_file_exits_two_before_building(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_operators called")

    monkeypatch.setattr(cli, "build_operators", refuse)
    cfg = write_config(tmp_path / "run.json")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "snapshots").write_text("")
    err = input_error(capsys, "simulate", cfg)
    assert err == f"input error: cannot make the directory {tmp_path / 'out' / 'snapshots'}: a file holds its name\n"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["snapshots"]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_dt_must_divide_t_end(tmp_path, refused_at_load, command):
    cfg = write_config(tmp_path / "run.json")
    data = json.loads(cfg.read_text())
    data["simulation"]["dt"] = 0.03  # t_end 0.05 is not a whole number of steps
    cfg.write_text(json.dumps(data))
    assert "is not a whole number of steps" in refused_at_load(command, cfg)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_run_of_no_whole_step_exits_two(tmp_path, refused_at_load, command):
    # 5e-10 is 0 steps of 1e-3 within an absolute slack of 1e-9: simulate would exit 0 at t = 0
    cfg = write_config(tmp_path / "run.json")
    data = json.loads(cfg.read_text())
    data["simulation"].update(dt=0.001, t_end=5e-10, diagnostics_every=1)
    cfg.write_text(json.dumps(data))
    assert "t_end = 5e-10 is not a whole number of steps of dt = 0.001" in refused_at_load(command, cfg)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("t_end, every", [(2e-6, 1), (2.1e-6, 10)], ids=["every-step", "remainder"])
def test_snapshots_closer_than_their_file_names_exit_two(tmp_path, refused_at_load, t_end, every, command):
    # snapshot files are named by their time to 6 decimals: 21 snapshots 1e-7 apart once left 3 files, and
    # 21 steps with a snapshot every 10 end in a last one 1e-7 after the one before it
    cfg = write_config(tmp_path / "run.json", lattice_k=1)
    data = json.loads(cfg.read_text())
    data["simulation"].update(dt=1e-7, t_end=t_end, diagnostics_every=every)
    cfg.write_text(json.dumps(data))
    assert "1e-07 apart" in refused_at_load(command, cfg)


def test_snapshots_1e6_apart_each_keep_a_file(tmp_path):
    cfg = write_config(tmp_path / "run.json", lattice_k=1)
    data = json.loads(cfg.read_text())
    data["simulation"].update(dt=1e-7, t_end=2e-6, diagnostics_every=10)
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg)]) == 0
    names = sorted(path.name for path in (tmp_path / "out" / "snapshots").iterdir())
    assert names == ["state_t0.000000.csv", "state_t0.000001.csv", "state_t0.000002.csv"]
    assert len((tmp_path / "out" / "diagnostics.csv").read_text().splitlines()) == 1 + 3


def test_snapshot_files_are_named_by_their_diagnostics_time(tmp_path):
    # the run keeps one clock, t = i dt: a state's own sum of twenty dt = 1.5e-6 once named 3 of these
    # 21 files a microsecond off their diagnostics.csv row (state_t0.000016.csv held t = 1.65e-5)
    cfg = write_config(tmp_path / "run.json", lattice_k=1)
    data = json.loads(cfg.read_text())
    data["simulation"].update(dt=1.5e-6, t_end=3e-5, diagnostics_every=1)
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
    names = sorted(path.name for path in (tmp_path / "out" / "snapshots").iterdir())
    assert len(rows) == 21 and names == [f"state_t{float(row.split(',')[0]):.6f}.csv" for row in rows]


def test_automatic_step_with_snapshots_closer_than_their_file_names_exits_two(tmp_path, capsys, monkeypatch):
    # a = 2000 at R=100 makes omega_max 2 x 10^5 and the automatic step at most 5 x 10^-7, which Run cannot
    # know: 1e-5 / 5e-7 rounds up to 21 steps
    def refuse(*args, **kwargs):
        raise AssertionError("simulate called")

    monkeypatch.setattr(cli, "simulate", refuse)
    fast = wk.SystemSpec(1, 1, [0.0], [[[2000.0]]], [[[[1.0]]]], [[[[0.0]]]], [[1.0]])
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(fast), lattice_k=100,
                       resonance={"exact_rule": False}, simulation={"t_end": 1e-5, "diagnostics_every": 1})
    err = input_error(capsys, "simulate", cfg)
    assert "snapshots 4.76e-07 apart (dt = 4.7619e-07, diagnostics_every = 1, 21 steps) would share" in err
    assert not (tmp_path / "out" / "snapshots").exists()


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


def test_unknown_preset_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", system="no-such-system")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "input error: unknown preset 'no-such-system'; available: ['ideal-gas-1d', 'ideal-gas-2d', 'ideal-gas-3d']\n")


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


def test_operators_prints_the_decision_margins(tmp_path, capsys):
    # the spectrum's null and clustering margins, and the compiled null range's rank and margin
    cfg = write_config(tmp_path / "run.json")
    assert main(["operators", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    model = wk.build_preset("ideal-gas-2d")
    ops = wk.build_operators(model.spec, wk.FrequencyLattice(2, 2), exact_rule=wk.make_exact_resonance_rule(model))
    (null, other), (spread, gap) = ops.spectrum.null_margin, ops.spectrum.cluster_margin
    assert lines[0] == (f"spectrum: largest null |omega| {null:.3e}, smallest other {other:.3e}; largest merged "
                        f"spread {spread:.3e}, smallest kept gap {gap:.3e} (relative to each mode's max(max |omega|, 1))")
    roundoff, kept = ops.table.quadratic.null_margin
    assert (f"qbar null range: rank 3, largest roundoff eigenvalue {roundoff:.3e}, smallest kept {kept:.3e} "
            "(relative to the largest)") in lines


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


def test_operators_without_a_quadratic_term_builds_no_table(tmp_path, capsys, wave2_spec):
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(wave2_spec), resonance={"exact_rule": False})
    assert main(["operators", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()  # the spectrum's margins, and no table
    assert len(lines) == 2 and lines[0].startswith("spectrum: largest null |omega| ")
    assert lines[1] == "quadratic kernel is zero; no resonance table"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["averaged_diffusion.csv", "spectrum.csv"]


# a = [[0, 1], [2, 0]] is not symmetric for g = I; the spectrum would decompose its symmetric part
ASYMMETRIC = wk.SystemSpec(1, 2, [0.0, 0.0], [[[0.0, 1.0], [2.0, 0.0]]], [[[[1.0, 0.0], [0.0, 0.0]]]],
                           np.zeros((1, 2, 2, 2)), np.eye(2))


@pytest.mark.parametrize("command", ["operators", "dissipativity", "simulate", "wcns-report"])
def test_commands_on_the_spectrum_refuse_a_spec_without_entropy_structure(tmp_path, capsys, monkeypatch, command):
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(ASYMMETRIC), resonance={"exact_rule": False})
    if command == "wcns-report":
        # its input errors come first, and an inline spec is one; so the refused
        # spec here is the 2-D gas preset under the identity metric
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "input error: wcns-report requires a gas-dynamics preset system\n"
        model = wk.build_preset("ideal-gas-2d")
        bad = dataclasses.replace(model, spec=dataclasses.replace(model.spec, entropy_hessian=np.eye(4)))
        monkeypatch.setattr(cli.ns, "build_preset", lambda name: bad)
        cfg = write_config(tmp_path / "run.json")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "validate")]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "entropy validation failed; refusing to build operators\n"
    assert not any((tmp_path / "out").iterdir())


def test_three_dimensional_gas_preset_runs_every_command(tmp_path, capsys):
    """ideal-gas-3d is the 2-D preset's numbers in d = 3; wcns-report takes only d = 2."""
    model = wk.build_preset("ideal-gas-3d")
    assert model.dim == 3 and model.spec.ncomp == 5
    assert {**wk.navier_stokes.PRESETS["ideal-gas-3d"], "dim": 2} == wk.navier_stokes.PRESETS["ideal-gas-2d"]
    cfg = write_config(tmp_path / "run.json", system="ideal-gas-3d")
    for command in ("validate", "dissipativity", "operators", "simulate"):
        assert main([command, "--config", str(cfg)]) == 0, command
    out = tmp_path / "out"
    assert (out / "resonance_table.csv").is_file()
    header = (out / "beta_by_direction.csv").read_text().splitlines()[0]
    assert header == "dir0,dir1,dir2,beta"
    assert len(list((out / "snapshots").glob("*.csv"))) == 3
    capsys.readouterr()
    assert main(["wcns-report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "d = 3" in err


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


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize(
    "initial",
    [
        {"type": "random", "amplitude": 1e308},  # overflows as it is built
        {"type": "modes", "entries": [{"mode": [1, 0], "coeff_re": [2e12, 0, 0, 0]}]},
        {"type": "modes", "entries": [{"mode": [1, 0], "coeff_re": [1e308, 0, 0, 0], "coeff_im": [1e308, 0, 0, 0]}]},
    ],
    ids=["random-overflow", "modes-past-the-threshold", "modes-infinite-magnitude"],
)
def test_initial_state_past_the_blowup_threshold_exits_two(tmp_path, capsys, command, initial):
    # refused when the config is read, before any file is written and with no RuntimeWarning
    cfg = write_config(tmp_path / "run.json", lattice_k=2,
                       simulation={"dt": 0.001, "t_end": 0.002, "diagnostics_every": 1, "initial": initial})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: the initial state's largest coefficient magnitude is ")
    assert err.endswith("; it must be finite and at most the blow-up threshold 1e+12\n")
    assert not (tmp_path / "out").exists()


def test_wcns_report(tmp_path):
    cfg = write_config(tmp_path / "run.json", lattice_k=5)
    assert main(["wcns-report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "wcns_report.json").read_text())
    assert report["sound_speed"] == pytest.approx((5.0 / 3.0) ** 0.5)
    assert report["acoustic_diffusivity"] == pytest.approx(0.8)


def test_wcns_report_requires_preset(tmp_path, capsys):
    spec = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.1]]]], [[[[0.0]]]], [[1.0]])
    cfg = write_config(tmp_path / "run.json", system=wk.spec_to_dict(spec))
    data = json.loads(cfg.read_text())
    data["resonance"] = {"exact_rule": False}
    cfg.write_text(json.dumps(data))
    assert main(["wcns-report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: wcns-report requires a gas-dynamics preset system\n"


def test_wcns_report_requires_two_dimensions(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("operators built for a 1-D wcns-report")

    monkeypatch.setattr("wndkit.cli.build_operators", fail)
    cfg = write_config(tmp_path / "run.json", system="ideal-gas-1d")
    assert main(["wcns-report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error: ") and "d = 1" in err


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
    # without an initial, the default random one (decay 3, amplitude 0.1) takes the simulation seed too
    del data["simulation"]["initial"]
    data["simulation"]["seed"] = 7
    cfg.write_text(json.dumps(data))
    main(["simulate", "--config", str(cfg)])
    assert (tmp_path / "out" / "diagnostics.csv").read_bytes() == aliased
