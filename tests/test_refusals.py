"""Every argument check of the library raises its own message.

One case per refusal: the call, the exception it raises and the message it
must match.  Each case builds only what its refusal needs, on the smallest
lattices.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.linalg import LinAlgError

import wndkit as wk
from wndkit.directions import unit_directions
from wndkit.dissipativity import _lowest_eigenvalues
from wndkit.navier_stokes import conserved_flux, sound_speed, wcns_coupling_report
from wndkit.system import SpecShapeError

SCALAR = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.3]]]], [[[[0.5]]]], [[1.0]])
LATTICE = wk.FrequencyLattice(1, 2)
STATE = wk.random_real_state(LATTICE, 1, seed=3, decay=2.0)
GAS = wk.ideal_gas(3)
TRANSPORT = wk.TransportCoefficients(1.0, 0.0, 1.0, 3)


def scalar_ops() -> wk.WndOperators:
    return wk.build_operators(SCALAR, LATTICE)


def gas_1d_report():
    model = wk.build_preset("ideal-gas-1d")
    ops = wk.build_operators(model.spec, LATTICE, exact_rule=wk.make_exact_resonance_rule(model))
    return wcns_coupling_report(model, ops.table)


def indefinite_metric_spec() -> wk.SystemSpec:
    return wk.SystemSpec(1, 2, [0.0, 0.0], np.zeros((1, 2, 2)), np.zeros((1, 1, 2, 2)), np.zeros((1, 2, 2, 2)),
                         np.diag([1.0, -1.0]))


CASES = [
    ("diffusion-oracle-span", lambda: wk.averaged_diffusion_oracle(SCALAR, [1.0], 0.0, 100),
     ValueError, "need t_span > 0 and n_steps >= 100"),
    ("diffusion-oracle-steps", lambda: wk.averaged_diffusion_oracle(SCALAR, [1.0], 1.0, 99),
     ValueError, "need t_span > 0 and n_steps >= 100"),
    ("quadratic-oracle-span", lambda: wk.quadratic_time_average_oracle(SCALAR, STATE, -1.0, 100),
     ValueError, "need t_span > 0 and n_steps >= 100"),
    ("quadratic-oracle-steps", lambda: wk.quadratic_time_average_oracle(SCALAR, STATE, 1.0, 99),
     ValueError, "need t_span > 0 and n_steps >= 100"),
    ("directions-dim", lambda: unit_directions(0, 4), ValueError, "dimension must be positive"),
    ("directions-count", lambda: unit_directions(2, 0), ValueError, "direction count must be positive"),
    ("kawashima-no-direction", lambda: wk.kawashima_check(SCALAR, np.empty((0, 1))),
     ValueError, "need at least one direction"),
    ("criterion-alpha", lambda: wk.strict_criterion_search(SCALAR, np.ones((1, 1)), alphas=[1.0, 0.0]),
     ValueError, "alpha grid must be positive"),
    ("pencil-lapack-info", lambda: _lowest_eigenvalues(np.eye(2)[None], -np.eye(2)),
     LinAlgError, "sygvd failed on pencil 0 (info = "),
    ("eos-heat-capacity", lambda: dataclasses.replace(GAS, heat_capacity=lambda r, t: 0.0).validate_at(1.0, 1.0),
     ValueError, "equation of state violates d eps/d theta > 0"),
    ("eos-pressure-rho", lambda: dataclasses.replace(GAS, pressure_rho=lambda r, t: -1.0).validate_at(1.0, 1.0),
     ValueError, "equation of state violates dp/drho > 0"),
    ("eos-reference-nan", lambda: GAS.validate_at(math.nan, 1.0),
     ValueError, "reference state must have rho > 0 and theta > 0"),
    ("eos-heat-capacity-nan",
     lambda: dataclasses.replace(GAS, heat_capacity=lambda r, t: math.nan).validate_at(1.0, 1.0),
     ValueError, "equation of state violates d eps/d theta > 0"),
    ("eos-pressure-rho-nan",
     lambda: dataclasses.replace(GAS, pressure_rho=lambda r, t: math.nan).validate_at(1.0, 1.0),
     ValueError, "equation of state violates dp/drho > 0"),
    ("sound-speed-nan", lambda: sound_speed(dataclasses.replace(GAS, pressure_theta=lambda r, t: math.nan), 1.0, 1.0),
     ValueError, "equation of state yields a squared sound speed c0^2 = nan that is not positive"),
    ("cns-spec-variables", lambda: wk.build_cns_spec(GAS, TRANSPORT, 1.0, 1.0, 2, variables="entropy"),
     ValueError, "variables must be 'primitive' or 'conserved'"),
    ("conserved-flux-inverse", lambda: conserved_flux(dataclasses.replace(GAS, theta_from_energy=None),
                                                      [1.0, 0.0, 1.5], 1),
     ValueError, "equation of state does not provide theta_from_energy"),
    ("coupling-report-dim", gas_1d_report, ValueError, "coupling probes are defined for d = 2"),
    ("step-dt", lambda: wk.step(scalar_ops(), STATE, 0.0), ValueError, "dt must be positive"),
    ("simulate-t-end", lambda: wk.simulate(scalar_ops(), STATE, 0.0, 0.1),
     ValueError, "need t_end > 0 and dt > 0"),
    ("simulate-dt", lambda: wk.simulate(scalar_ops(), STATE, 1.0, -0.1), ValueError, "need t_end > 0 and dt > 0"),
    ("simulate-every", lambda: wk.simulate(scalar_ops(), STATE, 1.0, 0.1, diagnostics_every=0),
     ValueError, "diagnostics_every must be >= 1"),
    ("weak-strong-order", lambda: wk.weak_strong_experiment(scalar_ops(), STATE, STATE, 1.0, 0.1, s=1.0),
     ValueError, "need s > max(d/2, 1)"),
    ("lattice-dim", lambda: wk.FrequencyLattice(0, 2), ValueError, "need dim >= 1 and radius >= 0"),
    ("lattice-radius", lambda: wk.FrequencyLattice(1, -1), ValueError, "need dim >= 1 and radius >= 0"),
    ("state-modes", lambda: wk.SpectralState(LATTICE, np.zeros((4, 1))),
     ValueError, "coeffs shape (4, 1) does not match lattice of size 5"),
    ("state-rank", lambda: wk.SpectralState(LATTICE, np.zeros(5)),
     ValueError, "coeffs shape (5,) does not match lattice of size 5"),
    ("spec-dim", lambda: wk.SystemSpec(0, 1, [0.0], [], [], [], [[1.0]]),
     SpecShapeError, "dim and ncomp must be positive"),
    ("spec-ncomp", lambda: wk.SystemSpec(1, 0, [], [], [], [], []), SpecShapeError, "dim and ncomp must be positive"),
    ("spec-metric", lambda: indefinite_metric_spec().metric_sqrt(),
     SpecShapeError, "entropy Hessian is not positive definite"),
    ("change-of-variables-shape", lambda: wk.change_of_variables(SCALAR, np.eye(2)),
     SpecShapeError, "transform has shape (2, 2), expected (1, 1)"),
]


@pytest.mark.parametrize("call, error, message", [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_refusal_names_its_reason(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
