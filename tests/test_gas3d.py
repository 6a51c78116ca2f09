"""The 3-D ideal gas stepped at R=3, against the pinned thresholds of the
2-D acceptance criteria (3: cyclic identity, 7: energy identity, 8: filtered
equivalence, 9: weakly compressible split).  In 3-D the slow dynamics
carries vortex stretching, which the 2-D gas does not."""

import numpy as np
import pytest

import wndkit as wk
from wndkit.averaging import cyclic_residual
from wndkit.navier_stokes import simulate_incompressible_reference, wcns_split
from wndkit.state import is_reality_symmetric

from conftest import state_diff_norm

T_END, DT = 0.02, 1e-3


@pytest.fixture(scope="module")
def gas3d():
    model = wk.build_preset("ideal-gas-3d")
    ops = wk.build_operators(model.spec, wk.FrequencyLattice(3, 3), exact_rule=wk.make_exact_resonance_rule(model))
    return model, ops


def test_gas3d_energy_budget_decay_and_reality(gas3d):
    _, ops = gas3d
    w0 = wk.random_real_state(ops.lattice, 5, seed=31, decay=3.0, amplitude=0.2)
    snaps, series = wk.simulate(ops, w0, t_end=T_END, dt=DT, diagnostics_every=5)
    per_unit = np.abs(series.budget_residual[1:]) / np.maximum(series.times[1:], 1.0)
    assert per_unit.max() <= 1e-6
    assert np.all(np.diff(series.energy) <= 1e-12)
    assert np.all(series.dissipation >= -1e-12 * series.energy)
    assert len(snaps) == 5 and all(is_reality_symmetric(s) for s in snaps)


def test_gas3d_cyclic_identity(gas3d):
    model, ops = gas3d
    states = [wk.random_real_state(ops.lattice, 5, seed=40 + j, decay=2.0) for j in range(3)]
    assert cyclic_residual(model.spec, ops.spectrum, ops.table, *states) <= 1e-10
    w = states[0]
    assert cyclic_residual(model.spec, ops.spectrum, ops.table, w, w, w) <= 1e-10


def test_gas3d_filtered_equivalence(gas3d):
    _, ops = gas3d
    w0 = wk.random_real_state(ops.lattice, 5, seed=31, decay=3.0, amplitude=0.2)
    assert wk.filtered_equivalence_check(ops, w0, t_end=T_END, dt=DT, diagnostics_every=5) <= 1e-6


def test_gas3d_wcns_split_stays_incompressible_and_matches_reference(gas3d):
    model, ops = gas3d
    lat = ops.lattice
    state = wk.random_real_state(lat, 5, seed=31, decay=3.0, amplitude=0.2)
    w_in0, _ = wcns_split(model, ops.spectrum, state)
    snaps, _ = wk.simulate(ops, w_in0, t_end=T_END, dt=DT, diagnostics_every=5)
    leak = max(wk.energy_norm(model.spec, wcns_split(model, ops.spectrum, s)[1]) for s in snaps)
    assert leak <= 1e-10 * wk.energy_norm(model.spec, w_in0)

    u_final, th_final = simulate_incompressible_reference(
        model, lat, w_in0.coeffs[:, 1:4], w_in0.coeffs[:, 4], T_END, DT
    )
    ref = wk.zero_state(lat, 5)
    ref.coeffs[:, 1:4] = u_final
    ref.coeffs[:, 4] = th_final
    ref.coeffs[:, 0] = -model.p_theta / model.p_rho * th_final
    scale = wk.energy_norm(model.spec, ref)
    assert state_diff_norm(model.spec, snaps[-1], ref) <= 1e-6 * scale
    # the nonlinearity is visible at this amplitude: the linear flow misses the reference
    linear = wk.build_operators(model.spec, lat, with_quadratic=False)
    lsnaps, _ = wk.simulate(linear, w_in0, t_end=T_END, dt=DT, diagnostics_every=5)
    assert state_diff_norm(model.spec, lsnaps[-1], ref) >= 1e-3 * scale
