import math

import numpy as np
import pytest

import wndkit as wk
from wndkit.solver import BlowUpError
from wndkit.state import is_reality_symmetric

from conftest import state_diff_norm


@pytest.fixture(scope="module")
def scalar_ops16(scalar_spec):
    return wk.build_operators(scalar_spec, wk.FrequencyLattice(1, 16))


def test_rhs_zero_state(cns_ops4, cns_model):
    zero = wk.zero_state(cns_ops4.lattice, 4)
    assert np.abs(wk.rhs(cns_ops4, zero).coeffs).max() == 0.0


def test_rhs_single_acoustic_mode_closed_form(cns_model):
    lat = wk.FrequencyLattice(2, 1)
    ops = wk.build_operators(cns_model.spec, lat, exact_rule=wk.make_exact_resonance_rule(cns_model))
    hp, _ = wk.acoustic_basis(cns_model, (1, 0))
    amp = 1e-3
    state = wk.state_from_modes(lat, 4, [((1, 0), amp * hp.astype(complex))])
    tend = wk.rhs(ops, state)
    expect = (-1j * cns_model.sound - cns_model.diffusivity) * amp * hp
    got = tend.coeff((1, 0))
    # the lone mode has no resonant partner pair inside this lattice except
    # its mirror, whose quadratic output lands on other modes; compare the
    # linear part at the excited mode itself
    assert np.abs(got - expect).max() <= 1e-12


def test_rhs_pairing_equals_dissipation(cns_ops4, cns_model):
    w = wk.random_real_state(cns_ops4.lattice, 4, seed=17, decay=2.0)
    tend = wk.rhs(cns_ops4, w)
    lhs = wk.inner_product(cns_model.spec, w, tend).real
    rhs_val = wk.inner_product(
        cns_model.spec, w, wk.apply_averaged_diffusion(cns_ops4.avg, w)
    ).real
    assert abs(lhs - rhs_val) <= 1e-10 * max(abs(rhs_val), 1.0)


def test_skew_pairing_vanishes(cns_ops4, cns_model):
    w = wk.random_real_state(cns_ops4.lattice, 4, seed=18, decay=2.0)
    spectrum = cns_ops4.spectrum
    adv = w.copy()
    adv.coeffs = -1j * np.einsum("mj,mjpq,mq->mp", spectrum.frequencies, spectrum.projectors, w.coeffs)
    val = abs(wk.inner_product(cns_model.spec, w, adv))
    scale = wk.energy_norm(cns_model.spec, w) * wk.energy_norm(cns_model.spec, adv)
    assert val <= 1e-11 * max(scale, 1e-30)


def test_step_pure_linear_is_exact(cns_model):
    lat = wk.FrequencyLattice(2, 2)
    ops = wk.build_operators(cns_model.spec, lat, with_quadratic=False)
    w = wk.random_real_state(lat, 4, seed=3, decay=1.0)
    stepped = wk.step(ops, w, 0.37)
    props = ops.propagators(0.37, filtered=False)
    expect = np.einsum("mpq,mq->mp", props, w.coeffs)
    assert np.abs(stepped.coeffs - expect).max() == 0.0


def test_step_scalar_heat_amplitude():
    spec = wk.SystemSpec(1, 1, [0.0], [[[0.0]]], [[[[1.0]]]], [[[[0.0]]]], [[1.0]])
    lat = wk.FrequencyLattice(1, 1)
    ops = wk.build_operators(spec, lat, with_quadratic=False)
    w = wk.state_from_modes(lat, 1, [((1,), np.array([1.0 + 0.0j]))])
    out = wk.step(ops, w, 0.1)
    assert abs(out.coeff((1,))[0]) == pytest.approx(math.exp(-0.1), rel=1e-14)


def test_if_rk2_order_two(cns_ops4, cns_model):
    w0 = wk.random_real_state(cns_ops4.lattice, 4, seed=7, decay=3.0, amplitude=0.2)
    ref, _ = wk.simulate(cns_ops4, w0, t_end=0.5, dt=5e-4, method="if_rk4", diagnostics_every=10**9)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        snaps, _ = wk.simulate(cns_ops4, w0, t_end=0.5, dt=dt, method="if_rk2", diagnostics_every=10**9)
        errs.append(state_diff_norm(cns_model.spec, snaps[-1], ref[-1]))
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert abs(order - 2.0) <= 0.2


def test_unitary_evolution_conserves_norm(cns_model):
    euler = wk.build_cns_spec(cns_model.eos, wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
    lat = wk.FrequencyLattice(2, 2)
    ops = wk.build_operators(euler, lat, with_quadratic=False)
    w0 = wk.random_real_state(lat, 4, seed=9, decay=1.0)
    snaps, series = wk.simulate(ops, w0, t_end=2.0, dt=0.05, diagnostics_every=5)
    assert np.abs(series.energy - series.energy[0]).max() <= 1e-12 * series.energy[0]


def test_linear_decay_rate_bound(wave2_spec):
    lat = wk.FrequencyLattice(1, 3)
    ops = wk.build_operators(wave2_spec, lat, with_quadratic=False)
    delta_emp = wk.verify_delta(wave2_spec, ops.avg)
    w0 = wk.state_from_modes(lat, 2, [((1,), np.array([0.4 + 0.1j, -0.2 + 0.3j]))])
    snaps, series = wk.simulate(ops, w0, t_end=2.0, dt=0.01, diagnostics_every=10)
    bound = series.energy[0] * np.exp(-2.0 * delta_emp * series.times)
    assert np.all(series.energy <= bound * (1.0 + 1e-9))


def test_simulate_budget_and_monotonicity(cns_ops4, cns_model):
    w0 = wk.random_real_state(cns_ops4.lattice, 4, seed=23, decay=3.0, amplitude=0.2)
    snaps, series = wk.simulate(cns_ops4, w0, t_end=1.0, dt=2e-3, diagnostics_every=50)
    assert np.abs(series.budget_residual).max() <= 1e-8
    assert np.all(np.diff(series.energy) <= 1e-12)
    assert np.all(series.dissipation >= -1e-12 * series.energy)
    assert all(is_reality_symmetric(s) for s in snaps)


def test_simulate_deterministic(cns_ops4):
    w0 = wk.random_real_state(cns_ops4.lattice, 4, seed=23, decay=3.0, amplitude=0.2)
    a, _ = wk.simulate(cns_ops4, w0, t_end=0.1, dt=2e-3, diagnostics_every=10)
    b, _ = wk.simulate(cns_ops4, w0, t_end=0.1, dt=2e-3, diagnostics_every=10)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.coeffs, sb.coeffs)


def test_linear_galerkin_restriction_consistency(cns_model):
    # the linear flow is block-diagonal per mode, so truncating after the
    # solve equals solving the truncation; the quadratic flow couples modes
    # across the cutoff and has no such property
    big = wk.FrequencyLattice(2, 4)
    small = wk.FrequencyLattice(2, 2)
    ops_big = wk.build_operators(cns_model.spec, big, with_quadratic=False)
    ops_small = wk.build_operators(cns_model.spec, small, with_quadratic=False)
    w0 = wk.random_real_state(big, 4, seed=14, decay=1.5)
    w0_small = wk.zero_state(small, 4)
    for i, mode in enumerate(small):
        w0_small.coeffs[i] = w0.coeff(mode)
    snaps_big, _ = wk.simulate(ops_big, w0, t_end=0.5, dt=0.01, diagnostics_every=10**9)
    snaps_small, _ = wk.simulate(ops_small, w0_small, t_end=0.5, dt=0.01, diagnostics_every=10**9)
    for i, mode in enumerate(small):
        assert np.abs(snaps_small[-1].coeffs[i] - snaps_big[-1].coeff(mode)).max() <= 1e-13


def test_filtered_equivalence_linear(cns_model):
    lat = wk.FrequencyLattice(2, 2)
    ops = wk.build_operators(cns_model.spec, lat, with_quadratic=False)
    w0 = wk.random_real_state(lat, 4, seed=2, decay=2.0)
    assert wk.filtered_equivalence_check(ops, w0, t_end=0.5, dt=0.01) <= 1e-12


def test_filtered_equivalence_scalar(scalar_ops16, scalar_spec):
    w0 = wk.random_real_state(scalar_ops16.lattice, 1, seed=5, decay=2.0, amplitude=0.3)
    defect = wk.filtered_equivalence_check(scalar_ops16, w0, t_end=1.0, dt=1e-3)
    assert defect <= 1e-8


def test_weak_strong_identical_and_linear_contraction(cns_model, cns_ops4):
    u1 = wk.random_real_state(cns_ops4.lattice, 4, seed=21, decay=4.0, amplitude=0.5)
    report = wk.weak_strong_experiment(cns_ops4, u1, u1.copy(), t_end=0.5, dt=2e-3, s=2.0)
    assert report.max_difference <= 1e-10
    assert report.envelope_ok

    lat = wk.FrequencyLattice(2, 2)
    lin_ops = wk.build_operators(cns_model.spec, lat, with_quadratic=False)
    a = wk.random_real_state(lat, 4, seed=1, decay=2.0)
    b = wk.random_real_state(lat, 4, seed=2, decay=2.0)
    rep = wk.weak_strong_experiment(lin_ops, a, b, t_end=1.0, dt=0.01, s=2.0)
    assert np.all(np.diff(rep.differences) <= 1e-12)  # linear dissipative flow contracts


def test_sobolev_norms(cns_model, cns_ops4):
    lat = cns_ops4.lattice
    w = wk.random_real_state(lat, 4, seed=4, decay=1.0)
    assert wk.sobolev_norm(cns_model.spec, w, 0.0) == pytest.approx(
        wk.energy_norm(cns_model.spec, w), rel=1e-13
    )
    g = cns_model.spec.entropy_hessian
    vec = np.zeros(4)
    vec[1] = 1.0 / math.sqrt(g[1, 1])
    single = wk.state_from_modes(lat, 4, [((1, 0), 0.5 * vec.astype(complex))])
    norm_sq = wk.energy_norm(cns_model.spec, single) ** 2
    assert wk.sobolev_norm(cns_model.spec, single, 1.0) == pytest.approx(
        math.sqrt(2.0 * norm_sq), rel=1e-12
    )
    for seed in range(20):
        state = wk.random_real_state(lat, 4, seed=seed, decay=1.0)
        assert wk.gradient_norm(cns_model.spec, state) <= wk.sobolev_norm(
            cns_model.spec, state, 1.0
        ) * (1.0 + 1e-12)


def test_nonlinear_energy_neutrality(cns_ops4, cns_model):
    w = wk.random_real_state(cns_ops4.lattice, 4, seed=30, decay=2.0)
    qw = wk.apply_averaged_quadratic(
        cns_model.spec, cns_ops4.spectrum, cns_ops4.table, w, w
    )
    scale = wk.energy_norm(cns_model.spec, w) ** 2 * wk.energy_norm(cns_model.spec, w)
    assert abs(wk.inner_product(cns_model.spec, w, qw)) <= 1e-10 * max(scale, 1e-30)


def test_blowup_detection(cns_model):
    euler = wk.build_cns_spec(cns_model.eos, wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
    lat = wk.FrequencyLattice(2, 3)
    ops = wk.build_operators(euler, lat, exact_rule=wk.make_exact_resonance_rule(cns_model))
    huge = wk.random_real_state(lat, 4, seed=2, decay=1.0, amplitude=5e3)
    with pytest.raises(BlowUpError) as exc:
        wk.simulate(ops, huge, t_end=5.0, dt=1e-2, diagnostics_every=100)
    assert exc.value.magnitude > 1e12


def test_simulate_rejects_partial_last_step(cns_ops4):
    w0 = wk.zero_state(cns_ops4.lattice, 4)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        wk.simulate(cns_ops4, w0, t_end=0.05, dt=0.03)


def test_dt_warning(cns_ops4):
    w0 = wk.zero_state(cns_ops4.lattice, 4)
    with pytest.warns(UserWarning, match="under-resolves"):
        wk.simulate(cns_ops4, w0, t_end=0.4, dt=0.2, diagnostics_every=1)


def test_unknown_integrator_rejected(cns_ops4):
    w0 = wk.zero_state(cns_ops4.lattice, 4)
    with pytest.raises(ValueError):
        wk.step(cns_ops4, w0, 0.1, method="euler")
