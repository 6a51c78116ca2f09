import math

import numpy as np
import pytest
import scipy.linalg

import wndkit as wk
from wndkit.solver import BLOWUP_THRESHOLD, BlowUpError, _cumulative_simpson, _cumulative_trapezoid
from wndkit.state import is_reality_symmetric

from conftest import projectors, state_diff_norm


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


@pytest.mark.parametrize(
    "system, dim, radius", [("ideal-gas-2d", 2, 4), ("ideal-gas-3d", 3, 2), ("scalar", 1, 6)]
)
def test_rhs_without_a_table_is_the_generator(scalar_spec, system, dim, radius):
    # operators built without qbar: the tendency is the generator applied to the state, bit for bit,
    # with a nonzero zero mode
    spec = scalar_spec if system == "scalar" else wk.build_preset(system).spec
    lat = wk.FrequencyLattice(dim, radius)
    ops = wk.build_operators(spec, lat, with_quadratic=False)
    assert ops.table is None
    w = wk.random_real_state(lat, spec.ncomp, seed=19, decay=2.0)
    w.coeffs[lat.zero_index()] = np.linspace(0.1, -0.05, spec.ncomp)
    want = np.einsum("mpq,mq->mp", ops.generator, w.coeffs)
    assert wk.rhs(ops, w).coeffs.tobytes() == want.tobytes()


def test_skew_pairing_vanishes(cns_ops4, cns_model):
    w = wk.random_real_state(cns_ops4.lattice, 4, seed=18, decay=2.0)
    spectrum = cns_ops4.spectrum
    adv = w.copy()
    adv.coeffs = -1j * np.einsum("mj,mjpq,mq->mp", spectrum.frequencies, projectors(spectrum), w.coeffs)
    val = abs(wk.inner_product(cns_model.spec, w, adv))
    scale = wk.energy_norm(cns_model.spec, w) * wk.energy_norm(cns_model.spec, adv)
    assert val <= 1e-11 * max(scale, 1e-30)


def test_step_pure_linear_is_exact(cns_model):
    # a linear step is the half-step propagator applied twice, on the zero mode and the positive
    # half, completed by the mirror, bit for bit; and that is e^{dt G} at every mode to roundoff
    lat = wk.FrequencyLattice(2, 2)
    ops = wk.build_operators(cns_model.spec, lat, with_quadratic=False)
    w = wk.random_real_state(lat, 4, seed=3, decay=1.0)
    stepped = wk.step(ops, w, 0.37)
    props = ops.propagators(0.185, filtered=False)
    half = np.einsum("mpq,mq->mp", props, np.einsum("mpq,mq->mp", props, w.coeffs[lat.zero_index():]))
    assert np.abs(stepped.coeffs - lat.complete(half)).max() == 0.0
    exact = np.einsum("mpq,mq->mp", scipy.linalg.expm(0.37 * ops.generator), w.coeffs)
    assert np.abs(stepped.coeffs - exact).max() <= 1e-14 * np.abs(exact).max()


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


def test_snapshot_hook_sees_each_returned_snapshot_once_in_order(cns_ops4):
    # a benchmark times its steps from this hook: one call per snapshot, the final state included
    w0 = wk.random_real_state(cns_ops4.lattice, 4, seed=23, decay=3.0, amplitude=0.2)
    seen = []
    snaps, series = wk.simulate(cns_ops4, w0, t_end=0.05, dt=5e-3, diagnostics_every=3,
                                snapshot_hook=lambda st: seen.append((st, st.coeffs.copy())))
    assert len(seen) == len(snaps) == len(series.times) == 5  # steps 0, 3, 6, 9 and the last, 10
    for (hooked, coeffs), snap in zip(seen, snaps):
        assert hooked is snap
        assert np.array_equal(coeffs, snap.coeffs)


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


@pytest.mark.parametrize("t_end, dt, fit", [(4e-12, 1e-12, 3), (1.0, 1e-3, 501)])
def test_weak_strong_fit_half_is_relative_to_t_end(cns_model, t_end, dt, fit):
    lat = wk.FrequencyLattice(2, 1)
    ops = wk.build_operators(cns_model.spec, lat, with_quadratic=False)
    a = wk.random_real_state(lat, 4, seed=1, decay=2.0)
    b = wk.random_real_state(lat, 4, seed=2, decay=2.0)
    rep = wk.weak_strong_experiment(ops, a, b, t_end=t_end, dt=dt, s=2.0, diagnostics_every=1)
    assert len(rep.times) == round(t_end / dt) + 1
    assert rep.fit_snapshots == fit and rep.times[fit - 1] <= 0.5 * t_end < rep.times[fit]
    assert rep.envelope_ok and rep.holdout_excess == rep.max_envelope_excess == 0.0  # the flow contracts


def test_weak_strong_holdout_reads_the_snapshots_after_the_fit_half():
    # anti-diffusion grows the one mode of u2 while u1 = 0 keeps the envelope at |u2(0)|: the
    # excess is largest at the last snapshot, and it exceeds every excess of the fit half
    spec = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[-0.3]]]], [[[[0.0]]]], [[1.0]])
    lat = wk.FrequencyLattice(1, 2)
    ops = wk.build_operators(spec, lat)
    u2 = wk.state_from_modes(lat, 1, [((1,), np.array([1e-3 + 0j]))])
    rep = wk.weak_strong_experiment(ops, wk.zero_state(lat, 1), u2, t_end=1.0, dt=0.01, s=2.0)
    assert rep.fit_snapshots == 6 and len(rep.times) == 11
    over = rep.differences - rep.envelope - 1e-9 * rep.initial_difference
    assert 0.0 < over[5] < over[-1] == rep.holdout_excess == rep.max_envelope_excess
    assert not rep.envelope_ok


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
    # the gradient norm, the plain norm of |xi| w(xi), is at most the H^1 norm
    magnitudes = np.sqrt((lat.array**2).sum(axis=1))[:, None]
    for seed in range(20):
        state = wk.random_real_state(lat, 4, seed=seed, decay=1.0)
        gradient = wk.SpectralState(lat, magnitudes * state.coeffs)
        assert wk.sobolev_norm(cns_model.spec, gradient, 0.0) <= wk.sobolev_norm(
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
    # the first mode in lattice order to reach the largest magnitude: (2, -3) holds it as well
    assert (exc.value.mode, exc.value.time) == ((-2, 3), 0.01)
    assert exc.value.magnitude > 1e12
    # a state that would overflow within the first step is past the threshold already, and is
    # refused at t = 0, before any step runs
    vast = wk.random_real_state(lat, 4, seed=2, decay=1.0, amplitude=1e160)
    with pytest.raises(BlowUpError) as exc:
        wk.simulate(ops, vast, t_end=1e-3, dt=1e-3)
    assert exc.value.time == 0.0 and exc.value.magnitude == np.abs(vast.coeffs).max()


@pytest.mark.parametrize("value", [2e12, np.nan, np.inf], ids=["past-the-threshold", "nan", "inf"])
def test_simulate_checks_the_initial_state_at_t_zero(cns_model, value):
    # one coefficient at (1, 2) and its mirror: simulate raises before its first step, naming
    # the first mode in lattice order that holds it
    lat = wk.FrequencyLattice(2, 2)
    ops = wk.build_operators(cns_model.spec, lat, exact_rule=wk.make_exact_resonance_rule(cns_model))
    w0 = wk.random_real_state(lat, 4, seed=3, amplitude=0.1)
    w0.coeffs[[lat.index((1, 2)), lat.index((-1, -2))], 2] = value
    steps = []
    with pytest.raises(BlowUpError) as exc:
        wk.simulate(ops, w0, t_end=2e-3, dt=1e-3, snapshot_hook=steps.append)
    assert (exc.value.mode, exc.value.time) == ((-1, -2), 0.0) and steps == []
    assert exc.value.magnitude == value or np.isnan(value) and np.isnan(exc.value.magnitude)


@pytest.mark.parametrize("dim, radius", [(1, 3), (2, 2)])
def test_blowup_names_the_mode_the_full_lattice_names(dim, radius):
    # oracle: the first NaN, or else the first largest magnitude, of the completed field in
    # lattice order; ties and NaNs are planted in the positive half, in its mirror's place
    # and at the zero mode
    from wndkit.solver import _check_finite

    lat = wk.FrequencyLattice(dim, radius)
    ops = wk.build_operators(wk.build_preset(f"ideal-gas-{dim}d").spec, lat, with_quadratic=False)
    zero, n = lat.zero_index(), ops.spec.ncomp
    rng = np.random.default_rng(5)
    for trial in range(60):
        shape = (len(lat) - zero, n)
        half = rng.choice([0.0, 1.0, 2e12, 3e12], size=shape) * rng.choice([1.0, -1.0, 1j, -1j], size=shape)
        half[0] = half[0].real
        if trial % 3 == 0:
            half[rng.integers(0, len(half), size=2), rng.integers(0, n, size=2)] = np.nan
        full = lat.complete(half)
        mags = np.abs(full)
        worst = int(np.argmax(mags))
        peak = mags.flat[worst]
        if np.isfinite(peak) and peak <= BLOWUP_THRESHOLD:
            _check_finite(ops, half, 0.5)
            continue
        with pytest.raises(BlowUpError) as exc:
            _check_finite(ops, half, 0.5)
        assert exc.value.mode == lat.modes[worst // n]
        assert exc.value.magnitude == peak or np.isnan(peak) and np.isnan(exc.value.magnitude)


def test_simulate_keeps_the_initial_snapshot_bit_for_bit(cns_model):
    # the t = 0 snapshot is the gated initial state itself, copied: the mirror would turn the
    # real coefficients' +0 imaginary parts at -xi into -0
    lat = wk.FrequencyLattice(2, 3)
    ops = wk.build_operators(cns_model.spec, lat, exact_rule=wk.make_exact_resonance_rule(cns_model))
    w0 = wk.state_from_modes(lat, 4, [((0, 0), [0.02, -0.01, 0.03, 0.015]),
                                      ((1, 2), [0.05 - 0.03j, 0.02 + 0.04j, -0.04 + 0.01j, 0.01 - 0.02j]),
                                      ((2, -1), [-0.04, 0.03, 0.02, 0.05])])
    assert np.signbit(lat.mirror(w0.coeffs).imag).sum() > np.signbit(w0.coeffs.imag).sum()
    before = w0.coeffs.tobytes()
    for method in ("if_rk2", "if_rk4"):
        snaps, _ = wk.simulate(ops, w0, t_end=0.01, dt=1e-3, method=method, diagnostics_every=5)
        assert snaps[0] is not w0 and snaps[0].coeffs is not w0.coeffs
        assert snaps[0].coeffs.tobytes() == before
    assert w0.coeffs.tobytes() == before


def test_simulate_rejects_partial_last_step(cns_ops4):
    w0 = wk.zero_state(cns_ops4.lattice, 4)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        wk.simulate(cns_ops4, w0, t_end=0.05, dt=0.03)


@pytest.mark.parametrize("t_end, dt", [(1.5e-12, 1e-12), (2.5e-9, 1e-9), (5e-10, 1e-3)])
def test_simulate_rejects_short_partial_runs(cns_ops4, t_end, dt):
    # an absolute slack of 1e-9 below t_end = 1 would take these as 2, 2 and 0 steps
    w0 = wk.zero_state(cns_ops4.lattice, 4)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        wk.simulate(cns_ops4, w0, t_end=t_end, dt=dt)


def test_dt_warning(cns_ops4):
    w0 = wk.zero_state(cns_ops4.lattice, 4)
    with pytest.warns(UserWarning, match="under-resolves"):
        wk.simulate(cns_ops4, w0, t_end=0.4, dt=0.2, diagnostics_every=1)


@pytest.mark.parametrize(
    "system, dim, radius", [("ideal-gas-1d", 1, 6), ("ideal-gas-2d", 2, 4), ("ideal-gas-2d", 3, 2), ("scalar", 1, 6)]
)
def test_per_mode_operators_obey_the_mirror_identity(scalar_spec, system, dim, radius):
    spec = scalar_spec if system == "scalar" else wk.build_preset(f"ideal-gas-{dim}d").spec
    lat = wk.FrequencyLattice(dim, radius)
    ops = wk.build_operators(spec, lat, with_quadratic=False)
    blocks = {"avg": ops.avg.blocks, "generator": ops.generator, "null_projector": ops.spectrum.null_projector}
    zero = lat.zero_index()
    for filtered in (False, True):
        # the propagators are kept on the zero mode and the positive half; completed, they are
        # e^{0.01 G} at every mode, -xi included, to roundoff
        half = ops.propagators(0.01, filtered)
        assert half.shape == (len(lat) - zero, spec.ncomp, spec.ncomp)
        full = lat.complete(half)
        exact = scipy.linalg.expm(0.01 * (ops.avg.blocks if filtered else ops.generator))
        assert np.abs(full - exact).max() <= 1e-14 * np.abs(exact).max()
        blocks[f"propagators {filtered}"] = full
    for name, x in blocks.items():
        # X(-xi) = conj(X(xi)) exactly (== treats the two zeros alike), and the
        # lattice completes X from its zero mode and positive half
        assert (x == x[lat.negation].conj()).all(), name
        assert (lat.complete(x[zero:]) == x).all(), name


STEPPERS = {
    "simulate": lambda ops, w: wk.simulate(ops, w, t_end=0.01, dt=0.005),
    "step": lambda ops, w: wk.step(ops, w, 0.005),
    "rhs": wk.rhs,
}


@pytest.mark.parametrize("stepper", sorted(STEPPERS))
def test_stepping_refuses_a_state_of_another_lattice(cns_model, stepper):
    # no quadratic part, so no qbar lattice check runs; 1-D R=40 also has 81 modes
    ops = wk.build_operators(cns_model.spec, wk.FrequencyLattice(2, 4), with_quadratic=False)
    w0 = wk.random_real_state(wk.FrequencyLattice(1, 40), 4, seed=3)
    assert len(w0.lattice) == len(ops.lattice)
    with pytest.raises(ValueError, match=r"radius=40\) does not fit operators of 4 components on .*radius=4\)"):
        STEPPERS[stepper](ops, w0)


@pytest.mark.parametrize("stepper", sorted(STEPPERS))
def test_stepping_refuses_a_state_with_other_components(wave2_spec, stepper):
    ops = wk.build_operators(wave2_spec, wk.FrequencyLattice(1, 4))
    w0 = wk.random_real_state(ops.lattice, 3, seed=3)
    with pytest.raises(ValueError, match="a state of 3 components .* does not fit operators of 2 components"):
        STEPPERS[stepper](ops, w0)


ENTRIES = {**STEPPERS, "qbar": lambda ops, w: wk.apply_averaged_quadratic(ops.spec, ops.spectrum, ops.table, w, w)}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entries_refuse_a_state_that_is_not_real(cns_ops4, entry):
    # a mirror defect of 1e-6 relative to the largest coefficient is no roundoff: every entry
    # raises, and none answers on another path
    w0 = wk.random_real_state(cns_ops4.lattice, 4, seed=3)
    w0.coeffs[cns_ops4.lattice.upper[0], 1] += 1e-6j * np.abs(w0.coeffs).max()
    with pytest.raises(ValueError, match=r"not real: its relative mirror defect 1\.000e-06 exceeds 1e-12"):
        ENTRIES[entry](cns_ops4, w0)


def test_simulate_projects_a_roundoff_defect_once(cns_ops4):
    w0 = wk.random_real_state(cns_ops4.lattice, 4, seed=4)
    noisy = w0.copy()
    noisy.coeffs[cns_ops4.lattice.zero_index(), 0] = 1e-17j
    before = noisy.coeffs.copy()
    snaps, _ = wk.simulate(cns_ops4, noisy, t_end=0.01, dt=0.005, diagnostics_every=1)
    want, _ = wk.simulate(cns_ops4, wk.enforce_reality(noisy.copy()), t_end=0.01, dt=0.005, diagnostics_every=1)
    assert all(a.coeffs.tobytes() == b.coeffs.tobytes() for a, b in zip(snaps, want))
    assert all(is_reality_symmetric(snap) for snap in snaps)
    assert noisy.coeffs.tobytes() == before.tobytes()


def test_unknown_integrator_rejected(cns_ops4):
    w0 = wk.zero_state(cns_ops4.lattice, 4)
    with pytest.raises(ValueError):
        wk.step(cns_ops4, w0, 0.1, method="euler")


def _quadrature_cases(case):
    rng = np.random.default_rng(28)
    if case == "uniform":
        for n in [*range(2, 41), 1000, 1001]:
            for dt in (1e-3, 2e-3, 0.37):
                yield dt * np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(-20, 6)
    elif case == "short-last-interval":  # snapshot times, as weak_strong_experiment reads them
        for n in (3, 4, 5, 26, 27):
            yield 1e-3 * np.append(np.arange(0, 50 * (n - 1), 50), 50 * (n - 2) + 17), rng.standard_normal(n)
    elif case == "negative-zeros":
        for n in (2, 3, 4, 27):
            yield 1e-3 * np.arange(n), np.full(n, -0.0)
    else:  # one step: Simpson falls back to the trapezoid
        yield np.array([0.0, 0.01]), np.array([1.5, -0.25])


@pytest.mark.parametrize("case", ["uniform", "short-last-interval", "negative-zeros", "two-samples"])
def test_quadratures_are_scipys_bytes(case):
    import scipy.integrate  # the oracle only: wndkit does not import it

    for x, y in _quadrature_cases(case):
        simpson, trapezoid = _cumulative_simpson(y, x), _cumulative_trapezoid(y, x)
        assert simpson.tobytes() == scipy.integrate.cumulative_simpson(y, x=x, initial=0.0).tobytes(), len(x)
        assert trapezoid.tobytes() == scipy.integrate.cumulative_trapezoid(y, x, initial=0.0).tobytes(), len(x)
        if case == "negative-zeros":  # 0.0 is added to Simpson's partial sums, and only prepended to the trapezoid's
            assert not np.signbit(simpson).any() and np.signbit(trapezoid[1:]).all()


@pytest.fixture(scope="module")
def gas3d_ops2():
    model = wk.build_preset("ideal-gas-3d")
    return wk.build_operators(model.spec, wk.FrequencyLattice(3, 2), exact_rule=wk.make_exact_resonance_rule(model))


@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "filtered"])
@pytest.mark.parametrize("method", ["if_rk2", "if_rk4"])
@pytest.mark.parametrize("ops_fixture", ["cns_ops4", "gas3d_ops2"])
def test_no_step_stage_is_projected(ops_fixture, method, filtered, request, monkeypatch):
    """Every stage input reaches qbar's entry gate bitwise real, so the gate never
    projects a copy: `enforce_reality` runs zero times inside simulate, also with a
    nonzero zero mode."""
    from wndkit import state as state_module

    ops = request.getfixturevalue(ops_fixture)
    lat, n = ops.lattice, ops.spec.ncomp
    w0 = wk.random_real_state(lat, n, seed=61, decay=3.0, amplitude=0.2)
    w0.coeffs[lat.zero_index()] = np.linspace(0.1, -0.05, n)
    projected = []
    enforce = state_module.enforce_reality
    monkeypatch.setattr(state_module, "enforce_reality", lambda s: projected.append(s) or enforce(s))
    snaps, _ = wk.simulate(ops, w0, t_end=4e-3, dt=1e-3, method=method, diagnostics_every=2, filtered=filtered)
    assert projected == []
    assert all(is_reality_symmetric(s) for s in snaps)
    assert np.array_equal(snaps[-1].coeffs[lat.zero_index()], w0.coeffs[lat.zero_index()])


def _reference_step(ops, coeffs, dt, method, filtered):
    """The six-apply IF-RK4 and the IF-RK2 on the full lattice, with scipy's e^{dt G} at every mode
    and the public qbar: no code of the half path."""
    gen = ops.avg.blocks if filtered else ops.generator
    full, half = scipy.linalg.expm(dt * gen), scipy.linalg.expm(0.5 * dt * gen)

    def apply(props, c):
        return np.einsum("mpq,mq->mp", props, c)

    def tendency(c):
        state = wk.SpectralState(ops.lattice, c)
        return -wk.apply_averaged_quadratic(ops.spec, ops.spectrum, ops.table, state, state).coeffs

    k1 = tendency(coeffs)
    if method == "if_rk2":
        k2 = tendency(apply(half, coeffs + 0.5 * dt * k1))
        return apply(full, coeffs) + dt * apply(half, k2)
    u_half = apply(half, coeffs)
    k2 = tendency(u_half + 0.5 * dt * apply(half, k1))
    k3 = tendency(u_half + 0.5 * dt * k2)
    k4 = tendency(apply(half, u_half + dt * k3))
    return apply(full, coeffs) + (dt / 6.0) * (apply(full, k1) + 2.0 * apply(half, k2 + k3) + k4)


@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "filtered"])
@pytest.mark.parametrize("method", ["if_rk2", "if_rk4"])
@pytest.mark.parametrize("ops_fixture", ["cns_ops4", "gas3d_ops2"])
def test_simulate_matches_a_full_lattice_reference(ops_fixture, method, filtered, request):
    ops = request.getfixturevalue(ops_fixture)
    lat, spec = ops.lattice, ops.spec
    w0 = wk.random_real_state(lat, spec.ncomp, seed=62, decay=3.0, amplitude=0.3)
    w0.coeffs[lat.zero_index()] = np.linspace(0.1, -0.05, spec.ncomp)
    dt, every = 2e-3, 3
    snaps, series = wk.simulate(ops, w0, t_end=20 * dt, dt=dt, method=method, diagnostics_every=every,
                                filtered=filtered)
    coeffs, worst = w0.coeffs, 0.0
    for i in range(21):
        if i:
            coeffs = _reference_step(ops, coeffs, dt, method, filtered)
        if i % every == 0 or i == 20:
            snap = snaps.pop(0)
            ref = wk.SpectralState(lat, coeffs)
            worst = max(worst, state_diff_norm(spec, snap, ref) / wk.energy_norm(spec, ref))
            # the half's samples against the full-lattice pairings of the snapshot
            energy = 0.5 * wk.energy_norm(spec, snap) ** 2
            dissipation = -wk.inner_product(spec, snap, wk.apply_averaged_diffusion(ops.avg, snap)).real
            j = len(series.times) - len(snaps) - 1
            assert abs(series.energy[j] - energy) <= 1e-14 * energy
            assert abs(series.dissipation[j] - dissipation) <= 1e-14 * dissipation
    assert snaps == []
    assert worst <= 1e-13
