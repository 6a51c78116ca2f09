import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wndkit as wk
from wndkit.navier_stokes import (
    acoustic_sum_resonant,
    conserved_flux,
    heat_capacity_pressure,
    ideal_gas,
    simulate_incompressible_reference,
    wcns_coupling_report,
    wcns_split,
)
from wndkit.solver import whole_steps

from conftest import state_diff_norm


def test_sound_speed_ideal_gas_reference():
    eos = ideal_gas(3)
    assert wk.sound_speed(eos, 1.0, 1.0) ** 2 == pytest.approx(5.0 / 3.0, rel=1e-14)


def test_sound_speed_decoupled_pressure():
    eos = wk.EquationOfState(
        pressure=lambda r, t: 2.0 * r,
        energy=lambda r, t: t,
        pressure_rho=lambda r, t: 2.0,
        pressure_theta=lambda r, t: 0.0,
        heat_capacity=lambda r, t: 1.0,
        pressure_rho_rho=lambda r, t: 0.0,
        pressure_rho_theta=lambda r, t: 0.0,
        pressure_theta_theta=lambda r, t: 0.0,
        heat_capacity_theta=lambda r, t: 0.0,
        theta_from_energy=lambda r, e: e,
    )
    assert wk.sound_speed(eos, 1.0, 1.0) ** 2 == pytest.approx(2.0)


def test_sound_speed_scales_with_temperature():
    eos = ideal_gas(3)
    assert wk.sound_speed(eos, 1.0, 4.0) == pytest.approx(2.0 * wk.sound_speed(eos, 1.0, 1.0))


def test_acoustic_diffusivity_reference():
    eos = ideal_gas(3)
    transport = wk.TransportCoefficients(shear=1.0, bulk=0.0, thermal=1.0, micro_dim=3)
    assert wk.acoustic_diffusivity(eos, transport, 1.0, 1.0) == pytest.approx(0.8, rel=1e-14)


def test_acoustic_diffusivity_decomposes():
    eos = ideal_gas(3)
    none = wk.TransportCoefficients(0.0, 0.0, 0.0, 3)
    assert wk.acoustic_diffusivity(eos, none, 1.0, 1.0) == 0.0
    visc = wk.TransportCoefficients(1.0, 0.5, 0.0, 3)
    expect = (2.0 * (2.0 / 3.0) * 1.0 + 0.5) / 2.0
    assert wk.acoustic_diffusivity(eos, visc, 1.0, 1.0) == pytest.approx(expect, rel=1e-14)


def test_build_cns_spec_1d_eigenvalues():
    model = wk.build_preset("ideal-gas-1d")
    assert model.ncomp == 3
    dec = wk.frequency_spectrum(model.spec, wk.FrequencyLattice(1, 1))[(1,)]
    assert np.allclose(sorted(dec.frequencies), [-model.sound, 0.0, model.sound], atol=1e-12)


def test_euler_limit_passes_entropy_only(cns_model):
    euler = wk.build_cns_spec(cns_model.eos, wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
    assert np.abs(euler.diffusion).max() == 0.0
    assert wk.validate_entropy_structure(euler).passed


def test_entropy_hessian_positive_definite(cns_model):
    evals = np.linalg.eigvalsh(cns_model.spec.entropy_hessian)
    assert evals.min() > 0.0


def test_fd_flux_jacobian_oracle(cns_model):
    eos = cns_model.eos
    u0 = np.array([1.0, 0.0, 0.0, eos.energy(1.0, 1.0)])
    h = 1e-6
    jac = np.zeros((2, 4, 4))
    for j in range(4):
        up, dn = u0.copy(), u0.copy()
        up[j] += h
        dn[j] -= h
        jac[:, :, j] = (conserved_flux(eos, up, 2) - conserved_flux(eos, dn, 2)) / (2.0 * h)
    r0 = cns_model.conserved_jacobian
    inv = np.linalg.inv(r0)
    for axis in range(2):
        got = inv @ jac[axis] @ r0
        scale = max(1.0, np.abs(cns_model.spec.advection[axis]).max())
        assert np.abs(got - cns_model.spec.advection[axis]).max() <= 1e-7 * scale


def test_fd_flux_hessian_matches_quadratic_kernel(cns_model):
    eos = cns_model.eos
    u0 = np.array([1.0, 0.0, 0.0, eos.energy(1.0, 1.0)])
    h = 1e-4
    hess = np.zeros((2, 4, 4, 4))
    for j in range(4):
        for k in range(4):
            pp, pm, mp_, mm = (u0.copy() for _ in range(4))
            pp[j] += h; pp[k] += h
            pm[j] += h; pm[k] -= h
            mp_[j] -= h; mp_[k] += h
            mm[j] -= h; mm[k] -= h
            hess[:, :, j, k] = (
                conserved_flux(eos, pp, 2) - conserved_flux(eos, pm, 2)
                - conserved_flux(eos, mp_, 2) + conserved_flux(eos, mm, 2)
            ) / (4.0 * h * h)
    r0 = cns_model.conserved_jacobian
    inv = np.linalg.inv(r0)
    expected = 0.5 * np.einsum("ip,apqr,qj,rk->aijk", inv, hess, r0, r0)
    assert np.abs(expected - cns_model.spec.quadratic).max() <= 1e-6


def test_acoustic_basis_eigenvectors(cns_model):
    g = cns_model.spec.entropy_hessian
    for k in [(1, 0), (2, 1), (0, -3)]:
        plus, minus = wk.acoustic_basis(cns_model, k)
        a = wk.advection_symbol(cns_model.spec, np.asarray(k, dtype=float))
        omega = cns_model.sound * np.linalg.norm(k)
        assert np.abs(a @ plus - omega * plus).max() <= 1e-10
        assert np.abs(a @ minus + omega * minus).max() <= 1e-10
        assert plus @ g @ plus == pytest.approx(1.0, abs=1e-10)
        assert minus @ g @ minus == pytest.approx(1.0, abs=1e-10)
        assert abs(plus @ g @ minus) <= 1e-10
        assert np.allclose(plus[1:3], -np.asarray(minus[1:3]))  # velocity flips sign
    with pytest.raises(ValueError):
        wk.acoustic_basis(cns_model, (0, 0))


def test_wcns_split_constraints(cns_model, cns_ops4):
    lat = cns_ops4.lattice
    state = wk.random_real_state(lat, 4, seed=11, decay=2.0)
    w_in, w_ac = wcns_split(cns_model, cns_ops4.spectrum, state)
    assert np.abs(state.coeffs - w_in.coeffs - w_ac.coeffs).max() == 0.0
    arr = lat.array.astype(float)
    div = np.abs(np.einsum("md,md->m", arr, w_in.coeffs[:, 1:3])).max()
    neutral = np.abs(
        cns_model.p_rho * w_in.coeffs[:, 0] + cns_model.p_theta * w_in.coeffs[:, 3]
    ).max()
    assert div <= 1e-10 and neutral <= 1e-10
    slave = cns_model.theta * cns_model.p_theta / (cns_model.rho**2 * cns_model.c_v)
    for i, mode in enumerate(arr):
        if not mode.any():
            continue
        u = w_ac.coeffs[i, 1:3]
        assert abs(mode[0] * u[1] - mode[1] * u[0]) <= 1e-10  # curl-free
        assert abs(w_ac.coeffs[i, 3] - slave * w_ac.coeffs[i, 0]) <= 1e-10
    total = wk.energy_norm(cns_model.spec, state) ** 2
    split = (
        wk.energy_norm(cns_model.spec, w_in) ** 2 + wk.energy_norm(cns_model.spec, w_ac) ** 2
    )
    assert abs(total - split) <= 1e-10 * total


def test_wcns_split_pure_components(cns_model, cns_ops4):
    lat = cns_ops4.lattice
    hp, _ = wk.acoustic_basis(cns_model, (2, 1))
    pure_ac = wk.state_from_modes(lat, 4, [((2, 1), 0.3 * hp.astype(complex))])
    w_in, w_ac = wcns_split(cns_model, cns_ops4.spectrum, pure_ac)
    assert wk.energy_norm(cns_model.spec, w_in) <= 1e-12
    vec = np.zeros(4)
    vec[1:3] = [-1.0, 2.0]  # transverse to (2, 1)
    pure_in = wk.state_from_modes(lat, 4, [((2, 1), 0.3 * vec.astype(complex))])
    w_in2, w_ac2 = wcns_split(cns_model, cns_ops4.spectrum, pure_in)
    assert wk.energy_norm(cns_model.spec, w_ac2) <= 1e-12


def test_wcns_split_refuses_a_spectrum_of_another_spec(cns_model, cns_ops4):
    # the conserved-variable spec has other null projectors: P0 of its spectrum is not the model's
    conserved = wk.build_cns_spec(cns_model.eos, cns_model.transport, cns_model.rho, cns_model.theta, 2, "conserved")
    spectrum = wk.frequency_spectrum(conserved, cns_ops4.lattice)
    state = wk.random_real_state(cns_ops4.lattice, 4, seed=11, decay=2.0)
    with pytest.raises(ValueError, match="model's own spec"):
        wcns_split(cns_model, spectrum, state)
    # an equal spec built again is another spec too
    rebuilt = wk.build_preset("ideal-gas-2d")
    with pytest.raises(ValueError, match="model's own spec"):
        wcns_split(rebuilt, cns_ops4.spectrum, state)


def test_exact_rule_examples():
    examples = [
        ((9, 16, 49, 1, 1, 1), True),  # (3,0) + (4,0) collinear
        ((1, 1, 2, 1, 1, 1), False),  # sqrt 2 mismatch
        ((4, 9, 25, 0, 0, 0), True),  # vorticity triple
        ((9, 9, 4, 1, -1, 0), True),  # equal magnitudes cancel
        ((9, 4, 4, 1, -1, 0), False),
        ((25, 0, 25, 1, 0, 1), True),  # zero-norm partner drops out
        ((25, 16, 9, 1, 1, 1), False),
    ]
    for args, expected in examples:
        assert acoustic_sum_resonant(*args) is expected
    # the same identity on integer arrays, one element per example
    columns = np.array([args for args, _ in examples], dtype=np.int64).T
    got = acoustic_sum_resonant(*columns)
    assert got.dtype == bool
    assert got.tolist() == [expected for _, expected in examples]


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
@settings(max_examples=300, deadline=None)
def test_exact_rule_agrees_with_float(k1, k2, l1, l2, s1, s2, s3):
    k = np.array([k1, k2])
    l = np.array([l1, l2])
    m = k + l
    a, b, c = int(k @ k), int(l @ l), int(m @ m)
    # branches must exist: a zero mode only carries the zero branch
    if (a == 0 and s1 != 0) or (b == 0 and s2 != 0) or (c == 0 and s3 != 0):
        return
    lhs = s1 * math.sqrt(a) + s2 * math.sqrt(b) - s3 * math.sqrt(c)
    float_hit = abs(lhs) <= 1e-9 * 30.0
    assert acoustic_sum_resonant(a, b, c, s1, s2, s3) == float_hit


def test_exact_rule_rejects_near_misses():
    # sqrt(m) + sqrt(m+1) is within 4e-4 of sqrt(4m+2) for m ~ 30 yet never equal
    for m in range(20, 40):
        a, b, c = m, m + 1, 4 * m + 2
        defect = abs(math.sqrt(a) + math.sqrt(b) - math.sqrt(c))
        assert defect <= 1e-3  # the float rule at coarse tolerance would accept
        assert not acoustic_sum_resonant(a, b, c, 1, 1, 1)


def _plain_rule(k, s1, l, s2, m, s3):
    """The exact rule without its candidates: the integer identity on every cell of the grid, of every pair."""
    norms = [(x * x).sum(axis=-1) for x in (k, l, m)]
    return acoustic_sum_resonant(*norms, s1, s2, s3)


@pytest.mark.parametrize(
    "dim, radius, whole_table",
    [(1, 12, False), (2, 5, False), (2, 8, False), (3, 4, True), (2, 12, True)],
)
def test_exact_rule_narrowing_is_complete(dim, radius, whole_table):
    """The exact rule's `candidates` proposes only equal-norm or collinear
    pairs (k, l), and the build forms the branch grid of those alone.  Its
    proof obligation: every pair on which the plain identity holds on a
    cell with a nonzero label is proposed, so the table built from every
    pair under the plain identity is the same, its stored rows, defects and
    null counts bitwise (and with whole_table, the full rebuilt table).
    From R = 5 in 2-D, and with (2, 2, 1) and (3, 0, 0) in 3-D, modes of
    equal norm need not be signed permutations of each other ((3, 4) and
    (5, 0)); such pairs must resonate too."""
    model = wk.build_preset(f"ideal-gas-{dim}d")
    lat = wk.FrequencyLattice(dim, radius)
    spectrum = wk.frequency_spectrum(model.spec, lat)
    rule = wk.make_exact_resonance_rule(model)
    missed = 0  # pairs with a resonant cell off the all-null ones that candidates does not propose
    unlike_hits = 0  # non-null resonant cells on equal norms that no signed permutation maps onto each other

    def plain(k, s1, l, s2, m, s3):
        nonlocal missed, unlike_hits
        hit = _plain_rule(k, s1, l, s2, m, s3)
        labelled = (s1 != 0) | (s2 != 0) | (s3 != 0)  # not all-null (nor padded)
        resonant = (hit & labelled).any(axis=(1, 2, 3))
        proposed = rule.candidates(*(x[:, 0, 0, 0] for x in (k, l, m)))
        missed += int(np.count_nonzero(resonant & ~proposed))
        norms = [(x * x).sum(axis=-1) for x in (k, l, m)]
        shapes = [np.sort(np.abs(x), axis=-1) for x in (k, l, m)]
        unlike = np.zeros(norms[0].shape, dtype=bool)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            unlike |= (norms[i] == norms[j]) & (shapes[i] != shapes[j]).any(axis=-1)
        unlike_hits += int(np.count_nonzero(hit & unlike & labelled))
        return hit

    table = wk.build_resonance_table(spectrum, exact_rule=rule)
    reference = wk.build_resonance_table(spectrum, exact_rule=plain)
    assert missed == 0
    assert (unlike_hits > 0) == (dim > 1)
    assert table.rows.tobytes() == reference.rows.tobytes()
    assert table.row_defects.tobytes() == reference.row_defects.tobytes()
    assert table.null_counts.tobytes() == reference.null_counts.tobytes()
    if whole_table:
        assert table.entries.tobytes() == reference.entries.tobytes()
        assert table.defects.tobytes() == reference.defects.tobytes()


def test_one_way_coupling(cns_model, cns_ops4):
    lat = cns_ops4.lattice
    state = wk.random_real_state(lat, 4, seed=13, decay=3.0, amplitude=0.2)
    w_in0, _ = wcns_split(cns_model, cns_ops4.spectrum, state)
    snaps, _ = wk.simulate(cns_ops4, w_in0, t_end=0.5, dt=2e-3, diagnostics_every=50)
    for snap in snaps:
        _, w_ac = wcns_split(cns_model, cns_ops4.spectrum, snap)
        assert wk.energy_norm(cns_model.spec, w_ac) <= 1e-10 * wk.energy_norm(
            cns_model.spec, w_in0
        )


def test_incompressible_reference_match_small(cns_model, cns_ops4):
    lat = cns_ops4.lattice
    state = wk.random_real_state(lat, 4, seed=13, decay=3.0, amplitude=0.2)
    w_in0, _ = wcns_split(cns_model, cns_ops4.spectrum, state)
    snaps, _ = wk.simulate(cns_ops4, w_in0, t_end=0.5, dt=2e-3, diagnostics_every=10**9)
    u_final, th_final = simulate_incompressible_reference(
        cns_model, lat, w_in0.coeffs[:, 1:3], w_in0.coeffs[:, 3], 0.5, 2e-3
    )
    ref = wk.zero_state(lat, 4)
    ref.coeffs[:, 1:3] = u_final
    ref.coeffs[:, 3] = th_final
    ref.coeffs[:, 0] = -cns_model.p_theta / cns_model.p_rho * th_final
    rel = state_diff_norm(cns_model.spec, snaps[-1], ref) / wk.energy_norm(cns_model.spec, ref)
    assert rel <= 1e-8


def _incompressible_reference_loop(model, lattice, u_hat, theta_hat, t_end, dt):
    """The reference solve mode-major: u (M, d) and theta (M,) gathered and summed separately."""
    dim = model.dim
    arr = lattice.array.astype(float)
    sq = (arr**2).sum(axis=1)
    nu_u = model.transport.shear / model.rho
    nu_t = model.transport.thermal / (model.rho * model.c_p)
    pk, pl, _, seg, seg_modes = lattice.convolution_pairs()
    lvec = arr[pl]
    nonzero = sq > 0
    leray = np.zeros((len(lattice), dim, dim))
    leray[:] = np.eye(dim)
    leray[nonzero] -= arr[nonzero, :, None] * arr[nonzero, None, :] / sq[nonzero, None, None]
    zero = lattice.zero_index()

    def tendency(u, th):
        dot = 1j * np.einsum("pd,pd->p", u[pk], lvec.astype(complex))
        conv_u = np.zeros_like(u)
        conv_t = np.zeros_like(th)
        conv_u[seg_modes] = np.add.reduceat(dot[:, None] * u[pl], seg, axis=0)
        conv_t[seg_modes] = np.add.reduceat(dot * th[pl], seg, axis=0)
        du = -np.einsum("mde,me->md", leray, conv_u)
        dth = -conv_t
        du[zero] = 0.0
        dth[zero] = 0.0
        return du, dth

    u = u_hat.astype(complex)
    th = theta_hat.astype(complex)
    e_u = np.exp(-nu_u * sq * dt)[:, None]
    e_t = np.exp(-nu_t * sq * dt)
    h_u = np.exp(-nu_u * sq * 0.5 * dt)[:, None]
    h_t = np.exp(-nu_t * sq * 0.5 * dt)
    for _ in range(whole_steps(t_end, dt)):
        k1u, k1t = tendency(u, th)
        k2u, k2t = tendency(h_u * (u + 0.5 * dt * k1u), h_t * (th + 0.5 * dt * k1t))
        k3u, k3t = tendency(h_u * u + 0.5 * dt * k2u, h_t * th + 0.5 * dt * k2t)
        k4u, k4t = tendency(h_u * (h_u * u + dt * k3u), h_t * (h_t * th + dt * k3t))
        u = e_u * u + (dt / 6.0) * (e_u * k1u + 2.0 * h_u * (k2u + k3u) + k4u)
        th = e_t * th + (dt / 6.0) * (e_t * k1t + 2.0 * h_t * (k2t + k3t) + k4t)
    return u, th


@pytest.mark.parametrize(
    "preset, radius", [("ideal-gas-2d", 3), ("ideal-gas-2d", 6), ("ideal-gas-1d", 5), ("ideal-gas-3d", 2)]
)
def test_incompressible_reference_matches_loop_reference(preset, radius):
    model = wk.build_preset(preset)
    lat = wk.FrequencyLattice(model.dim, radius)
    spectrum = wk.frequency_spectrum(model.spec, lat)
    d = model.dim
    state = wk.random_real_state(lat, d + 2, seed=91, decay=3.0, amplitude=0.2)
    split, _ = wcns_split(model, spectrum, state)
    rng = np.random.Generator(np.random.Philox(key=92))
    shape = (len(lat), d + 1)
    plain = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    inputs = {"split": split.coeffs[:, 1:], "random complex": plain}
    for name, coeffs in inputs.items():
        got = simulate_incompressible_reference(model, lat, coeffs[:, :d], coeffs[:, d], 0.02, 1e-3)
        ref = _incompressible_reference_loop(model, lat, coeffs[:, :d], coeffs[:, d], 0.02, 1e-3)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), name


@pytest.mark.parametrize("t_end, dt", [(1.5e-12, 1e-12), (2.5e-9, 1e-9), (5e-10, 1e-3)])
def test_incompressible_reference_rejects_short_partial_runs(cns_model, t_end, dt):
    # an absolute slack of 1e-9 below t_end = 1 would take these as 2, 2 and 0 steps
    lat = wk.FrequencyLattice(2, 2)
    zeros = np.zeros(len(lat), dtype=complex)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        simulate_incompressible_reference(cns_model, lat, np.zeros((len(lat), 2)), zeros, t_end, dt)


@pytest.mark.parametrize("t_end, dt", [(0.0225, 1e-3), (0.0, 1e-3), (0.02, 0.0), (0.02, -1e-3)])
def test_incompressible_reference_rejects_partial_steps(cns_model, t_end, dt):
    # simulate would take ceil(t_end / dt) steps here, the reference round()
    lat = wk.FrequencyLattice(2, 2)
    zeros = np.zeros(len(lat), dtype=complex)
    with pytest.raises(ValueError):
        simulate_incompressible_reference(cns_model, lat, np.zeros((len(lat), 2)), zeros, t_end, dt)


def test_linear_acoustic_decay(cns_model):
    lat = wk.FrequencyLattice(2, 3)
    ops = wk.build_operators(cns_model.spec, lat, with_quadratic=False)
    for k in [(1, 0), (1, 1), (2, -1)]:
        hp, _ = wk.acoustic_basis(cns_model, k)
        amp = 0.01
        state = wk.state_from_modes(lat, 4, [(k, amp * hp.astype(complex))])
        t_end = 0.5
        snaps, _ = wk.simulate(ops, state, t_end=t_end, dt=0.01, diagnostics_every=10**9)
        ksq = float(np.dot(k, k))
        expect = amp * np.exp(
            (-1j * cns_model.sound * math.sqrt(ksq) - cns_model.diffusivity * ksq) * t_end
        )
        got = snaps[-1].coeff(k) @ cns_model.spec.entropy_hessian @ hp
        assert abs(got - expect) <= 1e-9 * abs(expect)


def test_primitive_conserved_covariance(cns_model):
    conserved = wk.build_cns_spec(cns_model.eos, cns_model.transport, 1.0, 1.0, 2,
                                  variables="conserved")
    assert wk.validate_entropy_structure(conserved).passed
    lat = wk.FrequencyLattice(2, 2)
    rule = wk.make_exact_resonance_rule(cns_model)
    prim_ops = wk.build_operators(cns_model.spec, lat, exact_rule=rule)
    cons_ops = wk.build_operators(conserved, lat, exact_rule=rule)
    transform = np.linalg.inv(cns_model.conserved_jacobian)  # primitive = transform . conserved
    inv = cns_model.conserved_jacobian
    for i in range(len(lat)):
        expect = np.linalg.inv(transform) @ prim_ops.avg.blocks[i] @ transform
        scale = max(1.0, np.abs(expect).max())
        assert np.abs(cons_ops.avg.blocks[i] - expect).max() <= 1e-9 * scale
    wp = wk.random_real_state(lat, 4, seed=8, decay=2.0)  # conserved-variable state
    w = wp.copy()
    w.coeffs = wp.coeffs @ transform.T
    out = wk.apply_averaged_quadratic(cns_model.spec, prim_ops.spectrum, prim_ops.table, w, w)
    out_c = wk.apply_averaged_quadratic(conserved, cons_ops.spectrum, cons_ops.table, wp, wp)
    pulled = out.coeffs @ inv.T
    assert np.abs(out_c.coeffs - pulled).max() <= 1e-9 * max(1.0, np.abs(pulled).max())


def test_wcns_coupling_report(cns_model):
    lat = wk.FrequencyLattice(2, 5)
    ops = wk.build_operators(cns_model.spec, lat, exact_rule=wk.make_exact_resonance_rule(cns_model))
    report = wcns_coupling_report(cns_model, ops.table)
    assert report["sound_speed"] == pytest.approx(cns_model.sound)
    assert report["acoustic_diffusivity"] == pytest.approx(0.8)
    assert "acoustic_acoustic" in report["couplings"]
    assert "acoustic_velocity" in report["couplings"]
    for entry in report["couplings"].values():
        assert np.isfinite(entry["normalized"])
    assert report["n_triples"] == len(ops.table)
    assert "000" in report["resonance_counts"]
    counts = report["resonance_counts"]
    assert sum(counts.values()) == report["n_triples"]
    thr = 0.5 * cns_model.sound
    freqs = ops.spectrum.frequencies
    per_row: dict[str, int] = {}
    for ki, j1, li, j2, mi, j3 in ops.table.entries.tolist():
        key = "".join(
            "0" if abs(w) < thr else ("+" if w > 0 else "-") for w in (freqs[ki, j1], freqs[li, j2], freqs[mi, j3])
        )
        per_row[key] = per_row.get(key, 0) + 1
    assert counts == dict(sorted(per_row.items()))
    assert list(counts) == sorted(counts)


@pytest.mark.parametrize("radius, probes", [(2, []), (3, ["acoustic_acoustic"])])
def test_wcns_coupling_report_keeps_probes_that_fit(cns_model, radius, probes):
    lat = wk.FrequencyLattice(2, radius)
    ops = wk.build_operators(cns_model.spec, lat, exact_rule=wk.make_exact_resonance_rule(cns_model))
    report = wcns_coupling_report(cns_model, ops.table)
    assert list(report["couplings"]) == probes
    assert report["n_triples"] == len(ops.table)
    assert sum(report["resonance_counts"].values()) == len(ops.table)


def test_equation_of_state_without_a_second_partial_is_refused_at_construction():
    # the quadratic kernel reads all four second partials; none is differenced from a first one
    stated = {f.name: getattr(ideal_gas(3), f.name) for f in dataclasses.fields(wk.EquationOfState)}
    for name in ("pressure_rho_rho", "pressure_rho_theta", "pressure_theta_theta", "heat_capacity_theta"):
        partial = {key: value for key, value in stated.items() if key != name}
        with pytest.raises(TypeError, match=name):
            wk.EquationOfState(**partial)
    assert [f.name for f in dataclasses.fields(wk.EquationOfState) if f.default is not dataclasses.MISSING] == [
        "theta_from_energy"
    ]


def test_heat_capacity_pressure_ideal():
    eos = ideal_gas(3)
    assert heat_capacity_pressure(eos, 1.0, 1.0) == pytest.approx(2.5)


def test_transport_validation():
    with pytest.raises(ValueError):
        wk.TransportCoefficients(1.0, 0.0, 1.0, micro_dim=1).validate_for_dim(2)
    with pytest.raises(ValueError):
        wk.build_cns_model(ideal_gas(3), wk.TransportCoefficients(-1.0, 0, 0, 3), 1.0, 1.0, 2)


def test_eos_validation():
    eos = ideal_gas(3)
    with pytest.raises(ValueError):
        eos.validate_at(-1.0, 1.0)
