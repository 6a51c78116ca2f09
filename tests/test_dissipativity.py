import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import wndkit as wk
from wndkit.directions import lattice_directions
from wndkit.dissipativity import (
    KAWASHIMA_NULL_TOL,
    analyze_dissipativity,
    beta_by_direction,
    constructive_delta,
    criterion_beta,
    default_alpha_grid,
    kawashima_check,
    report_directions,
    sphere_constants,
    strict_criterion_search,
    verify_delta,
)


def test_kawashima_positive_definite_diffusion():
    spec = wk.SystemSpec(1, 2, [0, 0], np.zeros((1, 2, 2)),
                         np.eye(2).reshape(1, 1, 2, 2), np.zeros((1, 2, 2, 2)), np.eye(2))
    ok, witnesses = kawashima_check(spec, np.array([[1.0], [-1.0]]))
    assert ok and not witnesses


def test_kawashima_wave_pair(wave2_spec):
    ok, witnesses = kawashima_check(wave2_spec, np.array([[1.0], [-1.0]]))
    assert ok and not witnesses


def test_kawashima_counterexample():
    dif = np.zeros((1, 1, 2, 2))
    dif[0, 0] = np.diag([1.0, 0.0])
    spec = wk.SystemSpec(1, 2, [0, 0], np.zeros((1, 2, 2)), dif, np.zeros((1, 2, 2, 2)), np.eye(2))
    ok, witnesses = kawashima_check(spec, np.array([[1.0]]))
    assert not ok
    assert any(np.allclose(np.abs(w.vector), [0.0, 1.0], atol=1e-12) for w in witnesses)


def test_kawashima_invariant_under_change_of_variables(wave2_spec):
    rng = np.random.Generator(np.random.Philox(key=5))
    transform = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    primed = wk.change_of_variables(wave2_spec, transform)
    dirs = np.array([[1.0], [-1.0]])
    assert kawashima_check(wave2_spec, dirs)[0] == kawashima_check(primed, dirs)[0]


def test_criterion_beta_wave_example(wave2_spec):
    assert criterion_beta(wave2_spec, 1.0, np.array([[1.0], [-1.0]])) == pytest.approx(1.0)


def test_strict_search_uniform_parabolic():
    dif = np.zeros((1, 1, 2, 2))
    dif[0, 0] = 0.7 * np.eye(2)
    spec = wk.SystemSpec(1, 2, [0, 0], np.zeros((1, 2, 2)), dif, np.zeros((1, 2, 2, 2)), np.eye(2))
    result = strict_criterion_search(spec, np.array([[1.0], [-1.0]]))
    assert result.ok and result.beta >= 0.7 - 1e-12


def test_strict_search_failure_is_a_value():
    spec = wk.SystemSpec(1, 2, [0, 0], np.zeros((1, 2, 2)), np.zeros((1, 1, 2, 2)),
                         np.zeros((1, 2, 2, 2)), np.eye(2))
    result = strict_criterion_search(spec, np.array([[1.0]]))
    assert not result.ok
    assert result.delta == 0.0


def test_constructive_delta_reference_values():
    epsilon, delta = constructive_delta(1.0, 1.0, 1.0, 1.0)
    assert epsilon == pytest.approx(1.0 / 8.0)
    assert delta == pytest.approx(1.0 / 24.0)


def test_constructive_delta_monotonicity():
    _, d_base = constructive_delta(1.0, 1.0, 1.0, 1.0)
    _, d_big_adv = constructive_delta(1.0, 1.0, 2.0, 1.0)
    assert d_big_adv < d_base
    _, d_small_beta = constructive_delta(1.0, 1e-6, 1.0, 1.0)
    assert d_small_beta < d_base


@given(
    st.floats(1e-2, 1e2), st.floats(1e-3, 10), st.floats(1e-1, 10), st.floats(1e-1, 10)
)
@settings(max_examples=100, deadline=None)
def test_constructive_delta_ordering(alpha, beta, c_adv, c_diff):
    epsilon, delta = constructive_delta(alpha, beta, c_adv, c_diff)
    assert 0.0 < delta < epsilon < beta / 4.0 + 1e-15


def test_constructive_delta_rejects_nonpositive():
    with pytest.raises(ValueError):
        constructive_delta(1.0, 0.0, 1.0, 1.0)


def test_verify_delta_scalar_heat():
    spec = wk.SystemSpec(1, 1, [0.0], [[[0.0]]], [[[[0.4]]]], [[[[0.0]]]], [[1.0]])
    lat = wk.FrequencyLattice(1, 3)
    ops = wk.build_operators(spec, lat, with_quadratic=False)
    assert verify_delta(spec, ops.avg) == pytest.approx(0.4)


@pytest.mark.parametrize("system", ["scalar-heat", "ideal-gas-2d"])
def test_verify_delta_without_nonzero_modes_is_infinite(system):
    # an R=0 lattice holds only the zero mode, so no pencil is solved
    if system == "ideal-gas-2d":
        spec = wk.build_preset(system).spec
    else:
        spec = wk.SystemSpec(1, 1, [0.0], [[[0.0]]], [[[[0.4]]]], [[[[0.0]]]], [[1.0]])
    ops = wk.build_operators(spec, wk.FrequencyLattice(spec.dim, 0), with_quadratic=False)
    assert verify_delta(spec, ops.avg) == np.inf


def test_wave_example_certificate(wave2_spec):
    lat = wk.FrequencyLattice(1, 4)
    ops = wk.build_operators(wave2_spec, lat, with_quadratic=False)
    report = analyze_dissipativity(wave2_spec, lat, ops.avg, alphas=np.array([1.0]))
    assert report.kawashima_ok
    assert report.beta == pytest.approx(1.0)
    assert report.epsilon == pytest.approx(1.0 / 8.0)
    assert report.delta == pytest.approx(1.0 / 24.0)
    assert report.delta_empirical == pytest.approx(0.5, rel=1e-10)
    assert report.delta_empirical >= report.delta - 1e-9


def test_cns_certificate(cns_model, cns_ops4):
    lat = cns_ops4.lattice
    report = analyze_dissipativity(cns_model.spec, lat, cns_ops4.avg)
    assert report.kawashima_ok and report.criterion_ok
    assert report.delta > 0.0
    assert report.delta_empirical >= report.delta - 1e-9


def test_delta_positive_implies_kawashima(cns_model, cns_ops4):
    report = analyze_dissipativity(cns_model.spec, cns_ops4.lattice, cns_ops4.avg)
    if report.delta > 0:
        assert report.kawashima_ok


def test_generalized_eigs_scale_with_mode_square(cns_model, cns_ops8):
    g = cns_model.spec.entropy_hessian.astype(complex)
    base = None
    for mult in (1, 2, 4):
        mode = (mult, 0)
        gd = g @ cns_ops8.avg.block(mode)
        herm = -0.5 * (gd + gd.conj().T)
        vals = scipy.linalg.eigh(herm, g, eigvals_only=True)
        scaled = vals / mult**2
        if base is None:
            base = scaled
        assert np.abs(scaled - base).max() <= 1e-10 * max(1.0, np.abs(base).max())


def test_euler_has_no_certificate(cns_model):
    euler = wk.build_cns_spec(cns_model.eos, wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
    lat = wk.FrequencyLattice(2, 2)
    ops = wk.build_operators(euler, lat, with_quadratic=False)
    report = analyze_dissipativity(euler, lat, ops.avg)
    assert not report.criterion_ok and not report.kawashima_ok
    assert report.delta == 0.0


def test_report_directions_include_axes(cns_model):
    dirs = report_directions(cns_model.spec, wk.FrequencyLattice(2, 2), extra=16)
    axes = np.eye(2)
    for axis in axes:
        assert any(np.allclose(d, axis) for d in dirs)
    norms = np.linalg.norm(dirs, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


# The per-direction and per-mode loops that the stacked certificate replaced,
# kept as references: the stacked code must reproduce them bit for bit.


def _reference_kawashima(spec, dirs):
    witnesses = []
    root, inv_root = spec.metric_sqrt()
    for xi in dirs:
        bsym = wk.diffusion_symbol(spec, xi)
        bnorm = np.linalg.norm(bsym, 2)
        sym = root @ wk.advection_symbol(spec, xi) @ inv_root
        evals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
        for omega, col in zip(evals, vecs.T):
            vec = inv_root @ col
            vec = vec / np.linalg.norm(vec)
            if np.linalg.norm(bsym @ vec) <= KAWASHIMA_NULL_TOL * bnorm:
                witnesses.append((np.array(xi), float(omega), vec))
    return witnesses


def _reference_sphere_constants(spec, dirs):
    root, inv_root = spec.metric_sqrt()
    c_adv = c_diff = 0.0
    for xi in dirs:
        c_adv = max(c_adv, float(np.linalg.norm(root @ wk.advection_symbol(spec, xi) @ inv_root, 2)))
        c_diff = max(c_diff, float(np.linalg.norm(root @ wk.diffusion_symbol(spec, xi) @ inv_root, 2)))
    return c_adv, c_diff


def _reference_betas(spec, alpha, dirs):
    g = spec.entropy_hessian
    out = np.empty(len(dirs))
    for i, xi in enumerate(dirs):
        a = wk.advection_symbol(spec, xi)
        gb = g @ wk.diffusion_symbol(spec, xi)
        mat = gb + (a.T @ gb @ a) / alpha**2
        mat = 0.5 * (mat + mat.T)
        out[i] = float(scipy.linalg.eigh(mat, g, eigvals_only=True)[0])
    return out


def _reference_verify_delta(spec, avg):
    g = spec.entropy_hessian
    best = np.inf
    for i, mode in enumerate(avg.lattice.array):
        sq = float((mode.astype(float) ** 2).sum())
        if sq == 0.0:
            continue
        gd = g @ avg.blocks[i]
        herm = -0.5 * (gd + gd.conj().T)
        best = min(best, float(scipy.linalg.eigh(herm, sq * g.astype(complex), eigvals_only=True)[0]))
    return best


def _certificate_system(name, request):
    """(spec, lattice) of a test system; lattice radius 4 except the 2-D Euler spec and the 3-D gas."""
    if name == "ideal-gas-2d":
        return request.getfixturevalue("cns_model").spec, wk.FrequencyLattice(2, 4)
    if name == "ideal-gas-3d":
        return wk.build_preset(name).spec, wk.FrequencyLattice(3, 2)
    if name == "wave2":
        return request.getfixturevalue("wave2_spec"), wk.FrequencyLattice(1, 4)
    if name == "euler":
        model = request.getfixturevalue("cns_model")
        euler = wk.build_cns_spec(model.eos, wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
        return euler, wk.FrequencyLattice(2, 2)
    negative = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[-1.0]]]], [[[[0.0]]]], [[1.0]])
    return negative, wk.FrequencyLattice(1, 4)


@pytest.mark.parametrize("system", ["ideal-gas-2d", "wave2", "euler", "negative-diffusion", "ideal-gas-3d"])
def test_stacked_certificate_matches_per_direction_reference(system, request):
    spec, lattice = _certificate_system(system, request)
    dirs = report_directions(spec, lattice, 64)
    ok, witnesses = kawashima_check(spec, dirs)
    ref = _reference_kawashima(spec, dirs)
    assert ok == (not ref) and len(witnesses) == len(ref)
    for got, (xi, omega, vec) in zip(witnesses, ref):
        assert got.direction.tobytes() == xi.tobytes()
        assert np.float64(got.frequency).tobytes() == np.float64(omega).tobytes()
        assert got.vector.tobytes() == vec.tobytes()
    if system == "euler":
        assert witnesses  # the reference loop has something to match
    assert sphere_constants(spec, dirs) == _reference_sphere_constants(spec, dirs)
    alphas = default_alpha_grid(8)
    refs = [_reference_betas(spec, float(alpha), dirs) for alpha in alphas]
    for alpha, expected in zip(alphas, refs):
        assert beta_by_direction(spec, float(alpha), dirs).tobytes() == expected.tobytes()
    search = strict_criterion_search(spec, dirs, alphas)
    assert search.beta_by_alpha == tuple((float(a), float(r.min())) for a, r in zip(alphas, refs))
    if search.ok:
        assert search.beta_per_direction == tuple(refs[list(alphas).index(search.alpha)].tolist())
    avg = wk.build_operators(spec, lattice, with_quadratic=False).avg
    got, expected = verify_delta(spec, avg), _reference_verify_delta(spec, avg)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def _reference_lattice_directions(lattice_array):
    prims = {}
    for mode in np.asarray(lattice_array, dtype=np.int64):
        if not mode.any():
            continue
        g = int(np.gcd.reduce(np.abs(mode)))
        key = tuple(int(c) for c in mode // g)
        if key not in prims:
            vec = np.asarray(key, dtype=float)
            prims[key] = vec / np.linalg.norm(vec)
    return np.array(sorted(prims.values(), key=tuple))


@pytest.mark.parametrize("dim, radius", [(1, 5), (2, 6), (2, 1), (3, 3)])
def test_lattice_directions_match_per_mode_reference(dim, radius):
    got = lattice_directions(wk.FrequencyLattice(dim, radius).array)
    expected = _reference_lattice_directions(wk.FrequencyLattice(dim, radius).array)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert lattice_directions(wk.FrequencyLattice(dim, 0).array).shape == (0, dim)
