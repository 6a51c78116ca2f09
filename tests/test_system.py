import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wndkit as wk
from wndkit.directions import unit_directions
from wndkit.system import ENTROPY_DIRECTIONS, SpecShapeError


def test_scalar_advection_symbol_linearity(scalar_spec):
    assert wk.advection_symbol(scalar_spec, [2.0])[0, 0] == pytest.approx(2.0)
    assert np.all(wk.advection_symbol(scalar_spec, [0.0]) == 0.0)


def test_diffusion_symbol_scalar_heat(scalar_spec):
    assert wk.diffusion_symbol(scalar_spec, [2.0])[0, 0] == pytest.approx(0.3 * 4.0)
    assert np.all(wk.diffusion_symbol(scalar_spec, [0.0]) == 0.0)


def test_symbol_dimension_mismatch(scalar_spec):
    with pytest.raises(SpecShapeError):
        wk.advection_symbol(scalar_spec, [1.0, 2.0])
    for bad in (1.0, np.zeros((3, 2)), np.zeros((2, 3, 0))):
        for symbol in (wk.advection_symbol, wk.diffusion_symbol):
            with pytest.raises(SpecShapeError):
                symbol(scalar_spec, bad)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_symbols_of_a_direction_stack_match_one_at_a_time(dim):
    """(..., d) directions give (..., N, N) symbols, each with the bits of the single call."""
    spec = wk.build_preset(f"ideal-gas-{dim}d").spec
    rng = np.random.Generator(np.random.Philox(key=6))
    dirs = rng.standard_normal((3, 5, dim))
    for symbol in (wk.advection_symbol, wk.diffusion_symbol):
        stacked = symbol(spec, dirs)
        assert stacked.shape == (3, 5, spec.ncomp, spec.ncomp)
        for idx in np.ndindex(3, 5):
            assert stacked[idx].tobytes() == symbol(spec, dirs[idx]).tobytes()


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_advection_symbol_additive(xi, scale):
    model = wk.build_preset("ideal-gas-2d")
    vec = np.asarray(xi)
    lhs = wk.advection_symbol(model.spec, vec + scale * vec[::-1])
    rhs = wk.advection_symbol(model.spec, vec) + scale * wk.advection_symbol(model.spec, vec[::-1])
    assert np.abs(lhs - rhs).max() <= 1e-14 * max(1.0, np.abs(rhs).max())


@given(st.lists(st.floats(-4, 4), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_diffusion_symbol_degree_two(xi):
    model = wk.build_preset("ideal-gas-2d")
    vec = np.asarray(xi)
    assert np.allclose(
        wk.diffusion_symbol(model.spec, 2.0 * vec),
        4.0 * wk.diffusion_symbol(model.spec, vec),
        rtol=0.0,
        atol=1e-13 * max(1.0, np.abs(wk.diffusion_symbol(model.spec, vec)).max()),
    )


def test_validate_scalar_passes(scalar_spec):
    report = wk.validate_entropy_structure(scalar_spec)
    assert report.passed
    assert report.min_entropy_eigenvalue == pytest.approx(1.0)


def test_validate_negative_diffusion_fails():
    spec = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[-1.0]]]], [[[[0.0]]]], [[1.0]])
    report = wk.validate_entropy_structure(spec)
    assert not report.passed
    assert report.min_diffusion_eigenvalue == pytest.approx(-1.0)


def _reference_entropy_scan(spec):
    """The per-direction loop the stacked scan replaced: (max asymmetry, min diffusion, worst direction)."""
    g = spec.entropy_hessian
    dirs = unit_directions(spec.dim, ENTROPY_DIRECTIONS)
    worst_asym, worst_neg, worst_dir = 0.0, 0.0, dirs[0]
    for xi in dirs:
        ga = g @ wk.advection_symbol(spec, xi)
        gb = g @ wk.diffusion_symbol(spec, xi)
        asym = 0.0
        scale_a = np.linalg.norm(ga)
        if scale_a > 0.0:
            asym = np.linalg.norm(ga - ga.T) / scale_a
        scale_b = np.linalg.norm(gb)
        neg = 0.0
        if scale_b > 0.0:
            asym = max(asym, np.linalg.norm(gb - gb.T) / scale_b)
            neg = float(np.linalg.eigvalsh(0.5 * (gb + gb.T)).min()) / scale_b
        if asym > worst_asym or neg < worst_neg:
            worst_dir = xi
        worst_asym = max(worst_asym, asym)
        worst_neg = min(worst_neg, neg)
    return float(worst_asym), float(worst_neg), np.array(worst_dir)


@pytest.mark.parametrize("system", ["ideal-gas-2d", "wave2", "euler", "negative-diffusion", "asymmetric"])
def test_validate_matches_per_direction_reference(system, cns_model, wave2_spec):
    if system == "ideal-gas-2d":
        spec = cns_model.spec
    elif system == "wave2":
        spec = wave2_spec
    elif system == "euler":
        spec = wk.build_cns_spec(cns_model.eos, wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
    elif system == "negative-diffusion":
        spec = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[-1.0]]]], [[[[0.0]]]], [[1.0]])
    else:  # asymmetric g a(xi) and indefinite g b(xi): both residuals set records, the last at direction 57
        adv = cns_model.spec.advection.copy()
        adv[1, 0, 1] += 0.3
        dif = cns_model.spec.diffusion.copy()
        dif[0, 1, 0, 0] -= 0.2
        dif[1, 0, 0, 0] -= 0.2
        spec = wk.SystemSpec(2, 4, cns_model.spec.state, adv, dif, cns_model.spec.quadratic,
                             cns_model.spec.entropy_hessian)
    report = wk.validate_entropy_structure(spec)
    asym, neg, worst = _reference_entropy_scan(spec)
    assert np.float64(report.max_asymmetry).tobytes() == np.float64(asym).tobytes()
    assert np.float64(report.min_diffusion_eigenvalue).tobytes() == np.float64(neg).tobytes()
    assert report.worst_direction.tobytes() == worst.tobytes()


def test_validate_in_four_dimensions_samples_the_sphere():
    """From d = 4 the directions are a fixed-seed Gaussian sample: unit vectors, the same on every call."""
    dim, n = 4, 2
    adv = np.zeros((dim, n, n))
    adv[:, 0, 1] = adv[:, 1, 0] = np.arange(1.0, dim + 1)  # g a(xi) symmetric for g = I
    dif = np.zeros((dim, dim, n, n))
    dif[np.arange(dim), np.arange(dim)] = np.eye(n)

    def spec(advection):
        return wk.SystemSpec(dim, n, np.zeros(n), advection, dif, np.zeros((dim, n, n, n)), np.eye(n))

    dirs = unit_directions(dim, ENTROPY_DIRECTIONS)
    assert dirs.shape == (2 * dim + ENTROPY_DIRECTIONS, dim)
    assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-15
    assert dirs.tobytes() == unit_directions(dim, ENTROPY_DIRECTIONS).tobytes()
    report = wk.validate_entropy_structure(spec(adv))
    assert report.passed and report.n_directions == len(dirs)
    skewed = adv.copy()
    skewed[3, 0, 1] += 0.5
    report = wk.validate_entropy_structure(spec(skewed))
    assert not report.passed
    asym, _, worst = _reference_entropy_scan(spec(skewed))
    assert report.max_asymmetry == asym and report.worst_direction.tobytes() == worst.tobytes()


def test_validate_cns_passes(cns_model):
    report = wk.validate_entropy_structure(cns_model.spec)
    assert report.passed
    assert report.max_asymmetry <= 1e-10
    assert report.min_diffusion_eigenvalue >= -1e-10


def test_symmetrized_advection_residual_random_directions(cns_model):
    g = cns_model.spec.entropy_hessian
    rng = np.random.Generator(np.random.Philox(key=4))
    for _ in range(25):
        xi = rng.standard_normal(2)
        ga = g @ wk.advection_symbol(cns_model.spec, xi)
        assert np.linalg.norm(ga - ga.T) <= 1e-12 * np.linalg.norm(ga)
        gb = g @ wk.diffusion_symbol(cns_model.spec, xi)
        assert np.linalg.eigvalsh(0.5 * (gb + gb.T)).min() >= -1e-12 * np.linalg.norm(gb)


def test_change_of_variables_identity(cns_model):
    primed = wk.change_of_variables(cns_model.spec, np.eye(4))
    assert np.abs(primed.advection - cns_model.spec.advection).max() == 0.0
    assert np.abs(primed.quadratic - cns_model.spec.quadratic).max() <= 1e-15


def test_change_of_variables_scalar_conjugation(cns_model):
    c = 2.5
    primed = wk.change_of_variables(cns_model.spec, c * np.eye(4))
    assert np.allclose(primed.advection, cns_model.spec.advection, atol=1e-14)
    assert np.allclose(primed.entropy_hessian, c**2 * cns_model.spec.entropy_hessian)
    report = wk.validate_entropy_structure(primed)
    assert report.passed


def _well_conditioned(seed, n=4):
    rng = np.random.Generator(np.random.Philox(key=seed))
    mat = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return mat


@given(st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_change_of_variables_functorial(seed1, seed2):
    model = wk.build_preset("ideal-gas-2d")
    t1 = _well_conditioned(seed1)
    t2 = _well_conditioned(seed2)
    once = wk.change_of_variables(wk.change_of_variables(model.spec, t1), t2)
    combo = wk.change_of_variables(model.spec, t1 @ t2)
    # the two routes differ by the rounding of t1 @ t2 and of the inverses,
    # which the conditioning of the transforms amplifies
    bound = 4 * np.finfo(float).eps * np.linalg.cond(t1) * np.linalg.cond(t2)
    for name in ("advection", "diffusion", "quadratic", "entropy_hessian"):
        a, b = getattr(once, name), getattr(combo, name)
        assert np.abs(a - b).max() <= bound * max(1.0, np.abs(b).max())


def test_change_of_variables_rejects_singular(cns_model):
    bad = np.zeros((4, 4))
    with pytest.raises(np.linalg.LinAlgError):
        wk.change_of_variables(cns_model.spec, bad)


def test_spec_serialization_roundtrip(cns_model):
    import json

    payload = json.loads(json.dumps(wk.spec_to_dict(cns_model.spec)))
    back = wk.spec_from_dict(payload)
    for name in ("state", "advection", "diffusion", "quadratic", "entropy_hessian"):
        assert np.array_equal(getattr(back, name), getattr(cns_model.spec, name))
    assert back.labels == cns_model.spec.labels


def test_spec_shape_errors():
    with pytest.raises(SpecShapeError):
        wk.SystemSpec(1, 2, [0.0, 0.0], np.zeros((1, 3, 3)), np.zeros((1, 1, 2, 2)),
                      np.zeros((1, 2, 2, 2)), np.eye(2))
    asym_quad = np.zeros((1, 1, 1, 1))
    spec = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.0]]]], asym_quad, [[1.0]])
    assert spec.ncomp == 1
    bad_quad = np.zeros((1, 2, 2, 2))
    bad_quad[0, 0, 0, 1] = 1.0  # not symmetric in trailing indices
    with pytest.raises(SpecShapeError):
        wk.SystemSpec(1, 2, [0.0, 0.0], np.zeros((1, 2, 2)), np.zeros((1, 1, 2, 2)),
                      bad_quad, np.eye(2))
