import dataclasses

import numpy as np
import pytest

import wndkit as wk
from wndkit.state import REALITY_TOL, is_reality_symmetric, require_reality


def test_state_from_modes_refuses_complex_zero_mode():
    # the zero mode is its own mirror: a real coefficient there is kept, an imaginary part refused, not dropped
    lat = wk.FrequencyLattice(2, 3)
    w = wk.state_from_modes(lat, 2, [((0, 0), [1.0, -2.0]), ((1, 2), [0.5j, 1.0 + 0.25j])])
    assert np.array_equal(w.coeff((0, 0)), [1.0, -2.0]) and wk.state.is_reality_symmetric(w)
    with pytest.raises(ValueError, match=r"mode \[0, 0\] is its own mirror"):
        wk.state_from_modes(lat, 1, [((0, 0), [1.0 + 0.5j])])


def test_state_from_modes_refuses_fractional_modes():
    # a fractional component names no mode: it is refused, not truncated onto (1, 0)
    lat = wk.FrequencyLattice(2, 3)
    with pytest.raises(KeyError):
        wk.state_from_modes(lat, 1, [((1.9, 0), [1.0])])
    w = wk.state_from_modes(lat, 1, [((1.0, 0.0), [1.0])])
    assert w.coeff((1, 0)).tolist() == [1.0] and w.coeff((-1, 0)).tolist() == [1.0]


def test_lattices_equal_by_value_share_states(cns_model):
    lat, same, other = wk.FrequencyLattice(2, 2), wk.FrequencyLattice(2, 2), wk.FrequencyLattice(2, 3)
    spectrum = wk.frequency_spectrum(cns_model.spec, lat)
    w = wk.random_real_state(same, 4, seed=5)
    assert wk.inner_product(cns_model.spec, wk.random_real_state(lat, 4, seed=5), w) == wk.inner_product(
        cns_model.spec, w, w
    )
    assert np.array_equal(wk.evolve_state(spectrum, 0.7, w).coeffs, wk.evolve_state(spectrum, 0.7, w.copy()).coeffs)
    v = wk.random_real_state(other, 4, seed=5)
    with pytest.raises(ValueError, match="different lattices"):
        wk.inner_product(cns_model.spec, w, v)
    with pytest.raises(ValueError, match=r"radius=3\) does not fit a spectrum of 4 components on .*radius=2\)"):
        wk.evolve_state(spectrum, 0.7, v)
    with pytest.raises(ValueError, match=r"radius=3\) does not fit a spectrum of 4 components on .*radius=2\)"):
        wk.wcns_split(cns_model, spectrum, v)


FIT_ENTRIES = {
    "qbar": lambda model, ops, w, real: wk.apply_averaged_quadratic(ops.spec, ops.spectrum, ops.table, real, w),
    "cyclic_residual": lambda model, ops, w, real: wk.cyclic_residual(ops.spec, ops.spectrum, ops.table, w, real, real),
    "wcns_split": lambda model, ops, w, real: wk.wcns_split(model, ops.spectrum, w),
    "evolve_state": lambda model, ops, w, real: wk.evolve_state(ops.spectrum, 0.7, w),
}


@pytest.mark.parametrize("entry", sorted(FIT_ENTRIES))
def test_entries_refuse_a_state_with_other_components_by_name(cns_model, cns_ops4, entry):
    # a 5-component state on the 4-component gas's lattice is named at the entry, not left to a numpy shape error
    real = wk.random_real_state(cns_ops4.lattice, 4, seed=5)
    w = wk.random_real_state(cns_ops4.lattice, 5, seed=5)
    with pytest.raises(ValueError, match=r"a state of 5 components on .*radius=4\) does not fit "
                                         r"(a resonance table|a spectrum) of 4 components on .*radius=4\)"):
        FIT_ENTRIES[entry](cns_model, cns_ops4, w, real)


FIT_CHECKS = {
    "energy_norm": lambda spec, avg, w: wk.energy_norm(spec, w),
    "sobolev_norm": lambda spec, avg, w: wk.sobolev_norm(spec, w, 1.0),
    "inner_product": lambda spec, avg, w: wk.inner_product(spec, w, w),
    "apply_averaged_diffusion": lambda spec, avg, w: wk.apply_averaged_diffusion(avg, w),
    "apply_quadratic": lambda spec, avg, w: wk.apply_quadratic(spec, w, w),
}


@pytest.mark.parametrize("check", sorted(FIT_CHECKS))
def test_norms_and_operators_refuse_a_state_with_other_components_by_name(cns_model, check):
    # on the 2-D gas at R=2 a 5-component state once failed inside einsum with a broadcast error
    lat = wk.FrequencyLattice(2, 2)
    avg = wk.averaged_diffusion(wk.frequency_spectrum(cns_model.spec, lat))
    w = wk.random_real_state(lat, 5, seed=5)
    with pytest.raises(ValueError, match=r"a state of 5 components on .*radius=2\) does not fit "
                                         r"(a spec|an averaged diffusion) of 4 components on .*radius=2\)"):
        FIT_CHECKS[check](cns_model.spec, avg, w)


def test_averaged_diffusion_refuses_a_state_on_another_lattice_of_as_many_modes(cns_model):
    # FrequencyLattice(1, 12) has the 25 modes of the 2-D lattice of radius 2: its state was once
    # answered with the 2-D blocks, and numbers came back on the 1-D lattice
    avg = wk.averaged_diffusion(wk.frequency_spectrum(cns_model.spec, wk.FrequencyLattice(2, 2)))
    w = wk.random_real_state(wk.FrequencyLattice(1, 12), 4, seed=5)
    with pytest.raises(ValueError, match=r"a state of 4 components on FrequencyLattice\(dim=1, radius=12\) does not "
                                         r"fit an averaged diffusion of 4 components on FrequencyLattice\(dim=2, radius=2\)"):
        wk.apply_averaged_diffusion(avg, w)


def test_a_state_is_a_field_and_the_operators_return_fields(cns_ops4):
    # a state carries no clock: the time of a simulate snapshot is its DiagnosticsSeries.times entry
    assert [f.name for f in dataclasses.fields(wk.SpectralState)] == ["lattice", "coeffs"]
    w = wk.random_real_state(cns_ops4.lattice, 4, seed=5, decay=2.0, amplitude=0.1)
    outputs = {
        "step": wk.step(cns_ops4, w, 1e-3),
        "evolve_state": wk.evolve_state(cns_ops4.spectrum, 0.7, w),
        "qbar": wk.apply_averaged_quadratic(cns_ops4.spec, cns_ops4.spectrum, cns_ops4.table, w, w),
    }
    for name, out in outputs.items():
        assert type(out) is wk.SpectralState and set(vars(out)) == {"lattice", "coeffs"}, name


@pytest.mark.parametrize("name, radius", [("ideal-gas-1d", 6), ("ideal-gas-2d", 4), ("ideal-gas-3d", 2)])
def test_split_and_evolution_of_a_real_state_are_bitwise_real(name, radius):
    # P0 and the group's per-mode operator are completed by the mirror, so no roundoff breaks reality
    model = wk.build_preset(name)
    lat = wk.FrequencyLattice(model.spec.dim, radius)
    spectrum = wk.frequency_spectrum(model.spec, lat)
    w = wk.random_real_state(lat, model.spec.ncomp, seed=17, decay=2.0)
    slow, fast = wk.wcns_split(model, spectrum, w)
    assert is_reality_symmetric(slow) and is_reality_symmetric(fast)
    for t in (0.37, -2.2, 1e3):
        assert is_reality_symmetric(wk.evolve_state(spectrum, t, w)), t


def test_reality_gate_projects_a_roundoff_defect_on_a_copy():
    lat = wk.FrequencyLattice(2, 3)
    w = wk.random_real_state(lat, 4, seed=5)
    assert require_reality(w) is w
    zero_mode, corner = w.copy(), w.copy()
    zero_mode.coeffs[lat.zero_index()] += 1e-17j
    corner.coeffs[lat.upper[-1]] += 1e-17
    for noisy in (zero_mode, corner):
        assert not is_reality_symmetric(noisy)
        before = noisy.coeffs.copy()
        got = require_reality(noisy)
        assert got is not noisy and got.coeffs.tobytes() == wk.enforce_reality(noisy.copy()).coeffs.tobytes()
        assert is_reality_symmetric(got) and noisy.coeffs.tobytes() == before.tobytes()
    far = w.copy()
    far.coeffs[lat.upper[-1]] += 10 * REALITY_TOL * np.abs(w.coeffs).max()
    with pytest.raises(ValueError, match="mirror defect"):
        require_reality(far)
