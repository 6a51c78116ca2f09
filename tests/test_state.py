import numpy as np
import pytest

import wndkit as wk


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
    with pytest.raises(ValueError, match="different lattices"):
        wk.evolve_state(spectrum, 0.7, v)
    with pytest.raises(ValueError, match="different lattices"):
        wk.wcns_split(cns_model, spectrum, v)
