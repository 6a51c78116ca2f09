import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wndkit as wk
from wndkit.spectral import (
    CLUSTER_TOL,
    FrequencyLattice,
    convolution_pair_count,
    frequency_spectrum,
)


def _one_mode_state(lattice, mode, vec):
    state = wk.zero_state(lattice, len(vec))
    state.coeffs[lattice.index(mode)] = vec
    return state


def test_lattice_negation_closure_and_order():
    lat = FrequencyLattice(2, 2)
    assert len(lat) == 25
    for i, mode in enumerate(lat):
        neg = tuple(-c for c in mode)
        assert lat.modes[lat.negation[i]] == neg
        assert lat.index(mode) == i
    assert list(lat)[:3] == [(-2, -2), (-2, -1), (-2, 0)]  # lexicographic


def _convolution_pairs_reference(lat):
    """The pairs by a loop over k: every l with k + l in the box, sorted stably by m."""
    arr = lat.array
    pk, pl, pm = [], [], []
    for ki in range(len(lat)):
        ksum = arr + arr[ki]
        li = np.flatnonzero(np.abs(ksum).max(axis=1) <= lat.radius)
        pk.append(np.full(li.size, ki, dtype=np.int64))
        pl.append(li.astype(np.int64))
        pm.append(lat.index_array(ksum[li]))
    order = np.argsort(np.concatenate(pm), kind="stable")
    pk, pl, pm = (np.concatenate(p)[order] for p in (pk, pl, pm))
    seg = np.flatnonzero(np.r_[True, np.diff(pm) > 0])
    return pk, pl, pm, seg, pm[seg]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", range(7))
def test_convolution_pairs_match_loop_reference(dim, radius):
    lat = FrequencyLattice(dim, radius)
    got = lat.convolution_pairs()
    ref = _convolution_pairs_reference(lat)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert convolution_pair_count(dim, radius) == len(got[0])


def test_lattice_rejects_outside_mode():
    lat = FrequencyLattice(2, 1)
    with pytest.raises(KeyError):
        lat.index((2, 0))


def test_lattice_refuses_fractional_modes():
    lat = FrequencyLattice(2, 3)
    assert not lat.contains((1.9, 0)) and not lat.contains((1, 0.5))
    for mode in ((1.9, 0), (1, 0.5), (float("nan"), 0), (10**400, 0)):
        with pytest.raises(KeyError):
            lat.index(mode)
    # integral floats and NumPy integers name their mode
    assert lat.contains((1.0, -2.0)) and lat.index((1.0, -2.0)) == lat.index((1, -2))
    assert lat.index((np.int64(1), np.int32(-2))) == lat.index((1, -2))
    assert not lat.contains((4.0, 0))


def test_lattices_compare_by_dim_and_radius():
    lat = FrequencyLattice(2, 3)
    assert lat == FrequencyLattice(2, 3) and lat is not FrequencyLattice(2, 3)
    assert lat != FrequencyLattice(2, 2) and lat != FrequencyLattice(3, 3)
    with pytest.raises(TypeError):
        hash(lat)


@pytest.mark.parametrize("dim, radius", [(1, 0), (1, 3), (2, 2), (3, 1)])
def test_lattice_upper_is_the_positive_half(dim, radius):
    lat = FrequencyLattice(dim, radius)
    zero = lat.zero_index()
    assert lat.upper.tolist() == list(range(zero + 1, len(lat)))
    # the positive half and its mirrors partition the nonzero modes
    halves = np.sort(np.concatenate([lat.upper, lat.negation[lat.upper]]))
    assert halves.tolist() == [i for i in range(len(lat)) if i != zero]
    assert all(lat.modes[i] > (0,) * dim for i in lat.upper)  # lexicographically positive
    assert not lat.upper.flags.writeable


@pytest.mark.parametrize("dim, radius", [(1, 0), (1, 3), (2, 0), (2, 2), (3, 0), (3, 1)])
def test_lattice_mirror_is_the_conjugated_negation(dim, radius):
    lat = FrequencyLattice(dim, radius)
    rng = np.random.default_rng(10 * dim + radius)
    for shape in ((len(lat), 3), (len(lat), 3, 3)):
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mirrored = lat.mirror(values)
        assert mirrored.shape == values.shape
        assert mirrored.tobytes() == values[lat.negation].conj().tobytes()
        assert not np.shares_memory(lat.mirror(values.real), values)  # a new array, as for complex values
        # a reality-symmetric array is the completion of its zero mode and positive half
        symmetric = 0.5 * (values + mirrored)
        assert np.array_equal(lat.complete(symmetric[lat.zero_index():]), symmetric)


def test_decompose_zero_mode(cns_model):
    dec = frequency_spectrum(cns_model.spec, FrequencyLattice(2, 1))[(0, 0)]
    assert dec.nfreq == 1
    assert dec.frequencies[0] == 0.0
    assert np.array_equal(dec.projectors[0], np.eye(4))


def test_decompose_wave_pair(wave2_spec):
    dec = frequency_spectrum(wave2_spec, FrequencyLattice(1, 1))[(1,)]
    assert np.allclose(sorted(dec.frequencies), [-1.0, 1.0])
    minus = dec.projectors[np.argmin(dec.frequencies)]
    plus = dec.projectors[np.argmax(dec.frequencies)]
    assert np.allclose(plus, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-12)
    assert np.allclose(minus, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-12)


def test_decompose_cns_three_branches(cns_model):
    c0 = cns_model.sound
    spectrum = frequency_spectrum(cns_model.spec, FrequencyLattice(2, 4))
    for mode in [(1, 0), (2, 1), (-3, 4)]:
        dec = spectrum[mode]
        assert dec.nfreq == 3
        norm = np.linalg.norm(mode)
        assert np.allclose(sorted(dec.frequencies), [-c0 * norm, 0.0, c0 * norm], atol=1e-9)
        null_dim = round(float(np.trace(dec.projectors[1])))
        assert null_dim == 2


def test_mode_decomposition_invariants(cns_model):
    spec = cns_model.spec
    g = spec.entropy_hessian
    spectrum = frequency_spectrum(spec, FrequencyLattice(2, 3))
    for mode in [(1, 0), (0, 2), (3, -1), (2, 2)]:
        dec = spectrum[mode]
        total = dec.projectors.sum(axis=0)
        assert np.abs(total - np.eye(4)).max() <= 1e-12
        for j, pj in enumerate(dec.projectors):
            assert np.abs(pj.T @ g - g @ pj).max() <= 1e-11
            for k, pk in enumerate(dec.projectors):
                expect = pj if j == k else np.zeros((4, 4))
                assert np.abs(pj @ pk - expect).max() <= 1e-11
        rebuilt = np.einsum("j,jpq->pq", dec.frequencies, dec.projectors)
        target = wk.advection_symbol(spec, np.asarray(mode, dtype=float))
        assert np.abs(rebuilt - target).max() <= 1e-11 * max(1.0, np.abs(target).max())


def test_evolve_group_identity_and_closed_form(wave2_spec):
    lat = FrequencyLattice(1, 1)
    spectrum = frequency_spectrum(wave2_spec, lat)
    w = _one_mode_state(lat, (1,), np.array([1.0, 0.0]))
    assert np.allclose(wk.evolve_state(spectrum, 0.0, w).coeffs, w.coeffs)
    out = wk.evolve_state(spectrum, np.pi / 2.0, w)
    assert np.allclose(out.coeff((1,)), [0.0, -1.0j], atol=1e-12)
    assert not out.coeff((0,)).any() and not out.coeff((-1,)).any()


@given(st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=40, deadline=None)
def test_evolve_group_law(t, s):
    model = wk.build_preset("ideal-gas-2d")
    lat = FrequencyLattice(2, 2)
    spectrum = frequency_spectrum(model.spec, lat)
    w = _one_mode_state(lat, (2, 1), np.array([0.3, -0.2, 0.5, 0.1], dtype=complex))
    once = wk.evolve_state(spectrum, t, wk.evolve_state(spectrum, s, w)).coeffs
    combined = wk.evolve_state(spectrum, t + s, w).coeffs
    assert np.abs(once - combined).max() <= 1e-12 * max(1.0, np.abs(combined).max())


def test_evolve_group_isometry(cns_model):
    lat = FrequencyLattice(2, 3)
    spectrum = frequency_spectrum(cns_model.spec, lat)
    rng = np.random.Generator(np.random.Philox(key=8))
    w = _one_mode_state(lat, (3, -2), rng.standard_normal(4) + 1j * rng.standard_normal(4))
    ref = wk.energy_norm(cns_model.spec, w)
    for t in (-1e3, -1.7, 0.33, 250.0, 1e3):
        out = wk.evolve_state(spectrum, t, w)
        assert wk.energy_norm(cns_model.spec, out) == pytest.approx(ref, rel=1e-12)


def test_frequency_spectrum_radius_zero(cns_model):
    lat = FrequencyLattice(2, 0)
    spectrum = frequency_spectrum(cns_model.spec, lat)
    assert spectrum.nfreq.tolist() == [1] and spectrum.frequencies.shape == (1, 1)
    assert spectrum[(0, 0)].mode == (0, 0)


def test_frequency_spectrum_scalar_advection():
    spec = wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.0]]]], [[[[0.0]]]], [[1.0]])
    spectrum = frequency_spectrum(spec, FrequencyLattice(1, 2))
    assert spectrum.nfreq.tolist() == [1] * 5
    assert np.allclose(sorted(spectrum.frequencies[:, 0]), [-2, -1, 0, 1, 2])


def _reference_cluster(eigenvalues):
    scale = max(float(np.abs(eigenvalues).max()), 1.0) if eigenvalues.size else 1.0
    groups = []
    start = 0
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[i - 1] > CLUSTER_TOL * scale:
            groups.append(np.arange(start, i))
            start = i
    groups.append(np.arange(start, len(eigenvalues)))
    return groups


def _reference_decompose(spec, mode):
    """The per-mode eigensolve and clustering loop the stacked spectrum replaced:
    (frequencies, projectors, basis, branch) at one mode."""
    n = spec.ncomp
    root, inv_root = spec.metric_sqrt()
    if not any(mode):
        return np.zeros(1), np.eye(n)[None, :, :], inv_root, np.zeros(n, dtype=np.int64)
    sym = root @ wk.advection_symbol(spec, np.asarray(mode, dtype=float)) @ inv_root
    evals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    groups = _reference_cluster(evals)
    freqs = np.array([evals[g].mean() for g in groups])
    projs = np.empty((len(groups), n, n))
    branch = np.empty(n, dtype=np.int64)
    for j, g in enumerate(groups):
        block = vecs[:, g]
        projs[j] = inv_root @ (block @ block.T) @ root
        branch[g] = j
    return freqs, projs, inv_root @ vecs, branch


def _reference_spectrum(spec, lattice):
    """Every Spectrum array, stacked from _reference_decompose mode by mode."""
    decs = [_reference_decompose(spec, mode) for mode in lattice]
    nfreq = np.array([len(dec[0]) for dec in decs])
    width = int(nfreq.max())
    frequencies = np.zeros((len(decs), width))
    projectors = np.zeros((len(decs), width, spec.ncomp, spec.ncomp))
    for i, (freqs, projs, _, _) in enumerate(decs):
        frequencies[i, : len(freqs)] = freqs
        projectors[i, : len(freqs)] = projs
    scale = np.maximum(np.abs(frequencies).max(axis=1, keepdims=True), 1.0)
    null = (np.arange(width) < nfreq[:, None]) & (np.abs(frequencies) <= CLUSTER_TOL * scale)
    return {
        "frequencies": frequencies,
        "projectors": projectors,
        "nfreq": nfreq,
        "null": null,
        "basis": np.stack([dec[2] for dec in decs]),
        "branch": np.stack([dec[3] for dec in decs]),
    }


def _spectrum_system(name, request):
    if name == "wave2":
        return request.getfixturevalue("wave2_spec"), FrequencyLattice(1, 4)
    if name == "scalar":
        return request.getfixturevalue("scalar_spec"), FrequencyLattice(1, 4)
    if name == "ideal-gas-1d":
        return wk.build_preset("ideal-gas-1d").spec, FrequencyLattice(1, 8)
    if name == "ideal-gas-3d":  # a null cluster of three eigenvalues
        return wk.build_preset("ideal-gas-3d").spec, FrequencyLattice(3, 2)
    spec = request.getfixturevalue("cns_model").spec
    if name == "change-of-variables":
        rng = np.random.Generator(np.random.Philox(key=12))
        spec = wk.change_of_variables(spec, np.eye(4) + 0.2 * rng.standard_normal((4, 4)))
    return spec, FrequencyLattice(2, 4)


@pytest.mark.parametrize(
    "system", ["ideal-gas-2d", "ideal-gas-1d", "wave2", "scalar", "change-of-variables", "ideal-gas-3d"]
)
def test_frequency_spectrum_matches_per_mode_reference(system, request):
    """The batched eigensolve and array clustering give the per-mode loop's arrays bit for bit."""
    spec, lattice = _spectrum_system(system, request)
    spectrum = frequency_spectrum(spec, lattice)
    ref = _reference_spectrum(spec, lattice)
    for name, expected in ref.items():
        got = getattr(spectrum, name)
        assert got.shape == expected.shape and got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
    for mode in (lattice.modes[0], lattice.modes[lattice.zero_index()], lattice.modes[-2]):
        dec = spectrum[mode]
        freqs, projs, basis, branch = _reference_decompose(spec, mode)
        assert dec.frequencies.tobytes() == freqs.tobytes() and dec.projectors.tobytes() == projs.tobytes()
        assert dec.basis.tobytes() == basis.tobytes() and dec.branch.tobytes() == branch.tobytes()


@pytest.mark.parametrize("dim, radius", [(2, 4), (3, 3)])
def test_null_projector_sums_the_null_branches(dim, radius):
    spectrum = frequency_spectrum(wk.build_preset(f"ideal-gas-{dim}d").spec, FrequencyLattice(dim, radius))
    p0, lattice = spectrum.null_projector, spectrum.lattice
    assert not p0.flags.writeable
    # summed on the zero mode and the positive half and completed there, so P0(-xi) = P0(xi) bit for bit;
    # the sum on the negative half differs by roundoff
    summed = np.einsum("mj,mjpq->mpq", spectrum.null, spectrum.projectors)
    expected = lattice.complete(summed[lattice.zero_index():])
    assert p0.shape == expected.shape and p0.tobytes() == expected.tobytes()
    assert np.abs(p0 - summed).max() <= 1e-14
    # the identity at the zero mode, and the d-dimensional null space elsewhere
    assert np.array_equal(p0[spectrum.lattice.zero_index()], np.eye(dim + 2))
    ranks = np.rint(np.trace(p0, axis1=1, axis2=2)).astype(int)
    assert sorted(set(ranks.tolist())) == [dim, dim + 2]


def test_frequency_spectrum_cns_branch_count(cns_model, cns_ops4):
    spectrum = cns_ops4.spectrum
    assert spectrum.frequencies.shape == (len(cns_ops4.lattice), 3)
    assert spectrum.projectors.shape == (len(cns_ops4.lattice), 3, 4, 4)
    for i, mode in enumerate(cns_ops4.lattice):
        dec = spectrum[mode]
        expected = 1 if mode == (0, 0) else 3
        assert dec.nfreq == expected
        assert spectrum.nfreq[i] == expected
        # stacked rows are the per-mode reference decomposition, bit for bit
        freqs, projs, _, _ = _reference_decompose(cns_model.spec, mode)
        assert spectrum.frequencies[i, :expected].tobytes() == freqs.tobytes()
        assert spectrum.projectors[i, :expected].tobytes() == projs.tobytes()
        # padded branches are exactly zero
        assert not spectrum.frequencies[i, expected:].any()
        assert not spectrum.projectors[i, expected:].any()
        # the per-mode view serves the same arrays
        assert dec.mode == mode
        assert np.shares_memory(dec.frequencies, spectrum.frequencies)
        assert np.array_equal(dec.frequencies, spectrum.frequencies[i, :expected])
        assert np.array_equal(dec.projectors, spectrum.projectors[i, :expected])
    for outside in ((9, 0), (0,)):
        with pytest.raises(KeyError):
            spectrum[outside]


def test_reality_pairing(cns_model):
    spectrum = frequency_spectrum(cns_model.spec, FrequencyLattice(2, 3))
    for mode in [(1, 0), (2, -1), (3, 3)]:
        dec_p = spectrum[mode]
        dec_m = spectrum[tuple(-c for c in mode)]
        assert np.allclose(sorted(dec_m.frequencies), sorted(-dec_p.frequencies), atol=1e-11)
        for j, freq in enumerate(dec_p.frequencies):
            match = np.argmin(np.abs(dec_m.frequencies + freq))
            assert np.abs(dec_m.projectors[match] - dec_p.projectors[j].conj()).max() <= 1e-11


def test_conjugation_covariance(cns_model):
    rng = np.random.Generator(np.random.Philox(key=12))
    transform = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    primed = wk.change_of_variables(cns_model.spec, transform)
    lat = FrequencyLattice(2, 2)
    spectrum, spectrum_p = frequency_spectrum(cns_model.spec, lat), frequency_spectrum(primed, lat)
    for mode in [(1, 0), (2, 1)]:
        dec = spectrum[mode]
        dec_p = spectrum_p[mode]
        assert np.allclose(sorted(dec.frequencies), sorted(dec_p.frequencies), atol=1e-10)
        inv = np.linalg.inv(transform)
        for j, freq in enumerate(dec.frequencies):
            match = np.argmin(np.abs(dec_p.frequencies - freq))
            conjugated = inv @ dec.projectors[j] @ transform
            scale = max(1.0, np.abs(conjugated).max())
            assert np.abs(dec_p.projectors[match] - conjugated).max() <= 1e-9 * scale


def test_spectrum_csv_rows(cns_ops4):
    spectrum = cns_ops4.spectrum
    rows = list(wk.spectral.spectrum_csv_rows(spectrum))
    assert len(rows) == spectrum.nfreq.sum()
    assert all(len(r) == 5 for r in rows)  # 2 mode components, index, omega, rank
    # the rows of each mode, in lattice order: its branches in order, and ranks summing to N
    expected = [(mode, j) for i, mode in enumerate(cns_ops4.lattice) for j in range(spectrum.nfreq[i])]
    assert [(tuple(r[:2]), r[2]) for r in rows] == expected
    assert [r[3] for r in rows] == [float(spectrum.frequencies[spectrum.lattice.index(m), j]) for m, j in expected]
    ranks = np.add.reduceat([r[4] for r in rows], np.cumsum(spectrum.nfreq) - spectrum.nfreq)
    assert (ranks == 4).all()
