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

from conftest import entropic_system, mode_projectors, projectors


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
    spectrum = frequency_spectrum(cns_model.spec, FrequencyLattice(2, 1))
    dec = spectrum[(0, 0)]
    assert dec.nfreq == 1
    assert dec.frequencies[0] == 0.0
    assert np.array_equal(dec.basis, cns_model.spec.metric_sqrt()[1]) and not dec.branch.any()
    # one branch of every column, whose projector B B^T g = I; P0 there is the identity exactly
    assert np.abs(mode_projectors(spectrum, (0, 0))[0] - np.eye(4)).max() <= 1e-15
    assert np.array_equal(spectrum.null_projector[spectrum.lattice.zero_index()], np.eye(4))


def test_decompose_wave_pair(wave2_spec):
    spectrum = frequency_spectrum(wave2_spec, FrequencyLattice(1, 1))
    dec = spectrum[(1,)]
    assert np.allclose(sorted(dec.frequencies), [-1.0, 1.0])
    minus = mode_projectors(spectrum, (1,))[np.argmin(dec.frequencies)]
    plus = mode_projectors(spectrum, (1,))[np.argmax(dec.frequencies)]
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
        null_dim = round(float(np.trace(mode_projectors(spectrum, mode)[1])))
        assert null_dim == 2


def test_mode_decomposition_invariants(cns_model):
    spec = cns_model.spec
    g = spec.entropy_hessian
    spectrum = frequency_spectrum(spec, FrequencyLattice(2, 3))
    for mode in [(1, 0), (0, 2), (3, -1), (2, 2)]:
        dec, projs = spectrum[mode], mode_projectors(spectrum, mode)
        total = projs.sum(axis=0)
        assert np.abs(total - np.eye(4)).max() <= 1e-12
        for j, pj in enumerate(projs):
            assert np.abs(pj.T @ g - g @ pj).max() <= 1e-11
            for k, pk in enumerate(projs):
                expect = pj if j == k else np.zeros((4, 4))
                assert np.abs(pj @ pk - expect).max() <= 1e-11
        rebuilt = np.einsum("j,jpq->pq", dec.frequencies, projs)
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
    (frequencies, basis, branch) at one mode."""
    n = spec.ncomp
    root, inv_root = spec.metric_sqrt()
    if not any(mode):
        return np.zeros(1), inv_root, np.zeros(n, dtype=np.int64)
    sym = root @ wk.advection_symbol(spec, np.asarray(mode, dtype=float)) @ inv_root
    evals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    groups = _reference_cluster(evals)
    freqs = np.array([evals[g].mean() for g in groups])
    branch = np.empty(n, dtype=np.int64)
    for j, g in enumerate(groups):
        branch[g] = j
    return freqs, inv_root @ vecs, branch


def _reference_mirror(freqs, basis, branch):
    """The decomposition at -xi from the one at xi: a(-xi) = -a(xi) has the same eigenvectors, so the
    frequencies negated in reverse order (a zero stays +0.0), the basis columns in reverse order and
    each column's branch counted from the other end."""
    return np.array([0.0 if w == 0.0 else -w for w in freqs[::-1]]), basis[:, ::-1], len(freqs) - 1 - branch[::-1]


def _reference_projectors(spec, basis, branch):
    """p_j = B_j B_j^T g at one mode, (nfreq, N, N), from its basis and the branch of each column."""
    return np.stack([basis[:, branch == j] @ basis[:, branch == j].T @ spec.entropy_hessian
                     for j in range(branch.max() + 1)])


def _reference_spectrum(spec, lattice):
    """Every stacked Spectrum array, from _reference_decompose on the zero mode and the positive half,
    and from _reference_mirror of those on the modes before the zero mode."""
    decs = [_reference_decompose(spec, mode) for mode in lattice.modes[lattice.zero_index():]]
    decs = [_reference_mirror(*dec) for dec in decs[:0:-1]] + decs
    nfreq = np.array([len(dec[0]) for dec in decs])
    width = int(nfreq.max())
    frequencies = np.zeros((len(decs), width))
    for i, (freqs, _, _) in enumerate(decs):
        frequencies[i, : len(freqs)] = freqs
    scale = np.maximum(np.abs(frequencies).max(axis=1, keepdims=True), 1.0)
    null = (np.arange(width) < nfreq[:, None]) & (np.abs(frequencies) <= CLUSTER_TOL * scale)
    # a branch's label: 0 on a null branch, else the sign of its frequency; 0 on a padded one
    labels = np.zeros((len(decs), width), dtype=np.int8)
    for i, (freqs, _, _) in enumerate(decs):
        for j, omega in enumerate(freqs):
            labels[i, j] = 0 if null[i, j] else (1 if omega > 0 else -1)
    return {
        "frequencies": frequencies,
        "nfreq": nfreq,
        "null": null,
        "labels": labels,
        "basis": np.stack([dec[1] for dec in decs]),
        "branch": np.stack([dec[2] for dec in decs]),
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


SPECTRUM_SYSTEMS = ["ideal-gas-2d", "ideal-gas-1d", "wave2", "scalar", "change-of-variables", "ideal-gas-3d"]


@pytest.mark.parametrize("system", SPECTRUM_SYSTEMS)
def test_frequency_spectrum_matches_per_mode_reference(system, request):
    """The batched eigensolve and array clustering give the per-mode loop's arrays bit for bit on the
    zero mode and the positive half, and the reference's own mirror of them before the zero mode.
    There an independent eigensolve at -k agrees to roundoff: frequencies within 1e-14 of the mode's
    max(max|omega|, 1), projectors within 1e-14 of max(max|p_j|, 1)."""
    spec, lattice = _spectrum_system(system, request)
    spectrum = frequency_spectrum(spec, lattice)
    ref = _reference_spectrum(spec, lattice)
    for name, expected in ref.items():
        got = getattr(spectrum, name)
        assert got.shape == expected.shape and got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
        assert not got.flags.writeable, name
    for i, mode in enumerate(lattice.modes[: lattice.zero_index()]):
        freqs, basis, branch = _reference_decompose(spec, mode)
        scale = max(float(np.abs(freqs).max()), 1.0)
        assert len(freqs) == spectrum.nfreq[i]
        assert np.abs(spectrum.frequencies[i, : len(freqs)] - freqs).max() <= 1e-14 * scale, mode
        want = _reference_projectors(spec, basis, branch)
        got = _reference_projectors(spec, spectrum.basis[i], spectrum.branch[i])
        assert np.abs(got - want).max() <= 1e-14 * max(float(np.abs(want).max()), 1.0), mode
    for mode in (lattice.modes[0], lattice.modes[lattice.zero_index()], lattice.modes[-2]):
        dec, i = spectrum[mode], lattice.index(mode)
        assert dec.frequencies.tobytes() == ref["frequencies"][i, : ref["nfreq"][i]].tobytes()
        assert dec.basis.tobytes() == ref["basis"][i].tobytes() and dec.branch.tobytes() == ref["branch"][i].tobytes()


def _mirror_rows(spectrum, i):
    """Every stacked array's row at -xi, built from its row i at xi: the frequencies negated over the
    branches reversed with the padding kept last and +0.0, the basis columns reversed, the null mask
    and the labels reversed (the labels negated), each column's branch counted from the other end, and
    P0 unchanged."""
    n, width = int(spectrum.nfreq[i]), spectrum.frequencies.shape[1]
    order = np.r_[np.arange(n - 1, -1, -1), np.arange(n, width)]
    freqs = spectrum.frequencies[i, order]
    return {
        "frequencies": np.where(freqs == 0.0, 0.0, -freqs),
        "nfreq": spectrum.nfreq[i],
        "null": spectrum.null[i, order],
        "labels": -spectrum.labels[i, order],
        "basis": spectrum.basis[i][:, ::-1],
        "branch": n - 1 - spectrum.branch[i][::-1],
        "null_projector": spectrum.null_projector[i],
    }


@pytest.mark.parametrize(
    "system",
    SPECTRUM_SYSTEMS + [f"entropic-{dim}d-{seed}-{ncomp}" for dim, seed, ncomp in
                        ((2, 1, 4), (2, 2, 5), (3, 3, 4), (3, 4, 5))],
)
def test_spectrum_is_its_own_mirror(system, request):
    """At every mode but the zero mode, its own negation, each stacked array's row at -xi is the
    mirror of its row at xi, bit for bit: the six reference systems, and generated entropic systems
    of 4 and 5 components in 2-D (R=4) and 3-D (R=2), with kernels of rank 1 and 2."""
    if system.startswith("entropic"):
        _, dim, seed, ncomp = system.split("-")
        spec = entropic_system(int(seed), dim=int(dim[0]), ncomp=int(ncomp), kernel=1 + int(seed) % 2)
        lattice = FrequencyLattice(spec.dim, 4 if spec.dim == 2 else 2)
    else:
        spec, lattice = _spectrum_system(system, request)
    spectrum = frequency_spectrum(spec, lattice)
    zero = lattice.zero_index()
    assert spectrum.frequencies[zero].tobytes() == np.zeros(spectrum.frequencies.shape[1]).tobytes()
    for i in np.flatnonzero(np.arange(len(lattice)) != zero):
        for name, want in _mirror_rows(spectrum, i).items():
            got = np.asarray(getattr(spectrum, name)[lattice.negation[i]])
            assert got.dtype == np.asarray(want).dtype and got.tobytes() == np.asarray(want).tobytes(), (name, i)


@pytest.mark.parametrize("system", ["ideal-gas-2d", "ideal-gas-3d", "ideal-gas-1d", "wave2", "scalar"])
def test_spectrum_reports_how_close_its_decisions_came(system, request):
    """null_margin and cluster_margin from the per-mode loop: each mode's eigenvalues clustered
    one gap at a time, and its branches' frequencies, relative to the mode's scale."""
    spec, lattice = _spectrum_system(system, request)
    spectrum = frequency_spectrum(spec, lattice)
    root, inv_root = spec.metric_sqrt()
    null, other, spread, gap = [0.0], [np.inf], [0.0], [np.inf]
    for mode in lattice.modes:
        if any(mode):
            sym = root @ wk.advection_symbol(spec, np.asarray(mode, dtype=float)) @ inv_root
            evals = np.linalg.eigh(0.5 * (sym + sym.T))[0]
            scale = max(float(np.abs(evals).max()), 1.0)
            groups = _reference_cluster(evals)
            spread += [(evals[g[-1]] - evals[g[0]]) / scale for g in groups]
            gap += [(evals[h[0]] - evals[g[-1]]) / scale for g, h in zip(groups, groups[1:])]
        freqs = _reference_decompose(spec, mode)[0]
        scale = max(float(np.abs(freqs).max()), 1.0)
        for omega in freqs:
            (null if abs(omega) <= CLUSTER_TOL * scale else other).append(abs(omega) / scale)
    assert spectrum.null_margin == (max(null), min(other))
    assert spectrum.cluster_margin == (max(spread), min(gap))
    if system.startswith("ideal-gas"):  # the gas decides by 16 orders of magnitude either way
        assert max(null) < 1e-15 and max(spread) < 1e-15 and min(other) > 0.99 and min(gap) > 0.99


@pytest.mark.parametrize("dim, radius", [(2, 4), (3, 3)])
def test_null_projector_sums_the_null_branches(dim, radius):
    spectrum = frequency_spectrum(wk.build_preset(f"ideal-gas-{dim}d").spec, FrequencyLattice(dim, radius))
    p0, lattice = spectrum.null_projector, spectrum.lattice
    assert not p0.flags.writeable and spectrum.null_projector is p0
    # summed on the zero mode and the positive half and completed there, so P0(-xi) = P0(xi) bit for bit
    assert p0.tobytes() == lattice.complete(p0[lattice.zero_index():]).tobytes()
    summed = np.einsum("mj,mjpq->mpq", spectrum.null, projectors(spectrum))
    assert np.abs(p0 - summed).max() <= 1e-14
    # the identity at the zero mode, and the d-dimensional null space elsewhere
    assert np.array_equal(p0[spectrum.lattice.zero_index()], np.eye(dim + 2))
    ranks = np.rint(np.trace(p0, axis1=1, axis2=2)).astype(int)
    assert sorted(set(ranks.tolist())) == [dim, dim + 2]


def test_frequency_spectrum_cns_branch_count(cns_model, cns_ops4):
    spectrum = cns_ops4.spectrum
    lattice = cns_ops4.lattice
    assert spectrum.frequencies.shape == (len(lattice), 3)
    assert spectrum.basis.shape == (len(lattice), 4, 4) and spectrum.branch.shape == (len(lattice), 4)
    for i, mode in enumerate(lattice):
        dec = spectrum[mode]
        expected = 1 if mode == (0, 0) else 3
        assert dec.nfreq == expected
        assert spectrum.nfreq[i] == expected
        # stacked rows are the per-mode reference decomposition on the zero mode and the positive
        # half, and its mirror before the zero mode, bit for bit
        if i >= lattice.zero_index():
            freqs, basis, branch = _reference_decompose(cns_model.spec, mode)
        else:
            freqs, basis, branch = _reference_mirror(*_reference_decompose(cns_model.spec, tuple(-c for c in mode)))
        assert spectrum.frequencies[i, :expected].tobytes() == freqs.tobytes()
        assert spectrum.basis[i].tobytes() == basis.tobytes() and spectrum.branch[i].tobytes() == branch.tobytes()
        # padded branches are exactly zero, and hold no column
        assert not spectrum.frequencies[i, expected:].any()
        assert (spectrum.branch[i] < expected).all()
        # the per-mode view serves the same arrays
        assert dec.mode == mode
        assert np.shares_memory(dec.frequencies, spectrum.frequencies)
        assert np.array_equal(dec.frequencies, spectrum.frequencies[i, :expected])
        assert np.shares_memory(dec.basis, spectrum.basis) and np.shares_memory(dec.branch, spectrum.branch)
    for outside in ((9, 0), (0,)):
        with pytest.raises(KeyError):
            spectrum[outside]


def test_reality_pairing(cns_model):
    spectrum = frequency_spectrum(cns_model.spec, FrequencyLattice(2, 3))
    for mode in [(1, 0), (2, -1), (3, 3)]:
        dec_p = spectrum[mode]
        dec_m = spectrum[tuple(-c for c in mode)]
        proj_p, proj_m = mode_projectors(spectrum, mode), mode_projectors(spectrum, tuple(-c for c in mode))
        assert np.allclose(sorted(dec_m.frequencies), sorted(-dec_p.frequencies), atol=1e-11)
        for j, freq in enumerate(dec_p.frequencies):
            match = np.argmin(np.abs(dec_m.frequencies + freq))
            assert np.abs(proj_m[match] - proj_p[j].conj()).max() <= 1e-11


def test_conjugation_covariance(cns_model):
    rng = np.random.Generator(np.random.Philox(key=12))
    transform = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    primed = wk.change_of_variables(cns_model.spec, transform)
    lat = FrequencyLattice(2, 2)
    spectrum, spectrum_p = frequency_spectrum(cns_model.spec, lat), frequency_spectrum(primed, lat)
    for mode in [(1, 0), (2, 1)]:
        dec = spectrum[mode]
        dec_p = spectrum_p[mode]
        proj, proj_p = mode_projectors(spectrum, mode), mode_projectors(spectrum_p, mode)
        assert np.allclose(sorted(dec.frequencies), sorted(dec_p.frequencies), atol=1e-10)
        inv = np.linalg.inv(transform)
        for j, freq in enumerate(dec.frequencies):
            match = np.argmin(np.abs(dec_p.frequencies - freq))
            conjugated = inv @ proj[j] @ transform
            scale = max(1.0, np.abs(conjugated).max())
            assert np.abs(proj_p[match] - conjugated).max() <= 1e-9 * scale


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
