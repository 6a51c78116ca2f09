import dataclasses

import numpy as np
import pytest
import scipy.linalg

import wndkit as wk
from wndkit import averaging
from wndkit.averaging import (
    _CompiledQuadratic,
    apply_averaged_quadratic,
    apply_quadratic,
    averaged_diffusion_oracle,
    build_resonance_table,
    cyclic_residual,
    quadratic_time_average_oracle,
)
from wndkit.navier_stokes import acoustic_sum_resonant, wcns_split
from wndkit.spectral import convolution_pair_count
from wndkit.state import is_reality_symmetric

from conftest import entropic_system, mode_projectors, projectors, state_diff_norm


@pytest.fixture(scope="module")
def wave2_ops(wave2_spec):
    return wk.build_operators(wave2_spec, wk.FrequencyLattice(1, 4), with_quadratic=False)


@pytest.fixture(scope="module")
def scalar_ops(scalar_spec):
    return wk.build_operators(scalar_spec, wk.FrequencyLattice(1, 8))


@pytest.fixture(scope="module")
def coupled_wave():
    """Wave pair with the entropic quadratic flux (u1 u2, (u1^2 + u2^2)/2)."""
    adv = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    dif = np.zeros((1, 1, 2, 2))
    dif[0, 0] = np.diag([0.5, 0.1])
    quad = np.zeros((1, 2, 2, 2))
    quad[0, 0] = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    quad[0, 1] = 0.5 * np.eye(2)
    spec = wk.SystemSpec(1, 2, [0.0, 0.0], adv, dif, quad, np.eye(2))
    ops = wk.build_operators(spec, wk.FrequencyLattice(1, 3))
    return spec, ops


def test_averaged_diffusion_commuting_case(scalar_ops, scalar_spec):
    for mode in [(1,), (2,), (-3,)]:
        assert scalar_ops.avg.block(mode)[0, 0] == pytest.approx(-0.3 * mode[0] ** 2)


def test_averaged_diffusion_wave_blocks(wave2_ops):
    for xi in (1, 2, 3, 4):
        blk = wave2_ops.avg.block((xi,))
        assert np.abs(blk - (-0.5 * xi**2) * np.eye(2)).max() <= 1e-12 * xi**2


def test_averaged_diffusion_zero_cases(cns_model):
    euler = wk.build_cns_spec(cns_model.eos, wk.TransportCoefficients(0, 0, 0, 3), 1.0, 1.0, 2)
    lat = wk.FrequencyLattice(2, 2)
    ops = wk.build_operators(euler, lat, with_quadratic=False)
    assert np.abs(ops.avg.blocks).max() == 0.0


def test_averaged_diffusion_invariants(cns_ops4, cns_model):
    g = cns_model.spec.entropy_hessian
    avg = cns_ops4.avg
    lat = avg.lattice
    assert np.abs(avg.block((0, 0))).max() == 0.0
    for i, mode in enumerate(lat):
        if mode == (0, 0):
            continue
        gd = g @ avg.blocks[i]
        scale = max(np.linalg.norm(gd), 1e-30)
        assert np.abs(gd - gd.conj().T).max() <= 1e-11 * scale
        assert np.linalg.eigvalsh(0.5 * (gd + gd.conj().T)).max() <= 1e-11 * scale
        for pj in mode_projectors(cns_ops4.spectrum, mode):
            assert np.abs(avg.blocks[i] @ pj - pj @ avg.blocks[i]).max() <= 1e-10 * scale
        assert np.abs(avg.blocks[lat.negation[i]] - avg.blocks[i].conj()).max() <= 1e-11 * scale


def test_oracle_commuting_equals_block(scalar_spec):
    oracle = averaged_diffusion_oracle(scalar_spec, [2.0], t_span=5.0, n_steps=200)
    assert oracle[0, 0] == pytest.approx(-1.2, abs=1e-12)


def test_oracle_wave_convergence(wave2_spec):
    target = -0.5 * np.eye(2)
    errs = []
    for t_span in (1e2, 1e3):
        oracle = averaged_diffusion_oracle(wave2_spec, [1.0], t_span, int(t_span / 0.01))
        errs.append(np.abs(oracle - target).max())
    assert errs[0] <= 5e-2 and errs[1] <= errs[0] / 3.0  # roughly C / T


def _sequential_diffusion_average(spec, xi, t_span, n_steps):
    """Two-sided trapezoid average of e^{i t a} (-b) e^{-i t a}, node by node, from its own symbols and propagators."""
    xi = np.asarray(xi, dtype=float)
    a = np.einsum("k,kpq->pq", xi, spec.advection)
    b = np.einsum("k,l,klpq->pq", xi, xi, spec.diffusion)
    dt = t_span / n_steps
    total = np.zeros(a.shape, dtype=complex)
    for sign in (1.0, -1.0):  # t >= 0, then t <= 0
        fwd_step, back_step = scipy.linalg.expm(sign * 1j * dt * a), scipy.linalg.expm(-sign * 1j * dt * a)
        fwd = back = np.eye(len(a), dtype=complex)
        for j in range(n_steps + 1):
            weight = 0.5 * dt if j in (0, n_steps) else dt
            total += weight * (fwd @ -b @ back)
            fwd, back = fwd @ fwd_step, back_step @ back
    return total / (2.0 * t_span)


@pytest.mark.parametrize("n_steps", [100, 777, 1024, 4097])
@pytest.mark.parametrize("system, xi", [("wave2", [1.0]), ("ideal-gas-2d", [2.0, 1.0])])
def test_diffusion_oracle_doubling_matches_sequential_sum(system, xi, n_steps, request):
    # odd, even and power-of-two node counts exercise every digit pattern of the doubling
    spec = request.getfixturevalue("wave2_spec") if system == "wave2" else wk.build_preset(system).spec
    expected = _sequential_diffusion_average(spec, xi, 20.0, n_steps)
    got = averaged_diffusion_oracle(spec, xi, 20.0, n_steps)
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_resonance_table_scalar_all_pairs(scalar_ops):
    lat = scalar_ops.table.lattice
    expected = sum(
        1
        for k in lat
        for l in lat
        if abs(k[0] + l[0]) <= lat.radius
    )
    assert len(scalar_ops.table) == expected


def test_resonance_table_symmetry_and_containment(cns_ops4):
    table = cns_ops4.table
    entries = {tuple(int(v) for v in row) for row in table.entries}
    neg, nfreq = table.lattice.negation, cns_ops4.spectrum.nfreq
    for ki, j1, li, j2, mi, j3 in entries:
        assert (li, j2, ki, j1, mi, j3) in entries
        # closed under negation: -omega_j is branch nfreq - 1 - j at -k
        mirror = (neg[ki], nfreq[ki] - 1 - j1, neg[li], nfreq[li] - 1 - j2, neg[mi], nfreq[mi] - 1 - j3)
        assert tuple(int(v) for v in mirror) in entries
    # exact-rule entries are true resonances; the recorded mismatch is eigensolve noise
    assert np.abs(table.defects).max(initial=0.0) <= 1e-12


def test_resonance_collinear_acoustic_stored(cns_model):
    lat = wk.FrequencyLattice(2, 8)
    spectrum = wk.frequency_spectrum(cns_model.spec, lat)
    table = build_resonance_table(spectrum, exact_rule=wk.make_exact_resonance_rule(cns_model))
    c0 = cns_model.sound

    def has_triple(k, l, s1, s2, s3):
        m = (k[0] + l[0], k[1] + l[1])
        ki, li, mi = lat.index(k), lat.index(l), lat.index(m)
        freqs = {idx: spectrum[mode].frequencies for idx, mode in ((ki, k), (li, l), (mi, m))}

        def branch(idx, s):
            return int(np.argmin(np.abs(freqs[idx] - s * c0 * np.linalg.norm(lat.array[idx]))))

        row = (ki, branch(ki, s1), li, branch(li, s2), mi, branch(mi, s3))
        return any(tuple(int(v) for v in r) == row for r in table.entries)

    assert has_triple((3, 0), (4, 0), 1, 1, 1)  # collinear: |k| + |l| = |k+l|
    assert not has_triple((1, 0), (0, 1), 1, 1, 1)  # sqrt(2) mismatch


def test_apply_averaged_quadratic_bilinear(cns_ops4, cns_model):
    lat = cns_ops4.table.lattice
    spec = cns_model.spec
    w1 = wk.random_real_state(lat, 4, seed=31, decay=2.0)
    w2 = wk.random_real_state(lat, 4, seed=32, decay=2.0)
    zero = wk.zero_state(lat, 4)
    out_zero = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w1, zero)
    assert np.abs(out_zero.coeffs).max() == 0.0
    ab = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w1, w2)
    ba = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w2, w1)
    assert np.abs(ab.coeffs - ba.coeffs).max() <= 1e-13 * max(1.0, np.abs(ab.coeffs).max())
    assert is_reality_symmetric(ab)
    # bilinearity in the first argument, over the reals: qbar takes real fields
    for lam in (0.7, -1.3):
        combo = w1.copy()
        combo.coeffs = w1.coeffs + lam * w2.coeffs
        lhs = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, combo, w2)
        rhs = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w1, w2)
        rhs.coeffs = rhs.coeffs + lam * apply_averaged_quadratic(
            spec, cns_ops4.spectrum, cns_ops4.table, w2, w2
        ).coeffs
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12 * max(1.0, np.abs(rhs.coeffs).max()), lam
    # a complex combination is no real field: refused, not answered on another path
    combo = w1.copy()
    combo.coeffs = w1.coeffs + (0.4 - 1.3j) * w2.coeffs
    with pytest.raises(ValueError, match="mirror defect"):
        apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, combo, w2)


def _table_reference(spec, spectrum, table, w1, w2):
    """qbar by direct summation over every table row: no FFT, no compiled kernels."""
    arr = table.lattice.array.astype(float)
    proj = projectors(spectrum)
    out = np.zeros((len(table.lattice), spec.ncomp), dtype=complex)
    for ki, j1, li, j2, mi, j3 in table.entries.tolist():
        flux = np.einsum("aijk,j,k->ai", spec.quadratic, proj[ki, j1] @ w1.coeffs[ki], proj[li, j2] @ w2.coeffs[li])
        out[mi] += proj[mi, j3] @ (1j * arr[mi] @ flux)
    return out


def _qbar_vs_reference(ops, spec, w1, w2):
    got = apply_averaged_quadratic(spec, ops.spectrum, ops.table, w1, w2)
    ref = _table_reference(spec, ops.spectrum, ops.table, w1, w2)
    return got, float(np.abs(got.coeffs - ref).max()), float(np.abs(ref).max())


def _qbar_cases(lat, n, seed, split=None):
    """Real input pairs for qbar, and truly complex ones that it must refuse.

    The real pairs hold a real zero-mode coefficient, a roundoff mirror
    defect (projected by the entry gate) and, if given, a split state."""
    w1, w2, offset = (wk.random_real_state(lat, n, seed=seed + j, decay=2.0) for j in range(3))
    offset.coeffs[lat.zero_index()] = np.linspace(0.2, -0.3, n)
    noisy = w2.copy()
    noisy.coeffs[lat.zero_index()] += 1e-17j
    real = {"real": (w1, w2), "zero mode": (offset, w1), "roundoff": (noisy, w1)}
    if split is not None:
        real.update({"split": (split, split), "split and real": (split, w2)})
    mixed = w1.copy()
    mixed.coeffs = w1.coeffs + 1j * w2.coeffs
    # both inputs complex, one with a non-real zero-mode coefficient
    complex_ = offset.copy()
    complex_.coeffs = offset.coeffs + 1j * w1.coeffs
    complex_.coeffs[lat.zero_index()] = 0.2 + 0.3j
    return real, {"mixed": (mixed, w2), "complex": (complex_, mixed)}


def _check_qbar_cases(ops, spec, real, refused):
    for name, (a, b) in real.items():
        got, err, scale = _qbar_vs_reference(ops, spec, a, b)
        assert err <= 1e-13 * scale, name
        assert is_reality_symmetric(got), name
    for name, (a, b) in refused.items():
        with pytest.raises(ValueError, match="mirror defect"):
            apply_averaged_quadratic(spec, ops.spectrum, ops.table, a, b)


def test_qbar_matches_table_reference(cns_ops4, cns_model):
    lat = cns_ops4.lattice
    split, _ = wcns_split(cns_model, cns_ops4.spectrum, wk.random_real_state(lat, 4, seed=81, decay=2.0))
    _check_qbar_cases(cns_ops4, cns_model.spec, *_qbar_cases(lat, 4, 81, split))


def _system(name, request):
    """(spec, ops, model) of a test system; the model, which wcns_split needs, only for the 2-D gases past R=4."""
    if name == "ideal-gas-2d":
        return request.getfixturevalue("cns_model").spec, request.getfixturevalue("cns_ops4"), None
    if name == "coupled-wave":
        return (*request.getfixturevalue("coupled_wave"), None)
    if name == "scalar":
        return request.getfixturevalue("scalar_spec"), request.getfixturevalue("scalar_ops"), None
    if name.startswith("ideal-gas-1d"):
        model = wk.build_preset("ideal-gas-1d")
        lat = wk.FrequencyLattice(1, 8 if name.endswith("r8") else 6)
        return model.spec, wk.build_operators(model.spec, lat, exact_rule=wk.make_exact_resonance_rule(model)), None
    if name == "ideal-gas-3d":
        model = wk.build_preset("ideal-gas-3d")
        lat = wk.FrequencyLattice(3, 2)
        return model.spec, wk.build_operators(model.spec, lat, exact_rule=wk.make_exact_resonance_rule(model)), None
    model = request.getfixturevalue("cns_model")
    if name == "ideal-gas-2d-r8":
        return model.spec, request.getfixturevalue("cns_ops8"), model
    # "float-rule-2d"
    return model.spec, wk.build_operators(model.spec, wk.FrequencyLattice(2, 3)), model


@pytest.mark.parametrize(
    "system",
    ["ideal-gas-1d", "ideal-gas-1d-r8", "float-rule-2d", "ideal-gas-2d-r8", "ideal-gas-3d", "coupled-wave", "scalar"],
)
def test_qbar_matches_table_reference_beyond_the_2d_gas(system, request):
    """Even and odd padded grids: 20 points (1-D R=6), 25 (1-D R=8), 10
    (float rule, 2-D R=3), 25 (2-D R=8) and 8 (3-D R=2), next to 15 for the
    2-D gas at R=4."""
    spec, ops, model = _system(system, request)
    lat, n = ops.lattice, spec.ncomp
    split = None
    if model is not None:
        split, _ = wcns_split(model, ops.spectrum, wk.random_real_state(lat, n, seed=91, decay=2.0))
    assert ops.table.quadratic.terms > 0
    _check_qbar_cases(ops, spec, *_qbar_cases(lat, n, 91, split))


@pytest.mark.parametrize("system", ["ideal-gas-2d", "ideal-gas-1d", "float-rule-2d", "coupled-wave", "scalar"])
def test_spectrum_basis_rebuilds_projectors(system, request):
    """basis^T g basis = I, and the columns of branch j give p_j = sum b_c b_c^T g: projectors that
    sum to the identity and reassemble the advection symbol as sum_j omega_j p_j."""
    spec, ops, _ = _system(system, request)
    spectrum = ops.spectrum
    cobasis = spectrum.basis.transpose(0, 2, 1) @ spec.entropy_hessian
    assert np.abs(cobasis @ spectrum.basis - np.eye(spec.ncomp)).max() <= 1e-14
    rebuilt = projectors(spectrum)
    assert np.abs(rebuilt.sum(axis=1) - np.eye(spec.ncomp)).max() <= 1e-14
    symbol = wk.advection_symbol(spec, spectrum.lattice.array.astype(float))
    assert np.abs(np.einsum("mj,mjpq->mpq", spectrum.frequencies, rebuilt) - symbol).max() <= 1e-14 * max(
        1.0, np.abs(symbol).max())
    # the generator's and the group's sum on the half is the same sum of the same projectors
    half = slice(spectrum.lattice.zero_index(), None)
    summed = spectrum.branch_sum(spectrum.frequencies[half])
    assert np.abs(summed - np.einsum("mj,mjpq->mpq", spectrum.frequencies[half], rebuilt[half])).max() <= 1e-14 * max(
        1.0, np.abs(symbol).max())


@pytest.mark.parametrize("ops_fixture", ["cns_ops4", "cns_ops8"])
def test_qbar_drop_margin(ops_fixture, cns_model, request):
    """Dropped coefficients are roundoff, kept ones are far from it."""
    ops = request.getfixturevalue(ops_fixture)
    quad = ops.table.quadratic
    largest, smallest = quad.drop_margin
    assert quad.dropped > 0 and largest <= 1e-14 and smallest >= 1e-6
    assert quad.terms == len(quad.coef) and quad.coefficient_bytes <= 500_000


@pytest.mark.parametrize("system, terms", [("ideal-gas-2d-r8", 2844), ("ideal-gas-3d", 2626), ("ideal-gas-1d", 78)])
def test_qbar_folds_both_orderings_of_a_pair(system, terms, request):
    """The table stores (k p, l q) and (l q, k p); the compile keeps one term per
    unordered pair (5,608 ordered terms at 2-D R=8, 5,226 at 3-D R=2 and 150 at
    1-D R=6), and qbar(w1, w2) is qbar(w2, w1) bit for bit, with a nonzero zero mode."""
    spec, ops, _ = _system(system, request)
    lat, n = ops.lattice, spec.ncomp
    assert ops.table.quadratic.terms == terms
    w1, w2 = (wk.random_real_state(lat, n, seed=seed, decay=2.0) for seed in (41, 42))
    w2.coeffs[lat.zero_index()] = np.linspace(0.2, -0.3, n)
    ab = apply_averaged_quadratic(spec, ops.spectrum, ops.table, w1, w2)
    ba = apply_averaged_quadratic(spec, ops.spectrum, ops.table, w2, w1)
    assert ab.coeffs.tobytes() == ba.coeffs.tobytes()


@pytest.mark.parametrize(
    "system, rank",
    [("ideal-gas-2d", 3), ("ideal-gas-3d", 4), ("ideal-gas-1d", 1), ("coupled-wave", 0), ("scalar", 0)],
)
def test_qbar_null_part_runs_on_the_null_range(system, rank, request, monkeypatch):
    """Off the zero mode every P0(m) maps into one range of rank r: velocity and
    temperature in the gas, nothing where the zero mode holds the only null
    branch.  A call transforms r fields in and d r out, and none when r = 0."""
    spec, ops, _ = _system(system, request)
    quad = ops.table.quadratic
    assert quad.null_rank == rank
    largest, smallest = quad.null_margin
    assert largest <= 1e-14 and (rank == 0 or smallest >= 1e-3)
    w = wk.random_real_state(ops.lattice, spec.ncomp, seed=43, decay=2.0)
    transforms = _count_transforms(monkeypatch)
    apply_averaged_quadratic(spec, ops.spectrum, ops.table, w, w)
    assert transforms == ([("irfftn", (1, rank)), ("rfftn", (spec.dim * rank,))] if rank else [])


def test_qbar_alias_free_on_corner_modes(cns_ops4, cns_model):
    """Products of the corner modes (+-R, +-R) land at +-2R, outside the
    lattice; on a grid with fewer than 3R+1 points they would wrap onto
    retained modes."""
    spec = cns_model.spec
    lat = cns_ops4.lattice
    r = lat.radius
    rng = np.random.Generator(np.random.Philox(key=83))
    corners = wk.state_from_modes(
        lat, 4, [(mode, rng.standard_normal(4) + 1j * rng.standard_normal(4)) for mode in ((r, r), (r, -r))]
    )
    out = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, corners, corners)
    assert np.abs(out.coeffs).max() <= 1e-14 * np.abs(corners.coeffs).max() ** 2
    full = wk.random_real_state(lat, 4, seed=84, decay=1.0)
    for a, b in ((corners, full), (full, corners)):
        got, err, scale = _qbar_vs_reference(cns_ops4, spec, a, b)
        assert err <= 1e-13 * scale
        assert is_reality_symmetric(got)


@pytest.mark.parametrize("dim", [2, 3])
def test_rule_that_accepts_nothing_keeps_every_null_triple(dim):
    """The build accepts the null triples itself: under a rule that accepts
    nothing the table is the full table's null rows, and its qbar is the
    slow dynamics P0 Q(P0 w, P0 w), a direct pair sum (3-D R=4 is the first
    odd grid, 15^3)."""
    model = wk.build_preset(f"ideal-gas-{dim}d")
    spec, lat = model.spec, wk.FrequencyLattice(dim, 4)
    spectrum = wk.frequency_spectrum(spec, lat)
    full = build_resonance_table(spectrum, exact_rule=wk.make_exact_resonance_rule(model))
    table = build_resonance_table(spectrum, exact_rule=lambda k, s1, l, s2, m, s3: np.zeros(
        np.broadcast_shapes(s1.shape, s2.shape, s3.shape), dtype=bool))
    k, j1, l, j2, m, j3 = full.entries.T
    null = spectrum.null
    assert np.array_equal(table.entries, full.entries[null[k, j1] & null[l, j2] & null[m, j3]])
    w = wk.random_real_state(lat, spec.ncomp, seed=61, decay=2.0)
    w.coeffs[lat.zero_index()] = np.linspace(0.3, -0.2, spec.ncomp)
    got = apply_averaged_quadratic(spec, spectrum, table, w, w).coeffs
    slow = wk.SpectralState(lat, np.einsum("mpq,mq->mp", spectrum.null_projector, w.coeffs))
    want = np.einsum("mpq,mq->mp", spectrum.null_projector, apply_quadratic(spec, slow, slow).coeffs)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_float_rule_below_the_null_defects_raises_at_build(cns_model):
    # the null frequencies are eigensolve noise, not zeros: a tolerance below
    # their defects rejects null triples, and the build refuses the table
    lat = wk.FrequencyLattice(2, 2)
    with pytest.raises(ValueError, match=r"null triples at k = "):
        wk.build_operators(cns_model.spec, lat, resonance_tol=1e-30)


def test_lopsided_rule_table_stays_closed_under_negation(cns_model):
    """A rule is decided on the pairs after (0, 0) only, and the build mirrors its verdicts: a rule that
    drops the (+, + -> +) triple of (1, 0) + (1, 0) and keeps its mirror loses both.  The table is
    closed under negation, so qbar, computed on the positive half and completed, is the per-row sum
    over all of its rows.  (The cyclic identity does not survive the drop: it needs the triple's
    cyclic partners, which no rule that drops one triple keeps consistent.)"""
    rule = wk.make_exact_resonance_rule(cns_model)

    def lopsided(k, s1, l, s2, m, s3):
        # drops the (+, + -> +) acoustic triple of (1, 0) + (1, 0) but keeps its mirror
        pair = (k == (1, 0)).all(axis=-1) & (l == (1, 0)).all(axis=-1)
        all_plus = (s1 == 1) & (s2 == 1) & (s3 == 1)
        return rule(k, s1, l, s2, m, s3) & ~(pair & all_plus)

    lat = wk.FrequencyLattice(2, 2)
    full = wk.build_operators(cns_model.spec, lat, exact_rule=rule)
    ops = wk.build_operators(cns_model.spec, lat, exact_rule=lopsided)
    nfreq = ops.spectrum.nfreq
    k, km, m, mm = (lat.index(mode) for mode in ((1, 0), (-1, 0), (2, 0), (-2, 0)))
    plus = (k, nfreq[k] - 1, k, nfreq[k] - 1, m, nfreq[m] - 1)  # the largest frequency is the last branch
    minus = (km, 0, km, 0, mm, 0)
    stored = {tuple(row) for row in ops.table.rows.tolist()}
    assert {plus, minus} <= {tuple(row) for row in full.table.rows.tolist()}
    assert plus not in stored and minus not in stored
    assert len(full.table.rows) - len(ops.table.rows) == 2
    _check_qbar_cases(ops, cns_model.spec, *_qbar_cases(lat, 4, 70))


def test_table_stores_only_the_rows_qbar_reads(cns_model):
    """At 2-D R=8 the build stores 9,888 rows, counts 47,089 null triples
    without storing them, and gives the exact rule's grids 2,352 of the
    23,544 pairs after (0, 0); the table has 56,977 rows.  No stored row is a
    null triple, and `blocks` rebuilds the table k-block by k-block: each
    block's rows have its k, hold its counted null triples, and less those
    are the stored rows and defects, in order."""
    lat = wk.FrequencyLattice(2, 8)
    spectrum = wk.frequency_spectrum(cns_model.spec, lat)
    rule = wk.make_exact_resonance_rule(cns_model)
    given = []

    def counting(k, s1, l, s2, m, s3):
        given.append(len(k))
        return rule(k, s1, l, s2, m, s3)

    counting.candidates = rule.candidates
    table = build_resonance_table(spectrum, exact_rule=counting)
    assert (len(table.rows), int(table.null_counts.sum()), sum(given), len(table)) == (9888, 47089, 2352, 56977)
    null = spectrum.null

    def is_null(rows):
        return null[rows[:, 0], rows[:, 1]] & null[rows[:, 2], rows[:, 3]] & null[rows[:, 4], rows[:, 5]]

    assert not is_null(table.rows).any()
    blocks = list(table.blocks())
    assert len(blocks) == len(lat)
    for ki, (entries, defects) in enumerate(blocks):
        assert (entries[:, 0] == ki).all() and len(defects) == len(entries)
        assert np.count_nonzero(is_null(entries)) == table.null_counts[ki]
    entries = np.concatenate([e for e, _ in blocks])
    defects = np.concatenate([d for _, d in blocks])
    assert np.array_equal(entries[~is_null(entries)], table.rows)
    assert defects[~is_null(entries)].tobytes() == table.row_defects.tobytes()
    assert entries.tobytes() == table.entries.tobytes() and defects.tobytes() == table.defects.tobytes()


def _count_transforms(monkeypatch):
    """Patch scipy.fft's padded transforms to record (name, stack shape) per call: the
    shape of the axes not transformed, (inputs, r) for the inverse and (d r,) forward."""
    import scipy.fft

    calls = []
    for name in ("ifftn", "fftn", "irfftn", "rfftn"):
        def counted(x, *args, _name=name, _transform=getattr(scipy.fft, name), **kwargs):
            calls.append((_name, x.shape[: x.ndim - len(kwargs["axes"])]))
            return _transform(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


def test_qbar_refuses_another_spectrum_or_spec(cns_model):
    """A table's branch indices belong to the spectrum it was built from, and
    that spectrum to one system: qbar and the cyclic residual refuse any
    other spectrum on the same lattice, or any other spec, before compiling
    anything, so a later call with the right pair is not served a stale
    compile."""
    spec = cns_model.spec
    lat = wk.FrequencyLattice(2, 3)
    rule = wk.make_exact_resonance_rule(cns_model)
    ops = wk.build_operators(spec, lat, exact_rule=rule)
    conserved = wk.build_cns_spec(cns_model.eos, cns_model.transport, 1.0, 1.0, 2, variables="conserved")
    other = wk.frequency_spectrum(conserved, lat)
    recomputed = wk.frequency_spectrum(spec, lat)  # equal arrays, another object
    w = wk.random_real_state(lat, 4, seed=96, decay=2.0)
    for pair in ((spec, other), (conserved, ops.spectrum), (conserved, other), (spec, recomputed)):
        with pytest.raises(ValueError, match="own spectrum"):
            apply_averaged_quadratic(*pair, ops.table, w, w)
        with pytest.raises(ValueError, match="own spectrum"):
            cyclic_residual(*pair, ops.table, w, w, w)
    fresh = wk.build_operators(spec, lat, exact_rule=rule)
    got = apply_averaged_quadratic(spec, ops.spectrum, ops.table, w, w)
    want = apply_averaged_quadratic(spec, fresh.spectrum, fresh.table, w, w)
    assert np.array_equal(got.coeffs, want.coeffs)


def test_table_compiles_qbar_once_on_first_use(cns_model, monkeypatch):
    """The build does not compile; the first qbar call compiles
    `table.quadratic`, and every later call, the cyclic residual and the
    property itself reuse that one object."""
    compiled, applied = [], []
    init, table_pass = _CompiledQuadratic.__init__, _CompiledQuadratic._table

    def counted_init(self, table):
        compiled.append(self)
        init(self, table)

    def counted_pass(self, c1, c2):
        applied.append(self)
        return table_pass(self, c1, c2)

    monkeypatch.setattr(_CompiledQuadratic, "__init__", counted_init)
    monkeypatch.setattr(_CompiledQuadratic, "_table", counted_pass)
    spec = cns_model.spec
    lat = wk.FrequencyLattice(2, 2)
    ops = wk.build_operators(spec, lat, exact_rule=wk.make_exact_resonance_rule(cns_model))
    assert compiled == []
    w = wk.random_real_state(lat, 4, seed=97, decay=2.0)
    for _ in range(2):
        apply_averaged_quadratic(spec, ops.spectrum, ops.table, w, w)
    cyclic_residual(spec, ops.spectrum, ops.table, w, w, w)
    quad = ops.table.quadratic
    assert quad is ops.table.quadratic
    assert compiled == [quad] and len(applied) == 5 and all(q is quad for q in applied)


def test_qbar_pass_count(cns_ops4, cns_model, monkeypatch):
    """One table pass, one padded real inverse transform of the r = 3 null-range
    fields per distinct input and one real forward transform of the d r = 6
    flux fields per call, for a split state and a roundoff mirror defect as for
    a real state; a complex input is refused before any pass or transform."""
    spec = cns_model.spec
    lat = cns_ops4.lattice
    real = wk.random_real_state(lat, 4, seed=88, decay=2.0)
    split, _ = wcns_split(cns_model, cns_ops4.spectrum, real)
    noisy = real.copy()
    noisy.coeffs[lat.zero_index()] += 1e-17j
    other = real.copy()
    other.coeffs = real.coeffs * (1.0 + 0.5j)
    passes = []
    table = _CompiledQuadratic._table

    def counted(self, c1, c2):
        passes.append(1)
        return table(self, c1, c2)

    monkeypatch.setattr(_CompiledQuadratic, "_table", counted)
    transforms = _count_transforms(monkeypatch)
    cases = {"real": (real, real), "split": (split, split), "roundoff": (noisy, noisy), "two real": (real, split)}
    for name, (a, b) in cases.items():
        passes.clear()
        transforms.clear()
        apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, a, b)
        assert len(passes) == 1, name
        assert transforms == [("irfftn", (1 if a is b else 2, 3)), ("rfftn", (6,))], name
    passes.clear()
    transforms.clear()
    with pytest.raises(ValueError, match="mirror defect"):
        apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, real, other)
    assert passes == [] and transforms == []


def test_qbar_of_one_state_transforms_it_once(cns_ops4, cns_model, monkeypatch):
    """qbar(w, w) transforms a stack of one input's r = 3 null-range fields and
    gives qbar(w, w.copy()) bit for bit; distinct inputs are transformed as a
    stack of two.  Every real input takes the real transforms, and a complex
    one is refused."""
    spec = cns_model.spec
    lat = cns_ops4.lattice

    def states(seed):
        real = wk.random_real_state(lat, 4, seed=seed, decay=2.0)
        split, _ = wcns_split(cns_model, cns_ops4.spectrum, real)
        offset = wk.random_real_state(lat, 4, seed=seed + 1, decay=2.0)
        offset.coeffs[lat.zero_index()] = [0.2, -0.1, 0.3, 0.05]
        return {"real": real, "split": split, "zero mode": offset}

    others = states(91)
    transforms = _count_transforms(monkeypatch)
    for name, w in states(89).items():
        transforms.clear()
        same = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w, w)
        other = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w, w.copy())
        assert same.coeffs.tobytes() == other.coeffs.tobytes(), name
        apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w, others[name])
        assert [size for t, size in transforms if t == "irfftn"] == [(1, 3), (1, 3), (2, 3)], name
        assert [t for t, _ in transforms] == ["irfftn", "rfftn"] * 3, name
    complex_ = others["zero mode"].copy()
    complex_.coeffs = complex_.coeffs * (1.0 + 0.5j)
    transforms.clear()
    with pytest.raises(ValueError, match="mirror defect"):
        apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, complex_, complex_)
    assert transforms == []


def _reference_table(spectrum, lattice, decide):
    """The per-triple loop the table build replaced: decide(k, w1, l, w2, m, w3) -> bool."""
    modes = lattice.modes
    freqs = [row[:n] for row, n in zip(spectrum.frequencies, spectrum.nfreq)]
    rows, defects, rejected = [], [], [np.inf]
    for ki, kmode in enumerate(modes):
        for li, lmode in enumerate(modes):
            mmode = tuple(a + b for a, b in zip(kmode, lmode))
            if not lattice.contains(mmode):
                continue
            mi = lattice.index(mmode)
            for j1, w1 in enumerate(freqs[ki]):
                for j2, w2 in enumerate(freqs[li]):
                    for j3, w3 in enumerate(freqs[mi]):
                        if decide(kmode, w1, lmode, w2, mmode, w3):
                            rows.append((ki, j1, li, j2, mi, j3))
                            defects.append((w1 + w2) - w3)
                        else:
                            rejected.append(abs((w1 + w2) - w3))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 6), np.asarray(defects), min(rejected)


@pytest.mark.parametrize(
    "system, radius, exact",
    [
        ("ideal-gas-2d", 3, True),
        ("ideal-gas-2d", 3, False),
        ("ideal-gas-1d", 5, True),
        ("ideal-gas-1d", 5, False),
        ("ideal-gas-3d", 2, True),
        ("ideal-gas-3d", 2, False),
        ("scalar", 6, False),
    ],
)
def test_resonance_table_matches_per_triple_reference(system, radius, exact, scalar_spec):
    """Entries in the same order, defects bit for bit, closest_rejected exactly."""
    model = None if system == "scalar" else wk.build_preset(system)
    spec = scalar_spec if model is None else model.spec
    lat = wk.FrequencyLattice(spec.dim, radius)
    spectrum = wk.frequency_spectrum(spec, lat)
    scale = max(float(np.abs(spectrum.frequencies).max()), 1.0)
    if exact:
        c0 = model.sound

        def sign(w):
            return 0 if abs(w) < 0.5 * c0 else (1 if w > 0 else -1)

        def decide(k, w1, l, w2, m, w3):
            norms = [sum(c * c for c in mode) for mode in (k, l, m)]
            return acoustic_sum_resonant(*norms, sign(w1), sign(w2), sign(w3))

        table = build_resonance_table(spectrum, exact_rule=wk.make_exact_resonance_rule(model))
    else:

        def decide(k, w1, l, w2, m, w3):
            return abs((w1 + w2) - w3) <= 1e-9 * scale

        table = build_resonance_table(spectrum)
    entries, defects, closest = _reference_table(spectrum, lat, decide)
    assert len(entries) > 0
    assert np.array_equal(table.entries, entries)
    assert table.defects.tobytes() == defects.tobytes()
    if exact:
        assert np.isnan(table.closest_rejected)
    else:
        assert table.closest_rejected == closest


@pytest.mark.parametrize(
    "seed, ncomp, kernel, radius",
    [(1, 3, 1, 4), (2, 4, 1, 3), (3, 4, 2, 4), (4, 5, 2, 3), (5, 5, 3, 3), (6, 3, 2, 3)],
)
def test_generated_systems_match_the_per_triple_and_per_row_references(seed, ncomp, kernel, radius):
    """Seeded entropic systems at 2-D under the float rule: the table is the per-triple reference's
    (order, defects bit for bit, closest_rejected exactly), and qbar, whose null part runs on the
    planted kernel, is the per-row reference's."""
    spec = entropic_system(seed, ncomp=ncomp, kernel=kernel)
    assert wk.validate_entropy_structure(spec).passed
    lat = wk.FrequencyLattice(2, radius)
    ops = wk.build_operators(spec, lat)
    spectrum, table = ops.spectrum, ops.table
    scale = max(float(np.abs(spectrum.frequencies).max()), 1.0)

    def decide(k, w1, l, w2, m, w3):
        return abs((w1 + w2) - w3) <= 1e-9 * scale

    entries, defects, closest = _reference_table(spectrum, lat, decide)
    assert len(table.rows) > 0
    assert np.array_equal(table.entries, entries)
    assert table.defects.tobytes() == defects.tobytes()
    assert table.closest_rejected == closest
    assert table.quadratic.null_rank == kernel and table.quadratic.terms > 0
    _check_qbar_cases(ops, spec, *_qbar_cases(lat, ncomp, seed))


def test_exact_rule_sees_one_read_only_grid_per_chunk(cns_model, monkeypatch):
    """A rule without `candidates` gets every pair after (0, 0) in lattice
    order, one call per grid of whole k-blocks: (P, 1, 1, 1, d) integer
    modes and (P, B, 1, 1), (P, 1, B, 1), (P, 1, 1, B) int8 branch labels,
    all read-only.  Its valid cells (every branch below its mode's nfreq),
    concatenated in call order, are the per-triple enumeration of the
    spectrum's labels on those pairs: every candidate in table order, with
    its values."""
    budget = 5000
    monkeypatch.setattr(averaging, "RESONANCE_CHUNK_CELLS", budget)
    lat = wk.FrequencyLattice(2, 3)
    spectrum = wk.frequency_spectrum(cns_model.spec, lat)
    nfreq, width = spectrum.nfreq, spectrum.frequencies.shape[1]
    rule = wk.make_exact_resonance_rule(cns_model)
    calls = []

    def recording(*args):
        calls.append(args)
        return rule(*args)

    table = build_resonance_table(spectrum, exact_rule=recording)
    assert len(calls) > 1
    blocks, cells = [], []
    j = np.arange(width)
    for k, s1, l, s2, m, s3 in calls:
        pairs = len(k)
        for x in (k, l, m):
            assert x.shape == (pairs, 1, 1, 1, 2) and np.issubdtype(x.dtype, np.integer)
        assert [s.shape for s in (s1, s2, s3)] == [(pairs, width, 1, 1), (pairs, 1, width, 1), (pairs, 1, 1, width)]
        assert all(s.dtype == np.int8 for s in (s1, s2, s3))
        assert not any(x.flags.writeable for x in (k, s1, l, s2, m, s3))
        ki, li, mi = (lat.index_array(x.reshape(pairs, 2)) for x in (k, l, m))
        blocks.append(np.unique(ki))
        assert pairs * width**3 <= budget or len(blocks[-1]) == 1
        valid = (
            (j < nfreq[ki, None])[:, :, None, None]
            & (j < nfreq[li, None])[:, None, :, None]
            & (j < nfreq[mi, None])[:, None, None, :]
        )
        columns = (k[..., 0], k[..., 1], s1, l[..., 0], l[..., 1], s2, m[..., 0], m[..., 1], s3)
        cells.append(np.stack([c[valid] for c in np.broadcast_arrays(*columns)], axis=1))
    # every k-block from the zero mode on lies whole in one call, and the calls follow the lattice order
    assert np.array_equal(np.concatenate(blocks), np.arange(lat.zero_index(), len(lat)))
    seen = []
    labelled = dataclasses.replace(spectrum, frequencies=spectrum.labels)
    _reference_table(labelled, lat, lambda *candidate: seen.append(candidate) or True)
    origin = (0,) * lat.dim
    want = np.array([[*k, s1, *l, s2, *m, s3] for k, s1, l, s2, m, s3 in seen if (k, l) > (origin, origin)])
    assert np.array_equal(np.concatenate(cells), want), "candidate stream differs from the per-triple enumeration"
    assert len(table) > 0


def test_resonance_table_rejects_a_scalar_rule(cns_model):
    lat = wk.FrequencyLattice(2, 1)
    spectrum = wk.frequency_spectrum(cns_model.spec, lat)
    # one boolean per pair and branch triple: a scalar or a grid missing an axis is refused
    for rule in (lambda k, w1, l, w2, m, w3: True, lambda k, w1, l, w2, m, w3: w1 < w2):
        with pytest.raises(ValueError, match=r"expected \(\d+, 3, 3, 3\) booleans"):
            build_resonance_table(spectrum, exact_rule=rule)
    # and one boolean per pair from its candidates
    for candidates in (lambda k, l, m: True, lambda k, l, m: k == l):
        rule = wk.make_exact_resonance_rule(cns_model)
        rule.candidates = candidates
        with pytest.raises(ValueError, match=r"candidates returned .* expected \(\d+,\) booleans"):
            build_resonance_table(spectrum, exact_rule=rule)


@pytest.mark.parametrize("exact", [True, False])
def test_resonance_table_is_the_same_whatever_the_chunks(cns_model, monkeypatch, exact):
    """One k-block per call, or a budget that splits the decided half of
    the pairs mid-way: entries, defects and closest_rejected are bitwise
    the default build's."""
    lat = wk.FrequencyLattice(2, 4)
    spectrum = wk.frequency_spectrum(cns_model.spec, lat)
    rule = wk.make_exact_resonance_rule(cns_model)
    calls = []

    def build():
        calls.clear()
        if not exact:
            return build_resonance_table(spectrum)
        return build_resonance_table(spectrum, exact_rule=lambda *args: calls.append(args) or rule(*args))

    base = build()
    # the k-blocks from the zero mode on: (P - 1) / 2 pairs after (0, 0), (0, 0) and the (0, l) before it
    half = (convolution_pair_count(2, 4) - 1) // 2 + 1 + lat.zero_index()
    cells = half * spectrum.frequencies.shape[1] ** 3
    for budget, chunks in ((1, len(lat) - lat.zero_index()), (cells // 2, 2)):
        monkeypatch.setattr(averaging, "RESONANCE_CHUNK_CELLS", budget)
        table = build()
        if exact:
            assert len(calls) >= chunks
        assert table.entries.tobytes() == base.entries.tobytes()
        assert table.defects.tobytes() == base.defects.tobytes()
        assert np.array_equal(table.closest_rejected, base.closest_rejected, equal_nan=True)


def test_float_rule_resonance_margin(cns_model):
    lat = wk.FrequencyLattice(2, 4)
    spectrum = wk.frequency_spectrum(cns_model.spec, lat)
    table = build_resonance_table(spectrum)
    scale = max(float(np.abs(spectrum.frequencies).max()), 1.0)
    assert table.scale == scale and not table.exact
    assert np.abs(table.defects).max() <= 1e-12 * scale
    assert table.closest_rejected >= 1e-3 * scale
    exact = build_resonance_table(spectrum, exact_rule=wk.make_exact_resonance_rule(cns_model))
    assert np.isnan(exact.closest_rejected)


def test_float_rule_closest_rejected_skips_padded_branches():
    """A padded branch's zero frequency is not a frequency: no near-miss through it counts.

    On the 1-D lattice of radius 2, the modes +-1 carry the branches -a, +a
    and the modes +-2 the branches -b, +b, each padded with a zero third
    branch, and the zero mode its one null branch (mirror-consistent: the
    branches of -k are those of k, negated and reversed).  A padded zero at
    mode 1 makes 0 + a - b at k + l = 2, a defect of 1e-3, while every real
    rejected cell misses by at least |2a - b| = 0.999.
    """
    a, b = 1.0, 1.001
    gas = wk.frequency_spectrum(wk.build_preset("ideal-gas-1d").spec, wk.FrequencyLattice(1, 2))
    frequencies = np.array([[-b, b, 0.0], [-a, a, 0.0], [0.0, 0.0, 0.0], [-a, a, 0.0], [-b, b, 0.0]])
    null = np.zeros((5, 3), dtype=bool)
    null[2, 0] = True
    spectrum = dataclasses.replace(gas, frequencies=frequencies, nfreq=np.array([2, 2, 1, 2, 2]), null=null)
    table = build_resonance_table(spectrum)

    def decide(k, w1, l, w2, m, w3):
        return abs((w1 + w2) - w3) <= 1e-9 * b  # b is the largest |omega|, so the float rule's scale

    entries, defects, closest = _reference_table(spectrum, spectrum.lattice, decide)
    assert np.array_equal(table.entries, entries)
    assert table.defects.tobytes() == defects.tobytes()
    assert closest == pytest.approx(abs(2 * a - b), rel=1e-12)
    assert table.closest_rejected == closest


def test_apply_quadratic_constant_killed(scalar_spec):
    lat = wk.FrequencyLattice(1, 4)
    const = wk.zero_state(lat, 1)
    const.coeffs[lat.zero_index()] = 2.0
    out = apply_quadratic(scalar_spec, const, const)
    assert np.abs(out.coeffs).max() == 0.0


def test_scalar_all_resonant_matches_direct_convolution(scalar_ops, scalar_spec):
    lat = scalar_ops.table.lattice
    w = wk.random_real_state(lat, 1, seed=5, decay=1.5)
    qbar = apply_averaged_quadratic(scalar_spec, scalar_ops.spectrum, scalar_ops.table, w, w)
    direct = apply_quadratic(scalar_spec, w, w)
    assert np.abs(qbar.coeffs - direct.coeffs).max() <= 1e-12 * max(1.0, np.abs(direct.coeffs).max())


def test_quadratic_time_average_oracle(coupled_wave):
    spec, ops = coupled_wave
    w = wk.random_real_state(ops.table.lattice, 2, seed=9, decay=1.0, amplitude=0.5)
    qbar = apply_averaged_quadratic(spec, ops.spectrum, ops.table, w, w)
    oracle = quadratic_time_average_oracle(spec, w, t_span=1e4, n_steps=200000)
    scale = max(1.0, np.abs(qbar.coeffs).max())
    assert np.abs(oracle.coeffs - qbar.coeffs).max() <= 1e-3 * scale


def _sequential_quadratic_average(spec, state, t_span, n_steps):
    """Two-sided trapezoid average of e^{t A} Q(e^{-t A} w, e^{-t A} w), node by node, from expm and apply_quadratic."""
    lattice = state.lattice
    a = np.einsum("mk,kpq->mpq", lattice.array.astype(float), spec.advection)
    dt = t_span / n_steps
    total = np.zeros(state.coeffs.shape, dtype=complex)
    for sign in (1.0, -1.0):  # t >= 0, then t <= 0
        fwd_step = np.stack([scipy.linalg.expm(-sign * 1j * dt * am) for am in a])
        back_step = np.stack([scipy.linalg.expm(sign * 1j * dt * am) for am in a])
        fwd = back = np.broadcast_to(np.eye(spec.ncomp, dtype=complex), a.shape)
        for j in range(n_steps + 1):
            weight = 0.5 * dt if j in (0, n_steps) else dt
            evolved = wk.SpectralState(lattice, np.einsum("mpq,mq->mp", fwd, state.coeffs))
            total += weight * np.einsum("mpq,mq->mp", back, apply_quadratic(spec, evolved, evolved).coeffs)
            fwd, back = fwd @ fwd_step, back_step @ back
    return total / (2.0 * t_span)


@pytest.mark.parametrize("n_steps", [100, 777, 1024, 4097])
@pytest.mark.parametrize("system", ["coupled-wave", "ideal-gas-2d"])
def test_quadratic_oracle_doubling_matches_sequential_sum(system, n_steps, coupled_wave):
    # odd, even and power-of-two node counts exercise every digit pattern of the doubling; every
    # coupled-wave interaction is resonant (constant samples), so the gas also checks the endpoints
    if system == "coupled-wave":
        spec, lattice = coupled_wave[0], coupled_wave[1].lattice
    else:
        spec, lattice = wk.build_preset(system).spec, wk.FrequencyLattice(2, 1)
    w = wk.random_real_state(lattice, spec.ncomp, seed=13, decay=1.0, amplitude=0.5)
    expected = _sequential_quadratic_average(spec, w, 20.0, n_steps)
    got = quadratic_time_average_oracle(spec, w, 20.0, n_steps).coeffs
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("name, radius", [("ideal-gas-1d", 6), ("ideal-gas-2d", 4), ("ideal-gas-3d", 2)])
def test_gas_qbar_matches_time_average_oracle(name, radius):
    # the exact-rule table, the FFT null part and the compiled coefficients together, against
    # the definition of qbar; at 2-D R=4 the null part's padded grid has 15 points (odd real FFT)
    model = wk.build_preset(name)
    lattice = wk.FrequencyLattice(model.spec.dim, radius)
    ops = wk.build_operators(model.spec, lattice, exact_rule=wk.make_exact_resonance_rule(model))
    w = wk.random_real_state(lattice, model.spec.ncomp, seed=11, decay=2.0, amplitude=0.5)
    qbar = apply_averaged_quadratic(model.spec, ops.spectrum, ops.table, w, w)
    oracle = quadratic_time_average_oracle(model.spec, w, t_span=1e6, n_steps=10**8)
    assert np.abs(oracle.coeffs - qbar.coeffs).max() <= 1e-5 * max(1.0, np.abs(qbar.coeffs).max())


def test_cyclic_identity_zero_kernel(wave2_spec):
    lat = wk.FrequencyLattice(1, 3)
    ops = wk.build_operators(wave2_spec, lat, with_quadratic=True)
    assert ops.table is None  # zero kernel -> no table, nothing to test further


def test_cyclic_identity_cns(cns_ops4, cns_model):
    lat = cns_ops4.table.lattice
    states = [wk.random_real_state(lat, 4, seed=40 + j, decay=2.0) for j in range(3)]
    res = cyclic_residual(cns_model.spec, cns_ops4.spectrum, cns_ops4.table, *states)
    assert res <= 1e-10
    w = states[0]
    qw = apply_averaged_quadratic(cns_model.spec, cns_ops4.spectrum, cns_ops4.table, w, w)
    pairing = abs(wk.inner_product(cns_model.spec, w, qw))
    scale = wk.energy_norm(cns_model.spec, w) ** 2 * wk.energy_norm(cns_model.spec, w)
    assert pairing <= 1e-10 * max(scale, 1e-30)


def test_energy_pairing_identity(cns_ops4, cns_model):
    lat = cns_ops4.table.lattice
    spec = cns_model.spec
    w1 = wk.random_real_state(lat, 4, seed=51, decay=2.0)
    w2 = wk.random_real_state(lat, 4, seed=52, decay=2.0)
    q11 = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w1, w1)
    q12 = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w1, w2)
    lhs = 2.0 * wk.inner_product(spec, w1, q12) + wk.inner_product(spec, w2, q11)
    scale = max(abs(wk.inner_product(spec, w1, q12)), abs(wk.inner_product(spec, w2, q11)), 1e-30)
    assert abs(lhs) / scale <= 1e-10


def test_equivariance_of_both_operators(cns_ops4, cns_model):
    spec = cns_model.spec
    lat = cns_ops4.table.lattice
    w1 = wk.random_real_state(lat, 4, seed=61, decay=2.5)
    w2 = wk.random_real_state(lat, 4, seed=62, decay=2.5)
    for t in (0.37, -2.2):
        e1 = wk.evolve_state(cns_ops4.spectrum, t, w1)
        e2 = wk.evolve_state(cns_ops4.spectrum, t, w2)
        lhs = apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, e1, e2)
        rhs = wk.evolve_state(
            cns_ops4.spectrum, t,
            apply_averaged_quadratic(spec, cns_ops4.spectrum, cns_ops4.table, w1, w2),
        )
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-10 * max(1.0, np.abs(rhs.coeffs).max())
        davg = wk.apply_averaged_diffusion(cns_ops4.avg, e1)
        davg_ref = wk.evolve_state(cns_ops4.spectrum, t, wk.apply_averaged_diffusion(cns_ops4.avg, w1))
        assert np.abs(davg.coeffs - davg_ref.coeffs).max() <= 1e-10 * max(1.0, np.abs(davg_ref.coeffs).max())


def test_diffusion_form_nonpositive(cns_ops4, cns_model):
    spec = cns_model.spec
    w = wk.random_real_state(cns_ops4.lattice, 4, seed=77, decay=1.5)
    val = wk.inner_product(spec, w, wk.apply_averaged_diffusion(cns_ops4.avg, w))
    assert val.real <= 1e-11 * wk.energy_norm(spec, w) ** 2


def test_operator_covariance_under_change_of_variables(cns_model):
    rng = np.random.Generator(np.random.Philox(key=99))
    transform = np.eye(4) + 0.25 * rng.standard_normal((4, 4))
    primed_spec = wk.change_of_variables(cns_model.spec, transform)
    lat = wk.FrequencyLattice(2, 2)
    base = wk.build_operators(cns_model.spec, lat, exact_rule=wk.make_exact_resonance_rule(cns_model))
    primed = wk.build_operators(primed_spec, lat, resonance_tol=1e-9)
    inv = np.linalg.inv(transform)
    for i in range(len(lat)):
        expect = inv @ base.avg.blocks[i] @ transform
        scale = max(1.0, np.abs(expect).max())
        assert np.abs(primed.avg.blocks[i] - expect).max() <= 1e-9 * scale
    wp = wk.random_real_state(lat, 4, seed=3, decay=2.0)
    w = wp.copy()
    w.coeffs = wp.coeffs @ transform.T  # w = T w' mode-wise
    out = apply_averaged_quadratic(cns_model.spec, base.spectrum, base.table, w, w)
    out_p = apply_averaged_quadratic(primed_spec, primed.spectrum, primed.table, wp, wp)
    pulled = out.coeffs @ inv.T
    assert np.abs(out_p.coeffs - pulled).max() <= 1e-9 * max(1.0, np.abs(pulled).max())


def test_csv_exports(cns_ops4):
    rows = list(wk.averaging.resonance_csv_rows(cns_ops4.table))
    assert len(rows) == len(cns_ops4.table)
    drows = list(wk.averaging.diffusion_csv_rows(cns_ops4.avg))
    assert len(drows) == len(cns_ops4.lattice) * 16
