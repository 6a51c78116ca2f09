"""qbar's structural identities, at sizes no per-row reference reaches.

Each holds on any lattice and shares no code path with the padded
transforms: lattice symmetry (a signed permutation R of the axes acts on the
modes and on the velocity, w'(k) = S w(R^T k) with S = diag(1, R, 1)),
translation (w(k) -> e^{ik.a} w(k) multiplies the output at m by e^{im.a})
and nesting (a state on |k|_inf <= R0 has the same qbar on |m|_inf <= R0 on
every larger lattice, as the frequencies, the exact rule and the null test
are all per mode).  Every state has a nonzero zero mode, so the null part's
zero-mode term is in play.  The padded grids have 25 points an axis at 2-D
R=8 and 28 at R=9, and 10 at 3-D R=3 and 15 at R=4, the first odd 3-D grid.
"""

import functools

import numpy as np
import pytest

import wndkit as wk
from wndkit.averaging import apply_averaged_quadratic, build_resonance_table

CASES = [(2, 8), (2, 9), (3, 3), (3, 4)]
IDS = ["2d-r8", "2d-r9", "3d-r3", "3d-r4"]


def _build(dim, radius):
    model = wk.build_preset(f"ideal-gas-{dim}d")
    spectrum = wk.frequency_spectrum(model.spec, wk.FrequencyLattice(dim, radius))
    return build_resonance_table(spectrum, exact_rule=wk.make_exact_resonance_rule(model))


@pytest.fixture(scope="module")
def tables():
    """The exact-rule table of the gas on (dim, radius), built once for the module's tests."""
    return functools.cache(_build)


def _qbar(table, coeffs):
    spectrum = table.spectrum
    w = wk.SpectralState(table.lattice, coeffs)
    return apply_averaged_quadratic(spectrum.spec, spectrum, table, w, w).coeffs


def _state(lattice, seed):
    w = wk.random_real_state(lattice, lattice.dim + 2, seed=seed, decay=2.0)
    w.coeffs[lattice.zero_index()] = np.linspace(0.3, -0.2, lattice.dim + 2)
    return w.coeffs


def _relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("dim, radius", CASES, ids=IDS)
def test_qbar_commutes_with_the_lattice_symmetries(tables, dim, radius):
    table = tables(dim, radius)
    lattice = table.lattice
    w = _state(lattice, seed=71)
    out = _qbar(table, w)
    flip = np.diag([-1] + [1] * (dim - 1))
    cycle = np.roll(np.eye(dim, dtype=int), 1, axis=0)  # the axes permuted cyclically, then the first flipped
    for rotation in (flip, flip @ cycle):
        source = lattice.index_array(lattice.array @ rotation)  # the index of R^T k at each k
        act = np.eye(dim + 2)
        act[1:-1, 1:-1] = rotation
        got = _qbar(table, w[source] @ act.T)
        assert _relative(got, out[source] @ act.T) <= 1e-13


@pytest.mark.parametrize("dim, radius", CASES, ids=IDS)
def test_qbar_commutes_with_translation(tables, dim, radius):
    table = tables(dim, radius)
    lattice = table.lattice
    w = _state(lattice, seed=72)
    phase = np.exp(1j * (lattice.array @ np.array([0.37, -1.21, 0.58])[:dim]))[:, None]
    assert _relative(_qbar(table, w * phase), _qbar(table, w) * phase) <= 1e-13


@pytest.mark.parametrize("dim, inner, radius", [(2, 4, 8), (2, 4, 9), (3, 2, 3), (3, 2, 4)],
                         ids=["2d-r4-in-r8", "2d-r4-in-r9", "3d-r2-in-r3", "3d-r2-in-r4"])
def test_qbar_nests(tables, dim, inner, radius):
    small, large = tables(dim, inner), tables(dim, radius)
    w = _state(small.lattice, seed=73)
    inside = large.lattice.index_array(small.lattice.array)
    embedded = np.zeros((len(large.lattice), dim + 2), dtype=complex)
    embedded[inside] = w
    assert _relative(_qbar(large, embedded)[inside], _qbar(small, w)) <= 1e-13
