import numpy as np
import pytest

import wndkit as wk


@pytest.fixture(scope="session")
def wave2_spec():
    """Partially dissipative 2-component wave system: a = [[0,xi],[xi,0]], b = diag(xi^2, 0)."""
    adv = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    dif = np.zeros((1, 1, 2, 2))
    dif[0, 0] = np.diag([1.0, 0.0])
    quad = np.zeros((1, 2, 2, 2))
    return wk.SystemSpec(1, 2, [0.0, 0.0], adv, dif, quad, np.eye(2))


@pytest.fixture(scope="session")
def scalar_spec():
    """Scalar advection-diffusion with quadratic flux q w^2 / 2 (q = 1)."""
    return wk.SystemSpec(1, 1, [0.0], [[[1.0]]], [[[[0.3]]]], [[[[0.5]]]], [[1.0]])


@pytest.fixture(scope="session")
def cns_model():
    return wk.build_preset("ideal-gas-2d")


@pytest.fixture(scope="session")
def cns_ops4(cns_model):
    lattice = wk.FrequencyLattice(2, 4)
    return wk.build_operators(
        cns_model.spec, lattice, exact_rule=wk.make_exact_resonance_rule(cns_model)
    )


@pytest.fixture(scope="session")
def cns_ops8(cns_model):
    lattice = wk.FrequencyLattice(2, 8)
    return wk.build_operators(
        cns_model.spec, lattice, exact_rule=wk.make_exact_resonance_rule(cns_model)
    )


def entropic_system(seed, dim=2, ncomp=4, kernel=1):
    """A seeded random entropic system (zero base state).

    g is SPD; each g a_j is symmetric and kills a planted subspace of
    dimension `kernel`, so every a(xi) has a null branch of at least that
    rank and qbar's null part runs (r > 0); b(xi, xi) = g^{-1} sum_j xi_j^2
    C_j C_j^T, so g b is symmetric nonnegative; each g q_a is a fully
    symmetric 3-tensor, which gives the cyclic identity.  Otherwise generic:
    no branch is degenerate, and the resonances off the null triples are
    the structural ones (collinear pairs and the zero mode), as the gas
    presets never make them.
    """
    rng = np.random.default_rng(seed)
    n = ncomp
    x = rng.standard_normal((n, n))
    g = x @ x.T + n * np.eye(n)
    g_inv = np.linalg.inv(g)
    rest = np.linalg.qr(rng.standard_normal((n, n)))[0][:, kernel:]  # orthogonal to the planted kernel
    adv = np.empty((dim, n, n))
    dif = np.zeros((dim, dim, n, n))
    for j in range(dim):
        s = rng.standard_normal((n - kernel, n - kernel))
        adv[j] = g_inv @ (rest @ (s + s.T) @ rest.T)
        c = rng.standard_normal((n, n))
        dif[j, j] = g_inv @ (c @ c.T)
    t = rng.standard_normal((dim, n, n, n))
    t = sum(t.transpose(0, *p) for p in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))) / 6.0
    quad = np.einsum("ip,apjk->aijk", g_inv, t)
    return wk.SystemSpec(dim, n, np.zeros(n), adv, dif, quad, g)


def projectors(spectrum):
    """Every branch's g-orthogonal eigenprojector p_j = B_j B_j^T g, (M, B, N, N), from the spectrum's
    basis and the branch of each column: zero on a padded branch."""
    in_branch = spectrum.branch[:, :, None] == np.arange(spectrum.frequencies.shape[1])  # (M, N, B)
    cobasis = spectrum.basis.transpose(0, 2, 1) @ spectrum.spec.entropy_hessian
    return np.einsum("mpc,mcj,mcq->mjpq", spectrum.basis, in_branch, cobasis)


def mode_projectors(spectrum, mode):
    """The projectors of one mode's nfreq branches, (nfreq, N, N)."""
    i = spectrum.lattice.index(mode)
    return projectors(spectrum)[i, : spectrum.nfreq[i]]


def state_diff_norm(spec, a, b):
    probe = a.copy()
    probe.coeffs = a.coeffs - b.coeffs
    return wk.energy_norm(spec, probe)
