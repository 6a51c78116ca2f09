"""Gas-dynamics instantiation: compressible Navier-Stokes symbol data.

Working variables are the primitive perturbations (rho, u, theta) about a
quiescent state (rho0, 0, theta0).  Writing p_r = dp/drho, p_t = dp/dtheta
and c_v = de/dtheta at the reference state, the convective-form
linearization gives the acoustic advection symbol

    a(xi):  rho row     rho0 xi . u
            u row       (p_r/rho0) xi rho + (p_t/rho0) xi theta
            theta row   (theta0 p_t / (rho0 c_v)) xi . u

with eigenvalues {0 (multiplicity d), +- c0 |xi|} and sound speed

    c0^2 = p_r + theta0 p_t^2 / (rho0^2 c_v).

The diffusion tensor carries shear/bulk viscosity on the velocity block and
thermal conduction on the temperature block; the entropy Hessian of
H = -rho * sigma conjugated to primitive variables is diagonal,

    g = diag( p_r/(rho0 theta0),  (rho0/theta0) I_d,  rho0 c_v / theta0^2 ).

The quadratic kernel is the conserved-variable flux Hessian conjugated to
primitive variables; the second-order map correction belongs to the
derivative terms that time-average to zero, so what remains is the
primitive flux Hessian minus the advection symbol applied to the
second-order change-of-variables kernel.  Second derivatives of a general
equation of state are closed through the Maxwell relation

    eps_r = (p - theta p_t) / rho^2,

leaving (p_rr, p_rt, p_tt, dc_v/dtheta) as the only extra data.  An
equation of state states all four, so the kernel is evaluated exactly,
never differenced.

The acoustic eigenvectors at mode k,

    h_k(+-) = sqrt(theta0 / 2 rho0) * (rho0/c0, +- k/|k|, theta0 p_t/(rho0 c_v c0)),

are g-orthonormal, and acoustic resonance is an exact integer condition on
squared mode norms, decided without floating point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .averaging import apply_averaged_quadratic
from .solver import whole_steps
from .spectral import FrequencyLattice, Spectrum
from .state import SpectralState, require_fit, state_from_modes
from .system import SystemSpec, change_of_variables

__all__ = [
    "EquationOfState",
    "TransportCoefficients",
    "ideal_gas",
    "sound_speed",
    "acoustic_diffusivity",
    "heat_capacity_pressure",
    "CnsModel",
    "build_cns_model",
    "build_cns_spec",
    "acoustic_basis",
    "wcns_split",
    "acoustic_sum_resonant",
    "make_exact_resonance_rule",
    "conserved_flux",
    "simulate_incompressible_reference",
    "wcns_coupling_report",
    "PRESETS",
    "build_preset",
]

Scalar = Callable[[float, float], float]


@dataclass(frozen=True)
class EquationOfState:
    """p(rho, theta), eps(rho, theta), the first partials that fix the symbols
    and the second partials that fix the quadratic kernel.

    The Maxwell relation supplies every eps derivative from the pressure
    ones.  Only `theta_from_energy` is optional: `conserved_flux` alone reads it.
    """

    pressure: Scalar
    energy: Scalar
    pressure_rho: Scalar
    pressure_theta: Scalar
    heat_capacity: Scalar  # d eps / d theta
    pressure_rho_rho: Scalar
    pressure_rho_theta: Scalar
    pressure_theta_theta: Scalar
    heat_capacity_theta: Scalar
    theta_from_energy: Scalar | None = None  # inverse of eps(rho, .), for conserved-variable work

    def validate_at(self, rho: float, theta: float) -> None:
        """ValueError unless rho, theta, d eps/d theta and dp/drho are positive (a NaN is not)."""
        if not (rho > 0.0 and theta > 0.0):
            raise ValueError("reference state must have rho > 0 and theta > 0")
        if not self.heat_capacity(rho, theta) > 0.0:
            raise ValueError("equation of state violates d eps/d theta > 0")
        if not self.pressure_rho(rho, theta) > 0.0:
            raise ValueError("equation of state violates dp/drho > 0")


def ideal_gas(micro_dim: int = 3) -> EquationOfState:
    """p = rho * theta, eps = (D/2) * theta, with D the microscopic dimension."""
    half_d = micro_dim / 2.0
    return EquationOfState(
        pressure=lambda rho, theta: rho * theta,
        energy=lambda rho, theta: half_d * theta,
        pressure_rho=lambda rho, theta: theta,
        pressure_theta=lambda rho, theta: rho,
        heat_capacity=lambda rho, theta: half_d,
        pressure_rho_rho=lambda rho, theta: 0.0,
        pressure_rho_theta=lambda rho, theta: 1.0,
        pressure_theta_theta=lambda rho, theta: 0.0,
        heat_capacity_theta=lambda rho, theta: 0.0,
        theta_from_energy=lambda rho, eps: eps / half_d,
    )


@dataclass(frozen=True)
class TransportCoefficients:
    """Constant transport data at the reference state."""

    shear: float
    bulk: float
    thermal: float
    micro_dim: int = 3

    def validate_for_dim(self, dim: int) -> None:
        if self.shear < 0.0 or self.bulk < 0.0 or self.thermal < 0.0:
            raise ValueError("transport coefficients must be nonnegative")
        if self.micro_dim < max(2, dim):
            raise ValueError("microscopic dimension must be at least max(2, d)")


def sound_speed(eos: EquationOfState, rho: float, theta: float) -> float:
    """c0 = sqrt( dp/drho + theta (dp/dtheta)^2 / (rho^2 c_v) )."""
    eos.validate_at(rho, theta)
    p_r = eos.pressure_rho(rho, theta)
    p_t = eos.pressure_theta(rho, theta)
    c_v = eos.heat_capacity(rho, theta)
    c_sq = p_r + theta * p_t**2 / (rho**2 * c_v)
    if not c_sq > 0.0:
        raise ValueError(f"equation of state yields a squared sound speed c0^2 = {c_sq!r} that is not positive")
    return math.sqrt(c_sq)


def acoustic_diffusivity(
    eos: EquationOfState, transport: TransportCoefficients, rho: float, theta: float
) -> float:
    """Decay coefficient of the averaged dynamics on the acoustic subspace."""
    c_sq = sound_speed(eos, rho, theta) ** 2
    p_t = eos.pressure_theta(rho, theta)
    c_v = eos.heat_capacity(rho, theta)
    d_micro = transport.micro_dim
    viscous = (2.0 * (d_micro - 1.0) / d_micro * transport.shear + transport.bulk) / (2.0 * rho)
    thermal = transport.thermal / (2.0 * rho * c_v) * (theta * p_t**2) / (rho**2 * c_v * c_sq)
    return viscous + thermal


def heat_capacity_pressure(eos: EquationOfState, rho: float, theta: float) -> float:
    """c_p = c_v + theta (dp/dtheta)^2 / (rho^2 dp/drho)."""
    p_r = eos.pressure_rho(rho, theta)
    p_t = eos.pressure_theta(rho, theta)
    return eos.heat_capacity(rho, theta) + theta * p_t**2 / (rho**2 * p_r)


@dataclass(eq=False)
class CnsModel:
    """Reference-state numbers plus the assembled primitive-variable spec."""

    eos: EquationOfState
    transport: TransportCoefficients
    rho: float
    theta: float
    dim: int
    spec: SystemSpec
    sound: float
    diffusivity: float
    p_rho: float
    p_theta: float
    c_v: float
    c_p: float
    conserved_jacobian: np.ndarray  # dU/dW at the reference state

    @property
    def ncomp(self) -> int:
        return self.dim + 2


def build_cns_model(
    eos: EquationOfState,
    transport: TransportCoefficients,
    rho: float,
    theta: float,
    dim: int,
) -> CnsModel:
    """Assemble the primitive-variable symbol data analytically."""
    eos.validate_at(rho, theta)
    transport.validate_for_dim(dim)
    n = dim + 2
    p = eos.pressure(rho, theta)
    p_r = eos.pressure_rho(rho, theta)
    p_t = eos.pressure_theta(rho, theta)
    c_v = eos.heat_capacity(rho, theta)
    eps = eos.energy(rho, theta)
    eps_r = (p - theta * p_t) / rho**2  # Maxwell relation
    p_rr = eos.pressure_rho_rho(rho, theta)
    p_rt = eos.pressure_rho_theta(rho, theta)
    p_tt = eos.pressure_theta_theta(rho, theta)
    eps_rr = (p_r - theta * p_rt) / rho**2 - 2.0 * (p - theta * p_t) / rho**3
    eps_rt = -theta * p_tt / rho**2
    eps_tt = eos.heat_capacity_theta(rho, theta)

    r_idx, t_idx = 0, dim + 1

    adv = np.zeros((dim, n, n))
    for a in range(dim):
        adv[a, r_idx, 1 + a] = rho
        adv[a, 1 + a, r_idx] = p_r / rho
        adv[a, 1 + a, t_idx] = p_t / rho
        adv[a, t_idx, 1 + a] = theta * p_t / (rho * c_v)

    zeta = (1.0 - 2.0 / transport.micro_dim) * transport.shear + transport.bulk
    diff = np.zeros((dim, dim, n, n))
    for a in range(dim):
        for b in range(dim):
            if a == b:
                diff[a, b, t_idx, t_idx] = transport.thermal / (rho * c_v)
                for i in range(dim):
                    diff[a, b, 1 + i, 1 + i] += transport.shear / rho
            diff[a, b, 1 + a, 1 + b] += zeta / rho

    ghess = np.zeros((n, n))
    ghess[r_idx, r_idx] = p_r / (rho * theta)
    for i in range(dim):
        ghess[1 + i, 1 + i] = rho / theta
    ghess[t_idx, t_idx] = rho * c_v / theta**2

    def sym_outer(i: int, j: int) -> np.ndarray:
        mat = np.zeros((n, n))
        mat[i, j] += 0.5
        mat[j, i] += 0.5
        return mat

    # pressure Hessian and second-order state-map kernel as quadratic forms
    p_hess = np.zeros((n, n))
    p_hess[r_idx, r_idx] = p_rr
    p_hess[t_idx, t_idx] = p_tt
    p_hess += 2.0 * p_rt * sym_outer(r_idx, t_idx)

    s_theta = np.zeros((n, n))
    for j in range(dim):
        s_theta[1 + j, 1 + j] += rho
    s_theta[r_idx, r_idx] += 2.0 * eps_r + rho * eps_rr
    s_theta += (2.0 * c_v + 2.0 * rho * eps_rt) * sym_outer(r_idx, t_idx)
    s_theta[t_idx, t_idx] += rho * eps_tt
    s_theta /= 2.0 * rho * c_v

    quad = np.zeros((dim, n, n, n))
    for a in range(dim):
        for i in range(dim):
            quad[a, 1 + i] += sym_outer(1 + i, 1 + a)
            if i == a:
                quad[a, 1 + i] += p_hess / (2.0 * rho) - (p_t / rho) * s_theta
        quad[a, t_idx] += ((p_r - theta * p_t / rho) / (rho * c_v)) * sym_outer(1 + a, r_idx)
        quad[a, t_idx] += ((rho * c_v + p_t) / (rho * c_v)) * sym_outer(1 + a, t_idx)

    state = np.zeros(n)
    state[r_idx] = rho
    state[t_idx] = theta
    labels = ("rho",) + tuple(f"u{i+1}" for i in range(dim)) + ("theta",)
    spec = SystemSpec(
        dim=dim,
        ncomp=n,
        state=state,
        advection=adv,
        diffusion=diff,
        quadratic=quad,
        entropy_hessian=ghess,
        labels=labels,
    )

    jac = np.zeros((n, n))
    jac[r_idx, r_idx] = 1.0
    for i in range(dim):
        jac[1 + i, 1 + i] = rho
    jac[t_idx, r_idx] = eps + rho * eps_r
    jac[t_idx, t_idx] = rho * c_v

    return CnsModel(
        eos=eos,
        transport=transport,
        rho=rho,
        theta=theta,
        dim=dim,
        spec=spec,
        sound=sound_speed(eos, rho, theta),
        diffusivity=acoustic_diffusivity(eos, transport, rho, theta),
        p_rho=p_r,
        p_theta=p_t,
        c_v=c_v,
        c_p=heat_capacity_pressure(eos, rho, theta),
        conserved_jacobian=jac,
    )


def build_cns_spec(
    eos: EquationOfState,
    transport: TransportCoefficients,
    rho: float,
    theta: float,
    dim: int,
    variables: str = "primitive",
) -> SystemSpec:
    """Primitive-variable spec, or its conserved-variable conjugate."""
    model = build_cns_model(eos, transport, rho, theta, dim)
    if variables == "primitive":
        return model.spec
    if variables != "conserved":
        raise ValueError("variables must be 'primitive' or 'conserved'")
    transform = np.linalg.inv(model.conserved_jacobian)
    spec = change_of_variables(model.spec, transform)
    u0 = np.zeros(model.ncomp)
    u0[0] = rho
    u0[-1] = rho * eos.energy(rho, theta)
    return dataclasses.replace(spec, state=u0)


def acoustic_basis(model: CnsModel, k) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal acoustic eigenvectors (h_plus, h_minus) at nonzero mode k."""
    kvec = np.asarray(k, dtype=float)
    norm = np.linalg.norm(kvec)
    if norm == 0.0:
        raise ValueError("acoustic basis is undefined at the zero mode")
    scale = math.sqrt(model.theta / (2.0 * model.rho))
    head = model.rho / model.sound
    tail = model.theta * model.p_theta / (model.rho * model.c_v * model.sound)
    unit = kvec / norm
    plus = scale * np.concatenate([[head], unit, [tail]])
    minus = scale * np.concatenate([[head], -unit, [tail]])
    return plus, minus


def wcns_split(model: CnsModel, spectrum: Spectrum, state: SpectralState) -> tuple[SpectralState, SpectralState]:
    """Split into the advection null component P0 w and the acoustic component w - P0 w.

    P0 is `spectrum.null_projector`: null-branch projection per mode gives
    the incompressible part (divergence-free velocity, pressure-neutral
    thermodynamics); the rest lives on the +-c0|k| eigenspaces.  The zero
    mode is incompressible.  ValueError unless the spectrum decomposes
    `model.spec` and the state fits it (its lattice, the spec's components).
    """
    if spectrum.spec is not model.spec:
        raise ValueError("wcns_split needs a spectrum of the model's own spec")
    require_fit(state, spectrum.lattice, model.spec.ncomp, "a spectrum")
    incompressible = np.matmul(spectrum.null_projector, state.coeffs[:, :, None])[:, :, 0]
    w_in = SpectralState(state.lattice, incompressible)
    return w_in, SpectralState(state.lattice, state.coeffs - incompressible)


def acoustic_sum_resonant(a, b, c, s1, s2, s3):
    """Decide s1 sqrt(a) + s2 sqrt(b) = s3 sqrt(c) exactly over the integers.

    a, b, c are squared mode norms; s in {-1, 0, +1} labels the frequency
    branch.  Plain ints give a bool, integer arrays an elementwise boolean
    array.  With A = s1^2 a, B = s2^2 b, C = s3^2 c and gap = C - A - B,
    squaring twice shows the triple is resonant iff gap^2 = 4AB,
    s1 s2 gap >= 0 and sign(s1 A + s2 B) = sign(s3 C); the last holds
    because s1 sqrt(A) + s2 sqrt(B) has the sign of s1 A + s2 B.  No
    floating point and no case split.
    """
    A, B, C = s1 * s1 * a, s2 * s2 * b, s3 * s3 * c
    gap = C - A - B
    lhs, rhs = s1 * A + s2 * B, s3 * C
    same_sign = ((lhs > 0) == (rhs > 0)) & ((lhs < 0) == (rhs < 0))
    return (gap * gap == 4 * A * B) & (s1 * s2 * gap >= 0) & same_sign


def _squared_norms(modes: np.ndarray) -> np.ndarray:
    """Integer-exact |x|^2 over the last axis of a (..., d) integer array, one component at a time."""
    out = modes[..., 0] * modes[..., 0]
    for column in range(1, modes.shape[-1]):
        out += modes[..., column] * modes[..., column]
    return out


def make_exact_resonance_rule(model: CnsModel):
    """Array rule for `build_resonance_table`: the integer acoustic identity.

    Takes one chunk's grid (see ExactRule): (P, 1, 1, 1, d) integer modes k,
    l, m and the spectrum's branch labels s1, s2, s3 (0 on a null branch,
    else the sign of the frequency), and returns the (P, B, B, B) booleans
    of `acoustic_sum_resonant` on the squared mode norms a, b, c.  The build
    accepts the all-null cells itself, and by a lemma most pairs have no
    other: if a, b, c are pairwise distinct and (c - a - b)^2 != 4ab (k and
    l not collinear, since c - a - b = 2 k.l), the identity holds only on
    the all-null triple s1 = s2 = s3 = 0.  So the identity runs only on
    equal-norm or collinear pairs.  Reads its arguments only, so a broadcast
    view serves as well as an array, and reads no frequency and not
    `model`, which the signature keeps for its callers.
    """

    def rule(k, s1, l, s2, m, s3) -> np.ndarray:
        a, b, c = map(_squared_norms, (k, l, m))
        gap = c - a - b
        pairs = np.flatnonzero((a == b) | (a == c) | (b == c) | (gap * gap == 4 * a * b))
        hit = np.zeros(np.broadcast_shapes(s1.shape, s2.shape, s3.shape), dtype=bool)
        hit[pairs] = acoustic_sum_resonant(a[pairs], b[pairs], c[pairs], s1[pairs], s2[pairs], s3[pairs])
        return hit

    return rule


def conserved_flux(eos: EquationOfState, u_vec: np.ndarray, dim: int) -> np.ndarray:
    """Conserved-variable flux (dim, N); needs an invertible energy law."""
    if eos.theta_from_energy is None:
        raise ValueError("equation of state does not provide theta_from_energy")
    u_vec = np.asarray(u_vec, dtype=float)
    rho = u_vec[0]
    mom = u_vec[1 : 1 + dim]
    total = u_vec[dim + 1]
    vel = mom / rho
    eps = total / rho - 0.5 * float(vel @ vel)
    theta = eos.theta_from_energy(rho, eps)
    p = eos.pressure(rho, theta)
    flux = np.empty((dim, dim + 2))
    for a in range(dim):
        flux[a, 0] = mom[a]
        flux[a, 1 : 1 + dim] = mom * vel[a]
        flux[a, 1 + a] += p
        flux[a, dim + 1] = (total + p) * vel[a]
    return flux


def simulate_incompressible_reference(
    model: CnsModel,
    lattice: FrequencyLattice,
    u_hat: np.ndarray,
    theta_hat: np.ndarray,
    t_end: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Leray-projected spectral solve of the incompressible subsystem

        rho0 (du/dt + u.grad u) + grad p = shear * lap u,    div u = 0,
        rho0 c_p (dtheta/dt + u.grad theta) = thermal * lap theta,

    truncated to the same lattice (convolution modes outside it dropped),
    advanced by integrating-factor RK4 with scalar decay factors.  Entirely
    independent of the generic averaged machinery; used as its oracle.
    t_end must be a whole number of steps, so that the reference stops at
    the time `simulate` reaches rather than one step short of it.

    The advection is a brute-force direct sum over the lattice's (k, l)
    pairs, no FFT.  The state is held component-major, one (d+1, M) array
    with the velocity components in rows 0..d-1 and theta in row d, so
    every gather is a 1-D fancy index (np.take would copy the lattice's read-only
    index arrays on every call) and every segment sum a 1-D reduceat.
    Returns u (M, d) and theta (M,).
    """
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("need t_end > 0 and dt > 0")
    n_steps = whole_steps(t_end, dt)
    dim = model.dim
    arr = lattice.array.astype(float)
    sq = (arr**2).sum(axis=1)
    nu_u = model.transport.shear / model.rho
    nu_t = model.transport.thermal / (model.rho * model.c_p)
    nu = np.array([nu_u] * dim + [nu_t])[:, None]  # (d+1, 1)
    pk, pl, _, seg, seg_modes = lattice.convolution_pairs()
    lrow = arr[pl].T.copy()  # (d, pairs): component a of l in row a
    zero = lattice.zero_index()

    # leray[a, e, m] = delta_ae - m_a m_e / |m|^2 (the identity at m = 0)
    outer = arr.T[:, None, :] * arr.T[None, :, :]
    leray = np.eye(dim)[:, :, None] - np.divide(outer, sq, out=np.zeros_like(outer), where=sq > 0)

    def tendency(q: np.ndarray) -> np.ndarray:
        """-(P(u.grad u), u.grad theta) on the lattice, as (d+1, M)."""
        dot = q[0][pk] * lrow[0]
        for a in range(1, dim):
            dot += q[a][pk] * lrow[a]
        dot *= 1j  # i u(k).l per pair
        conv = np.zeros_like(q)
        for c in range(dim + 1):
            conv[c, seg_modes] = np.add.reduceat(dot * q[c][pl], seg)
        out = np.empty_like(q)
        out[:dim] = -(leray * conv[:dim]).sum(axis=1)
        out[dim] = -conv[dim]
        out[:, zero] = 0.0
        return out

    q = np.concatenate([np.asarray(u_hat).T, np.asarray(theta_hat)[None]]).astype(complex)
    e = np.exp(-nu * sq * dt)
    h = np.exp(-nu * sq * 0.5 * dt)

    for _ in range(n_steps):
        k1 = tendency(q)
        k2 = tendency(h * (q + 0.5 * dt * k1))
        k3 = tendency(h * q + 0.5 * dt * k2)
        k4 = tendency(h * (h * q + dt * k3))
        q = e * q + (dt / 6.0) * (e * k1 + 2.0 * h * (k2 + k3) + k4)
    return q[:dim].T.copy(), q[dim].copy()


def _transverse_unit(model: CnsModel, lmode) -> np.ndarray:
    lvec = np.asarray(lmode, dtype=float)
    t = np.array([-lvec[1], lvec[0]])
    vec = np.zeros(model.ncomp)
    vec[1:3] = t / np.linalg.norm(t)
    g = model.spec.entropy_hessian
    return vec / math.sqrt(float(vec @ g @ vec))


def _thermo_unit(model: CnsModel) -> np.ndarray:
    vec = np.zeros(model.ncomp)
    vec[0] = model.p_theta
    vec[-1] = -model.p_rho
    g = model.spec.entropy_hessian
    return vec / math.sqrt(float(vec @ g @ vec))


def wcns_coupling_report(model: CnsModel, table) -> dict:
    """Empirical interaction amplitudes of the averaged quadratic operator.

    The mode-sum coefficients of the split system are not transcribed from
    anywhere; they are read off the generic operator through four canonical
    resonant probes (acoustic-in-velocity, two acoustic-in-temperature
    geometries, collinear acoustic-acoustic), each two real fields, at k and
    at l with their mirrors: only the pair (k, l) reaches m = k + l.  Values
    are reported as found, normalized by |m| and the probe geometry, with no
    asserted reference.  The table's own spectrum labels its rows.
    """
    if model.dim != 2:
        raise ValueError("coupling probes are defined for d = 2")
    spectrum, lattice = table.spectrum, table.lattice
    spec = model.spec
    g = spec.entropy_hessian
    report: dict = {
        "sound_speed": model.sound,
        "acoustic_diffusivity": model.diffusivity,
        "couplings": {},
    }
    # (name, k, l, m, vector at l, branches), with the + acoustic eigenvector
    # at k and m: the collinear acoustic-acoustic self interaction, then
    # incompressible velocity (|k| = |m|) and temperature (two geometries)
    # driving an acoustic branch
    thermo = _thermo_unit(model)
    probes = (
        ("acoustic_acoustic", (1, 0), (2, 0), (3, 0), acoustic_basis(model, (2, 0))[0], "+,+ -> +"),
        ("acoustic_velocity", (3, 4), (-3, 1), (0, 5), _transverse_unit(model, (-3, 1)), "+,0 -> +"),
        ("acoustic_thermal_a", (3, 4), (-3, 1), (0, 5), thermo, "+,0 -> +"),
        ("acoustic_thermal_b", (0, 5), (3, -1), (3, 4), thermo, "+,0 -> +"),
    )
    for name, k, l, m, vec_l, branches in probes:
        if not (lattice.contains(k) and lattice.contains(l) and lattice.contains(m)):
            continue
        h_k, _ = acoustic_basis(model, k)
        h_m, _ = acoustic_basis(model, m)
        out = apply_averaged_quadratic(
            spec,
            spectrum,
            table,
            state_from_modes(lattice, model.ncomp, [(k, h_k)]),
            state_from_modes(lattice, model.ncomp, [(l, vec_l)]),
        )
        amp = complex(h_m @ g @ out.coeffs[lattice.index(m)])
        norm_m = math.sqrt(sum(c * c for c in m))
        report["couplings"][name] = {
            "k": list(k), "l": list(l), "branches": branches,
            "raw": [amp.real, amp.imag],
            "normalized": (amp / (1j * norm_m)).real,
        }

    # the (T, 3) branch labels of k, l and m
    patterns, counts = np.unique(spectrum.labels[table.entries[:, 0::2], table.entries[:, 1::2]], axis=0,
                                 return_counts=True)
    symbol = {-1: "-", 0: "0", 1: "+"}
    report["resonance_counts"] = dict(
        sorted(("".join(symbol[s] for s in row), int(n)) for row, n in zip(patterns.tolist(), counts))
    )
    report["n_triples"] = int(len(table.entries))
    return report


PRESETS: dict[str, dict] = {
    "ideal-gas-1d": {"dim": 1, "rho": 1.0, "theta": 1.0, "micro_dim": 3, "shear": 1.0, "bulk": 0.0, "thermal": 1.0},
    "ideal-gas-2d": {"dim": 2, "rho": 1.0, "theta": 1.0, "micro_dim": 3, "shear": 1.0, "bulk": 0.0, "thermal": 1.0},
    "ideal-gas-3d": {"dim": 3, "rho": 1.0, "theta": 1.0, "micro_dim": 3, "shear": 1.0, "bulk": 0.0, "thermal": 1.0},
}


def build_preset(name: str) -> CnsModel:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    params = PRESETS[name]
    eos = ideal_gas(params["micro_dim"])
    transport = TransportCoefficients(
        shear=params["shear"], bulk=params["bulk"], thermal=params["thermal"], micro_dim=params["micro_dim"]
    )
    return build_cns_model(eos, transport, params["rho"], params["theta"], params["dim"])
