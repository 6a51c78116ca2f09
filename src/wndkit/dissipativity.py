"""Kawashima check and the constructive strict-dissipativity certificate.

The averaged diffusion operator is strictly dissipative when for some
alpha > 0 there is beta > 0 with

    g b(xi) + alpha^-2 a(xi)^T g b(xi) a(xi)  >=  beta g

for every unit direction xi.  With sphere maxima c_adv >= |a(xi)|_g and
c_diff >= |b(xi)|_g this yields the explicit decay rate

    eps   = alpha^4 beta / (alpha^4 beta + c_adv^4 c_diff) * beta / 4
    delta = alpha^2 beta eps / (2 c_adv^2 c_diff + alpha^2 beta),

a lower bound for the smallest generalized eigenvalue of
(-g dbar(xi), |xi|^2 g) at every mode.  The criterion implies the Kawashima
condition (no nonconstant eigenfunction of the advection operator may lie
in the null space of the diffusion operator), which is checked separately
and is the necessary condition for decay.

All direction scans are sampled (the sphere condition is continuous, any
finite check is a relaxation); the report records the sampling density.
Because the sample always contains every lattice direction the certificate
remains a true lower bound on the lattice where it is verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .averaging import AveragedDiffusion
from .directions import lattice_directions, norms, unit_directions
from .spectral import FrequencyLattice, symmetric_advection_eigh
from .system import SystemSpec, advection_symbol, diffusion_symbol

__all__ = [
    "KawashimaWitness",
    "CriterionSearch",
    "DissipativityReport",
    "kawashima_check",
    "sphere_constants",
    "criterion_beta",
    "strict_criterion_search",
    "constructive_delta",
    "verify_delta",
    "analyze_dissipativity",
    "default_alpha_grid",
    "report_directions",
]

KAWASHIMA_NULL_TOL = 1e-10  # relative |b(xi) v| at or below which an advection eigenvector v is undamped


@dataclass(frozen=True)
class KawashimaWitness:
    direction: np.ndarray
    frequency: float
    vector: np.ndarray


def kawashima_check(
    spec: SystemSpec,
    directions: np.ndarray,
) -> tuple[bool, list[KawashimaWitness]]:
    """Test whether any advection eigenvector is annihilated by the diffusion symbol.

    At every sampled direction (one stacked eigensolve), every eigenvector v
    of a(xi) is checked against |b(xi) v| <= KAWASHIMA_NULL_TOL * |b(xi)| |v|;
    matches are returned as witnesses (they correspond to nonconstant
    undamped waves), by direction, then by ascending eigenvalue.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.size == 0:
        raise ValueError("need at least one direction")
    _, inv_root = spec.metric_sqrt()
    bsym = diffusion_symbol(spec, dirs)
    bnorm = np.linalg.norm(bsym, 2, axis=(1, 2))
    evals, vecs = symmetric_advection_eigh(spec, dirs)
    # row c of vecs[i] is eigenvector c; matrix-vector products (gemv) keep the per-vector bits
    vecs = np.matmul(inv_root, vecs.swapaxes(-1, -2)[..., None])[..., 0]
    vecs = vecs / norms(vecs)[..., None]
    undamped = norms(np.matmul(bsym[:, None], vecs[..., None])[..., 0]) <= KAWASHIMA_NULL_TOL * bnorm[:, None]
    witnesses = [
        KawashimaWitness(np.array(dirs[i]), float(evals[i, c]), vecs[i, c]) for i, c in zip(*np.nonzero(undamped))
    ]
    return (len(witnesses) == 0), witnesses


def sphere_constants(spec: SystemSpec, directions: np.ndarray) -> tuple[float, float]:
    """Sampled sphere maxima of the advection and diffusion symbol norms."""
    dirs = np.atleast_2d(directions)
    root, inv_root = spec.metric_sqrt()
    return tuple(
        float(np.linalg.norm(root @ sym @ inv_root, 2, axis=(1, 2)).max())
        for sym in (advection_symbol(spec, dirs), diffusion_symbol(spec, dirs))
    )


def _lowest_eigenvalues(pencils: np.ndarray, metrics: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric (Hermitian) pencil (pencils[i], metrics[i]); one metric may serve all.

    The LAPACK driver that scipy's eigh(a, b, eigvals_only=True) calls by default, fetched once per stack.
    """
    name = "hegvd" if np.iscomplexobj(pencils) else "sygvd"
    solve = get_lapack_funcs(name, (pencils, metrics))
    out = np.empty(len(pencils))
    for i, (pencil, metric) in enumerate(zip(pencils, np.broadcast_to(metrics, pencils.shape))):
        w, _, info = solve(pencil, metric, itype=1, jobz="N", uplo="L")
        if info:
            raise LinAlgError(f"{name} failed on pencil {i} (info = {info})")
        out[i] = w[0]
    return out


def _betas(spec: SystemSpec, alphas: np.ndarray | list[float], directions: np.ndarray) -> np.ndarray:
    """beta_by_direction at every alpha, shape (alphas, directions); the symbols are evaluated once."""
    dirs = np.atleast_2d(directions)
    g = spec.entropy_hessian
    a = advection_symbol(spec, dirs)
    gb = g @ diffusion_symbol(spec, dirs)
    coupled = a.swapaxes(-1, -2) @ gb @ a
    out = np.empty((len(alphas), len(dirs)))
    for i, alpha in enumerate(alphas):
        mat = gb + coupled / alpha**2
        out[i] = _lowest_eigenvalues(0.5 * (mat + mat.swapaxes(-1, -2)), g)
    return out


def beta_by_direction(spec: SystemSpec, alpha: float, directions: np.ndarray) -> np.ndarray:
    """Per-direction smallest generalized eigenvalue of the criterion pencil

        (g b(xi) + alpha^-2 a(xi)^T g b(xi) a(xi),  g).
    """
    return _betas(spec, [alpha], directions)[0]


def criterion_beta(spec: SystemSpec, alpha: float, directions: np.ndarray) -> float:
    """Worst direction of the criterion pencil: min of beta_by_direction."""
    return float(beta_by_direction(spec, alpha, directions).min())


def constructive_delta(alpha: float, beta: float, c_adv: float, c_diff: float) -> tuple[float, float]:
    """Explicit (epsilon, delta) with epsilon at its admissible cap.

    Any smaller epsilon would also certify decay; the cap maximizes delta.
    Always 0 < delta < epsilon < beta / 4.
    """
    if min(alpha, beta, c_adv, c_diff) <= 0.0:
        raise ValueError("all certificate inputs must be positive")
    epsilon = (alpha**4 * beta) / (alpha**4 * beta + c_adv**4 * c_diff) * (beta / 4.0)
    delta = (alpha**2 * beta * epsilon) / (2.0 * c_adv**2 * c_diff + alpha**2 * beta)
    return epsilon, delta


def default_alpha_grid(count: int = 32) -> np.ndarray:
    return np.logspace(-2.0, 2.0, count)


@dataclass(frozen=True)
class CriterionSearch:
    ok: bool
    alpha: float
    beta: float
    c_adv: float
    c_diff: float
    epsilon: float
    delta: float
    beta_by_alpha: tuple[tuple[float, float], ...] = ()
    beta_per_direction: tuple[float, ...] = ()  # at the chosen alpha, in direction order


def strict_criterion_search(
    spec: SystemSpec,
    directions: np.ndarray,
    alphas: np.ndarray | None = None,
) -> CriterionSearch:
    """Scan the alpha grid and keep the (alpha, beta) pair maximizing delta.

    The symbols are evaluated once per direction for the whole grid.
    Failure (beta <= 0 for every alpha) is reported in the result, not
    raised: a system without the property is a finding, not an error.
    """
    if alphas is None:
        alphas = default_alpha_grid()
    alphas = np.asarray(alphas, dtype=float)
    if (alphas <= 0).any():
        raise ValueError("alpha grid must be positive")
    c_adv, c_diff = sphere_constants(spec, directions)
    # the certificate only needs valid upper bounds; a vanishing sampled
    # maximum (zero symbol) is floored so the formulas stay usable
    c_adv = max(c_adv, 1e-30)
    c_diff = max(c_diff, 1e-30)
    betas = _betas(spec, alphas, directions)
    pairs = tuple((float(alpha), float(values.min())) for alpha, values in zip(alphas, betas))
    certified = [
        (constructive_delta(alpha, beta, c_adv, c_diff), i) for i, (alpha, beta) in enumerate(pairs) if beta > 0.0
    ]
    if not certified:
        return CriterionSearch(False, float("nan"), 0.0, c_adv, c_diff, 0.0, 0.0, pairs)
    # max keeps the first of equal deltas: ties go to the smallest alpha index
    (epsilon, delta), i = max(certified, key=lambda item: item[0][1])
    alpha, beta = pairs[i]
    return CriterionSearch(True, alpha, beta, c_adv, c_diff, epsilon, delta, pairs, tuple(betas[i].tolist()))


def verify_delta(spec: SystemSpec, avg: AveragedDiffusion) -> float:
    """Empirical decay rate: min over nonzero modes of lambda_min(-g dbar(xi), |xi|^2 g).

    The constructive delta is a lower bound for this number wherever the
    criterion directions contained the lattice directions.  Only the positive
    half is solved: a mirror mode's block is the conjugate, with the same eigenvalues.
    """
    g = spec.entropy_hessian
    upper = avg.lattice.upper
    sq = (avg.lattice.array[upper].astype(float) ** 2).sum(axis=1)
    gd = g @ avg.blocks[upper]
    herm = -0.5 * (gd + gd.conj().swapaxes(-1, -2))
    return float(_lowest_eigenvalues(herm, sq[:, None, None] * g).min(initial=np.inf))


@dataclass(frozen=True)
class DissipativityReport:
    kawashima_ok: bool
    witnesses: tuple[KawashimaWitness, ...]
    alpha: float
    beta: float
    c_adv: float
    c_diff: float
    epsilon: float
    delta: float
    delta_empirical: float
    n_directions: int
    criterion_ok: bool
    beta_by_alpha: tuple[tuple[float, float], ...] = field(default=())
    beta_per_direction: tuple[tuple[tuple[float, ...], float], ...] = field(default=())

    def as_dict(self) -> dict:
        return {
            "kawashima_ok": self.kawashima_ok,
            "n_witnesses": len(self.witnesses),
            "alpha": self.alpha,
            "beta": self.beta,
            "c_adv": self.c_adv,
            "c_diff": self.c_diff,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "delta_empirical": self.delta_empirical,
            "n_directions": self.n_directions,
            "criterion_ok": self.criterion_ok,
        }


def report_directions(spec: SystemSpec, lattice: FrequencyLattice, extra: int) -> np.ndarray:
    """Direction sample: every lattice direction plus a deterministic sphere set."""
    return np.concatenate([unit_directions(spec.dim, extra), lattice_directions(lattice.array)])


def analyze_dissipativity(
    spec: SystemSpec,
    lattice: FrequencyLattice,
    avg: AveragedDiffusion,
    alphas: np.ndarray | None = None,
    extra_directions: int = 200,
) -> DissipativityReport:
    """Full certificate pipeline: Kawashima, criterion search, empirical rate."""
    dirs = report_directions(spec, lattice, extra_directions)
    kawashima_ok, witnesses = kawashima_check(spec, dirs)
    search = strict_criterion_search(spec, dirs, alphas)
    # empty unless the criterion holds
    per_direction = tuple(
        (tuple(float(c) for c in xi), v) for xi, v in zip(dirs, search.beta_per_direction)
    )
    return DissipativityReport(
        kawashima_ok=kawashima_ok,
        witnesses=tuple(witnesses),
        alpha=search.alpha,
        beta=search.beta,
        c_adv=search.c_adv,
        c_diff=search.c_diff,
        epsilon=search.epsilon,
        delta=search.delta if search.ok else 0.0,
        delta_empirical=verify_delta(spec, avg),
        n_directions=len(dirs),
        criterion_ok=search.ok,
        beta_by_alpha=search.beta_by_alpha,
        beta_per_direction=per_direction,
    )
