"""Constant-state symbol data for entropic hyperbolic-parabolic systems.

A system is described near a constant state by four tensors in the chosen
working variables W:

    advection        a[d, N, N]     first-order flux linearization
    diffusion        b[d, d, N, N]  second-order dissipation tensor
    quadratic        q[d, N, N, N]  symmetric quadratic flux kernel
    entropy_hessian  g[N, N]        SPD metric of the entropy inner product

The entropy structure requires, for every direction xi,

    g symmetric positive definite,
    g . a(xi)      symmetric,
    g . b(xi, xi)  symmetric nonnegative,

which makes the advection symbol a skew generator and the diffusion symbol
nonpositive in the g inner product.  Everything downstream (spectral
decomposition, resonance averaging, dissipativity certificates) consumes
only this data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .directions import norms, unit_directions

__all__ = [
    "SystemSpec",
    "EntropyReport",
    "SpecShapeError",
    "advection_symbol",
    "diffusion_symbol",
    "validate_entropy_structure",
    "change_of_variables",
    "spec_to_dict",
    "spec_from_dict",
]

# validate_entropy_structure: sampled unit directions and relative pass thresholds
ENTROPY_DIRECTIONS = 64
TOL_SYM = 1e-10
TOL_PSD = 1e-10
CONDITION_CAP = 1e10  # change_of_variables rejects transforms with a larger condition number


class SpecShapeError(ValueError):
    """Tensor shapes or symmetries inconsistent with the declared sizes."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class SystemSpec:
    """Immutable symbol data of one system at one constant state.

    Instances are safe to share; all operations on them are pure
    functions.  Arrays are copied and frozen at construction.
    """

    dim: int
    ncomp: int
    state: np.ndarray
    advection: np.ndarray
    diffusion: np.ndarray
    quadratic: np.ndarray
    entropy_hessian: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        d, n = int(self.dim), int(self.ncomp)
        if d < 1 or n < 1:
            raise SpecShapeError("dim and ncomp must be positive")
        self.dim, self.ncomp = d, n
        self.state = _readonly(np.broadcast_to(np.asarray(self.state, dtype=float), (n,)))
        shapes = {
            "advection": (d, n, n),
            "diffusion": (d, d, n, n),
            "quadratic": (d, n, n, n),
            "entropy_hessian": (n, n),
        }
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise SpecShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            setattr(self, name, _readonly(arr))
        q = self.quadratic
        if not np.allclose(q, np.swapaxes(q, 2, 3), rtol=0.0, atol=1e-13 * max(1.0, float(np.abs(q).max()))):
            raise SpecShapeError("quadratic kernel must be symmetric in its last two indices")
        if self.labels:
            self.labels = tuple(str(s) for s in self.labels)
        self._metric_cache: tuple[np.ndarray, np.ndarray] | None = None

    def metric_sqrt(self) -> tuple[np.ndarray, np.ndarray]:
        """(g^{1/2}, g^{-1/2}) via symmetric eigendecomposition, cached."""
        if self._metric_cache is None:
            g = 0.5 * (self.entropy_hessian + self.entropy_hessian.T)
            evals, vecs = np.linalg.eigh(g)
            if evals.min() <= 0.0:
                raise SpecShapeError("entropy Hessian is not positive definite")
            root = (vecs * np.sqrt(evals)) @ vecs.T
            inv_root = (vecs / np.sqrt(evals)) @ vecs.T
            self._metric_cache = (_readonly(root), _readonly(inv_root))
        return self._metric_cache


def _check_direction(spec: SystemSpec, xi: Sequence[float] | np.ndarray) -> np.ndarray:
    vec = np.asarray(xi, dtype=float)
    if vec.ndim < 1 or vec.shape[-1] != spec.dim:
        raise SpecShapeError(f"direction has shape {vec.shape}, expected (..., {spec.dim})")
    return vec


def advection_symbol(spec: SystemSpec, xi: Sequence[float] | np.ndarray) -> np.ndarray:
    """First-order symbol sum_a xi_a * advection[a]; linear in xi.  Stacks: xi (..., d) -> (..., N, N)."""
    vec = _check_direction(spec, xi)
    return np.einsum("...a,aij->...ij", vec, spec.advection)


def diffusion_symbol(spec: SystemSpec, xi: Sequence[float] | np.ndarray) -> np.ndarray:
    """Second-order symbol sum_ab xi_a xi_b * diffusion[a][b]; quadratic in xi.  Stacks like advection_symbol."""
    vec = _check_direction(spec, xi)
    return np.einsum("...a,...b,abij->...ij", vec, vec, spec.diffusion)


@dataclass(frozen=True)
class EntropyReport:
    """Worst-case residuals of the entropy-structure checks over sampled directions."""

    passed: bool
    worst_direction: np.ndarray
    min_entropy_eigenvalue: float
    max_asymmetry: float
    min_diffusion_eigenvalue: float
    tol_sym: float
    tol_psd: float
    n_directions: int

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "worst_direction": [float(x) for x in self.worst_direction],
            "min_entropy_eigenvalue": self.min_entropy_eigenvalue,
            "max_asymmetry": self.max_asymmetry,
            "min_diffusion_eigenvalue": self.min_diffusion_eigenvalue,
            "tol_sym": self.tol_sym,
            "tol_psd": self.tol_psd,
            "n_directions": self.n_directions,
        }


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:  # 0 where den is 0
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def validate_entropy_structure(
    spec: SystemSpec,
) -> EntropyReport:
    """Scan unit directions for violations of the entropy structure.

    Residuals are relative: asymmetry is measured against the symbol norm and
    the most negative diffusion eigenvalue against the diffusion symbol norm,
    so the pass thresholds are scale free.  All directions are evaluated as
    one stack.  The report carries the worst offending direction: the last
    one that set a new asymmetry or negativity record.
    """
    g = spec.entropy_hessian
    min_eig_g = float(np.linalg.eigvalsh(0.5 * (g + g.T)).min())
    dirs = unit_directions(spec.dim, ENTROPY_DIRECTIONS)
    ga = g @ advection_symbol(spec, dirs)
    gb = g @ diffusion_symbol(spec, dirs)
    # Frobenius norms of g a(xi), of its skew part, of g b(xi) and of its skew part
    size_a, skew_a, size_b, skew_b = norms(
        np.stack([ga, ga - ga.swapaxes(1, 2), gb, gb - gb.swapaxes(1, 2)]).reshape(4, len(dirs), -1)
    )
    asym = np.maximum(_ratio(skew_a, size_a), _ratio(skew_b, size_b))
    neg = _ratio(np.linalg.eigvalsh(0.5 * (gb + gb.swapaxes(1, 2))).min(axis=1), size_b)
    # records against the running extremes, which start at zero
    top_asym = np.maximum.accumulate(np.concatenate([[0.0], asym]))
    low_neg = np.minimum.accumulate(np.concatenate([[0.0], neg]))
    records = np.flatnonzero((asym > top_asym[:-1]) | (neg < low_neg[:-1]))
    worst_asym, worst_neg = float(top_asym[-1]), float(low_neg[-1])

    passed = (min_eig_g > 0.0) and (worst_asym <= TOL_SYM) and (worst_neg >= -TOL_PSD)
    return EntropyReport(
        passed=passed,
        worst_direction=np.array(dirs[records[-1] if records.size else 0]),
        min_entropy_eigenvalue=min_eig_g,
        max_asymmetry=worst_asym,
        min_diffusion_eigenvalue=worst_neg,
        tol_sym=TOL_SYM,
        tol_psd=TOL_PSD,
        n_directions=len(dirs),
    )


def change_of_variables(spec: SystemSpec, transform: np.ndarray) -> SystemSpec:
    """Conjugate all symbol tensors by a linear change of working variables.

    With perturbations related by w = t w', the primed tensors are

        a' = t^-1 a t,   b' = t^-1 b t,   q'(.,.) = t^-1 q(t ., t .),
        g' = t^T g t,

    so the averaged operators built from the primed spec are the t-conjugates
    of the originals.  The constant state is carried through unchanged (the
    nonlinear base-state map is the caller's concern).
    """
    t = np.asarray(transform, dtype=float)
    n = spec.ncomp
    if t.shape != (n, n):
        raise SpecShapeError(f"transform has shape {t.shape}, expected ({n}, {n})")
    svals = np.linalg.svd(t, compute_uv=False)
    if svals.min() <= 0.0 or svals.max() / svals.min() > CONDITION_CAP:
        raise np.linalg.LinAlgError("change-of-variables matrix is singular or ill-conditioned")
    t_inv = np.linalg.inv(t)
    adv = np.einsum("ip,apq,qj->aij", t_inv, spec.advection, t)
    diff = np.einsum("ip,abpq,qj->abij", t_inv, spec.diffusion, t)
    quad = np.einsum("ip,apqr,qj,rk->aijk", t_inv, spec.quadratic, t, t)
    quad = 0.5 * (quad + np.swapaxes(quad, 2, 3))
    ghess = t.T @ spec.entropy_hessian @ t
    return SystemSpec(
        dim=spec.dim,
        ncomp=n,
        state=spec.state,
        advection=adv,
        diffusion=diff,
        quadratic=quad,
        entropy_hessian=0.5 * (ghess + ghess.T),
        labels=spec.labels,
    )


def _tensor_entry(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel(order="C")]}


def _tensor_from_entry(entry: dict) -> np.ndarray:
    data = np.asarray(entry["data"], dtype=float)
    return data.reshape(tuple(int(s) for s in entry["shape"]), order="C")


def spec_to_dict(spec: SystemSpec) -> dict:
    """Serializable mapping; tensors stored flat row-major with explicit shapes."""
    out = {
        "dim": spec.dim,
        "ncomp": spec.ncomp,
        "state": [float(x) for x in spec.state],
        "advection": _tensor_entry(spec.advection),
        "diffusion": _tensor_entry(spec.diffusion),
        "quadratic": _tensor_entry(spec.quadratic),
        "entropy_hessian": _tensor_entry(spec.entropy_hessian),
    }
    if spec.labels:
        out["labels"] = list(spec.labels)
    return out


def spec_from_dict(payload: dict) -> SystemSpec:
    try:
        return SystemSpec(
            dim=int(payload["dim"]),
            ncomp=int(payload["ncomp"]),
            state=np.asarray(payload["state"], dtype=float),
            advection=_tensor_from_entry(payload["advection"]),
            diffusion=_tensor_from_entry(payload["diffusion"]),
            quadratic=_tensor_from_entry(payload["quadratic"]),
            entropy_hessian=_tensor_from_entry(payload["entropy_hessian"]),
            labels=tuple(payload.get("labels", ())),
        )
    except KeyError as exc:
        raise SpecShapeError(f"missing spec field: {exc}") from exc
