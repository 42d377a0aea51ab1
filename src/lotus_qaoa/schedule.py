"""Hybrid Fourier-autoregressive (HFA) schedule generation.

A schedule assigns the circuit angles (gamma_l, beta_l) for layers
l = 1..p. The standard parameterization treats all 2p angles as free; the
HFA generator produces them from a fixed-size hyperparameter vector: a
truncated sine/cosine backbone evaluated on the normalized layer grid
x_l = (l - 1/2) / p, plus a geometrically decaying AR(1) residual per
angle family. The generator dimension is 3K + 4 for K spectral modes and
does not grow with p, so one hyperparameter vector can be resampled at any
depth.

Schedules store the raw angles and derive their mod-2*pi reduction. The
raw values are the smooth trajectory (the Lipschitz certificate and the
circuit consume these); the wrapped values are the canonical angle
representatives. For beta the two are physically identical (the mixer is
2*pi-periodic); for gamma they differ on non-integer cost spectra, which
is why the circuit path sticks to raw values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

TWO_PI = 2.0 * np.pi


def hfa_dimension(k_modes: int) -> int:
    """Length of the HFA hyperparameter vector for K spectral modes."""
    return 3 * k_modes + 4


def standard_dimension(p: int) -> int:
    """Length of the independent-angle vector at depth p."""
    if p < 1:
        raise ValueError(f"need depth p >= 1, got {p}")
    return 2 * p


def layer_grid(p: int) -> np.ndarray:
    """Normalized temporal coordinates x_l = (l - 1/2)/p for l = 1..p."""
    if p < 1:
        raise ValueError(f"need depth p >= 1, got {p}")
    return (np.arange(1, p + 1) - 0.5) / p


@dataclass(frozen=True)
class HfaParams:
    """HFA hyperparameters: spectra, AR terms, and frequency weights.

    Flattened layout (length 3K + 4):
    (a_1..a_K, b_1..b_K, lambda_gamma, lambda_beta, delta_gamma0,
    delta_beta0, w_1..w_K).
    """

    a: np.ndarray
    b: np.ndarray
    lambda_gamma: float
    lambda_beta: float
    delta_gamma0: float
    delta_beta0: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        k = self.a.size
        if k < 1:
            raise ValueError("need at least one spectral mode")
        if self.b.size != k or self.weights.size != k:
            raise ValueError("a, b and weights must share the mode count K")

    @property
    def k_modes(self) -> int:
        return int(self.a.size)

    @property
    def dimension(self) -> int:
        return hfa_dimension(self.k_modes)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([
            self.a,
            self.b,
            [self.lambda_gamma, self.lambda_beta, self.delta_gamma0, self.delta_beta0],
            self.weights,
        ])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "HfaParams":
        v = np.array(v, dtype=np.float64)  # a private copy: the array fields are views of it
        if v.ndim != 1 or v.size < 7 or (v.size - 4) % 3 != 0:
            raise ValueError(f"HFA vector length must be 3K + 4 with K >= 1, got {v.size}")
        k = (v.size - 4) // 3
        lambda_gamma, lambda_beta, delta_gamma0, delta_beta0 = v[2 * k:2 * k + 4].tolist()
        return cls(
            a=v[:k],
            b=v[k:2 * k],
            lambda_gamma=lambda_gamma,
            lambda_beta=lambda_beta,
            delta_gamma0=delta_gamma0,
            delta_beta0=delta_beta0,
            weights=v[2 * k + 4:],
        )


@dataclass(frozen=True)
class Schedule:
    """Realized layer angles.

    Only the raw angles are stored; ``gammas``/``betas`` (their mod-2*pi
    representatives) are derived on access.
    """

    raw_gammas: np.ndarray
    raw_betas: np.ndarray

    def __post_init__(self) -> None:
        gs, bs = np.shape(self.raw_gammas), np.shape(self.raw_betas)
        if len(gs) != 1 or gs != bs:
            raise ValueError(f"need 1-D gammas and betas of one length, got shapes {gs} and {bs}")
        if not gs[0]:
            raise ValueError("need depth p >= 1, got 0")

    @property
    def depth(self) -> int:
        return int(self.raw_gammas.size)

    @property
    def gammas(self) -> np.ndarray:
        return np.mod(self.raw_gammas, TWO_PI)

    @property
    def betas(self) -> np.ndarray:
        return np.mod(self.raw_betas, TWO_PI)


def _ar_residuals(delta0: float, lam: float, p: int) -> np.ndarray:
    """Iterative AR(1): delta_1 = delta0, delta_l = lam * delta_{l-1}."""
    out = [float(delta0)]
    for _ in range(1, p):
        out.append(lam * out[-1])
    return np.array(out)


@cache
def _hfa_basis(k_modes: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """sin(k*pi*x_l) and cos(k*pi*x_l) for k = 1..K on the depth-p grid, (K, p) each (read-only)."""
    k_pi_x = np.pi * np.outer(np.arange(1, k_modes + 1), layer_grid(p))
    basis = np.sin(k_pi_x), np.cos(k_pi_x)
    for table in basis:
        table.flags.writeable = False
    return basis


def hfa_generate(params: HfaParams, p: int) -> Schedule:
    """Realize the HFA schedule at depth p.

    raw_gamma_l = sum_k a_k w_k sin(k*pi*x_l) + lambda_gamma^(l-1) * dg0,
    raw_beta_l  = sum_k b_k w_k cos(k*pi*x_l) + lambda_beta^(l-1) * db0.
    """
    scalars = (params.lambda_gamma, params.lambda_beta, params.delta_gamma0, params.delta_beta0)
    if not all(map(math.isfinite, (*params.a.tolist(), *params.b.tolist(),
                                   *params.weights.tolist(), *scalars))):
        raise ValueError("non-finite HFA parameters")
    sin_basis, cos_basis = _hfa_basis(params.k_modes, p)
    aw = params.a * params.weights
    bw = params.b * params.weights
    raw_gammas = aw @ sin_basis + _ar_residuals(params.delta_gamma0, params.lambda_gamma, p)
    raw_betas = bw @ cos_basis + _ar_residuals(params.delta_beta0, params.lambda_beta, p)
    return Schedule(raw_gammas=raw_gammas, raw_betas=raw_betas)


def standard_unpack(v: np.ndarray, p: int) -> Schedule:
    """Schedule of the independent-angle vector v (gamma block, then beta block), length 2p."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != standard_dimension(p):
        raise ValueError(f"expected a 2p = {standard_dimension(p)} vector, got length {v.size}")
    return Schedule(raw_gammas=v[:p].copy(), raw_betas=v[p:].copy())


def dimension_ratio(k_modes: int, p: int) -> float:
    """(2K + 4) / 2p: the HFA generator's spectral and AR coefficients
    (2K + 4) over the standard parameter count 2p.

    This is not the ratio of search dimensions: the HFA vector also holds
    the K frequency weights, so the search runs in 3K + 4 dimensions,
    (3K + 4) / 2p (1/3 at K = 4 and p = 24, where this ratio is 1/4).
    """
    return (2 * k_modes + 4) / (2 * p)


@dataclass(frozen=True)
class LipschitzReport:
    """Certificate constants per angle family and the worst bound violation.

    The per-layer bound is |raw_{l+1} - raw_l| <= c_spec/p + c_ar*|lam|^(l-1);
    ``max_violation`` is the largest left-minus-right residual over both
    families and all layers (<= 0 up to roundoff whenever |lam| < 1).
    """

    c_spec_gamma: float
    c_ar_gamma: float
    c_spec_beta: float
    c_ar_beta: float
    max_violation: float


def _family_violation(raw: np.ndarray, c_spec: float, c_ar: float, lam: float, p: int) -> float:
    if p == 1:
        return 0.0  # no consecutive layers, nothing to bound
    gaps = np.abs(np.diff(raw))
    bound = c_spec / p + c_ar * np.abs(lam) ** np.arange(p - 1)
    return float(np.max(gaps - bound))


def lipschitz_certificate(params: HfaParams, p: int) -> LipschitzReport:
    """Check the layer-smoothness bound on the raw schedule at depth p.

    c_spec = pi * sum_k k*|a_k*w_k| (analogously with b for beta) and
    c_ar = |delta0|*|1 - lam|. Requires |lam| < 1 for both families.
    """
    if abs(params.lambda_gamma) >= 1 or abs(params.lambda_beta) >= 1:
        raise ValueError("certificate requires |lambda| < 1")
    k = np.arange(1, params.k_modes + 1)
    c_spec_gamma = float(np.pi * np.sum(k * np.abs(params.a * params.weights)))
    c_spec_beta = float(np.pi * np.sum(k * np.abs(params.b * params.weights)))
    c_ar_gamma = abs(params.delta_gamma0) * abs(1.0 - params.lambda_gamma)
    c_ar_beta = abs(params.delta_beta0) * abs(1.0 - params.lambda_beta)
    sched = hfa_generate(params, p)
    violation = max(
        _family_violation(sched.raw_gammas, c_spec_gamma, c_ar_gamma, params.lambda_gamma, p),
        _family_violation(sched.raw_betas, c_spec_beta, c_ar_beta, params.lambda_beta, p),
    )
    return LipschitzReport(
        c_spec_gamma=c_spec_gamma,
        c_ar_gamma=c_ar_gamma,
        c_spec_beta=c_spec_beta,
        c_ar_beta=c_ar_beta,
        max_violation=violation,
    )
