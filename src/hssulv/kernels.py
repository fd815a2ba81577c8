"""Green's-function kernels that generate dense matrix blocks on demand.

Three radial kernels are supported, each regularized so that coincident
points stay finite:

* ``laplace2d``: ``-log(epsilon + d)``
* ``yukawa``:    ``exp(-alpha * (theta + d)) / (theta + d)``
* ``matern``:    ``sigma^2 / (2^(rho-1) Gamma(rho)) * (d/mu)^sigma * K_sigma(d/mu)``
  for ``d > 0`` and ``sigma^2`` at ``d == 0``.

Note the matern form is intentionally nonstandard: ``sigma`` acts both as
the variance and as the order of the modified Bessel function of the
second kind, while ``rho`` only enters the normalizing prefactor.  Callers
wanting the textbook Matern covariance must remap parameters themselves.

All evaluations are pure functions of immutable inputs and safe to call
concurrently.  :func:`kernel_matrix` evaluates the kernel over the
distance block it computes, in place, so the result is its only
full-size array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import gamma, k1, kv

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "KernelEvaluationError",
    "kernel_matrix",
]

KERNEL_KINDS = ("laplace2d", "yukawa", "matern")


class KernelEvaluationError(ArithmeticError):
    """A kernel evaluation produced a non-finite value."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selector plus constants; unused constants keep their defaults."""

    kind: str
    epsilon: float = 1e-9
    alpha: float = 1.0
    theta: float = 1e-9
    sigma: float = 1.0
    mu: float = 0.03
    rho: float = 0.5

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; choose from {KERNEL_KINDS}")
        for name in ("epsilon", "alpha", "theta", "sigma", "mu", "rho"):
            if getattr(self, name) <= 0:
                raise ValueError(f"kernel constant {name} must be strictly positive")


# Entries of the distance buffer evaluated at a time by the yukawa and
# matern kernels, which bounds their temporaries to a few such chunks
# however large the block.
_CHUNK_ENTRIES = 1 << 15


def _eval_distances(spec: KernelSpec, d: np.ndarray) -> np.ndarray:
    """Kernel values of the 2-D distance block ``d``, written over ``d``."""
    if spec.kind == "laplace2d":
        np.add(d, spec.epsilon, out=d)
        np.log(d, out=d)
        return np.negative(d, out=d)
    rows = max(1, _CHUNK_ENTRIES // max(d.shape[1], 1))
    chunk = _yukawa if spec.kind == "yukawa" else _matern
    for start in range(0, d.shape[0], rows):
        chunk(spec, d[start:start + rows])
    return d


def _yukawa(spec: KernelSpec, d: np.ndarray):
    shifted = np.add(d, spec.theta, out=d)
    vals = -spec.alpha * shifted
    np.divide(np.exp(vals, out=vals), shifted, out=d)


def _matern(spec: KernelSpec, d: np.ndarray):
    pref = spec.sigma**2 / (2.0 ** (spec.rho - 1.0) * gamma(spec.rho))
    if spec.sigma == 1.0:
        # Order one, the default, has its own faster Bessel routine and is
        # evaluated in place: pref * t * k1(t) for t = d / mu, the product
        # in the same order, so the values are those of the general form.
        t = d / spec.mu
        with np.errstate(over="ignore", invalid="ignore"):
            k1(t, out=d)
            d *= pref * t
        # the zero-distance branch is handled exactly
        d[~(t > 0)] = spec.sigma**2
        bad = ~np.isfinite(d)
        if np.any(bad):  # d now holds values: the distance is t * mu again
            _non_finite(spec, t[bad][0] * spec.mu)
        return
    # the zero-distance branch is handled exactly
    pos = d > 0
    if np.any(pos):
        t = d[pos] / spec.mu
        with np.errstate(over="ignore", invalid="ignore"):
            # non-finite results are caught explicitly below
            vals = pref * t**spec.sigma * kv(spec.sigma, t)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            _non_finite(spec, d[pos][bad][0])
        d[pos] = vals
    d[~pos] = spec.sigma**2


def _non_finite(spec: KernelSpec, distance: float):
    raise KernelEvaluationError(
        f"modified Bessel evaluation is non-finite at distance {distance!r} "
        f"(sigma={spec.sigma}, mu={spec.mu})"
    )


def kernel_matrix(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense kernel block ``K[a, b] = f(x[a], y[b])`` with Euclidean distance."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return _eval_distances(spec, cdist(x, y))
