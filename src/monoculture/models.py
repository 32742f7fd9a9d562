"""Noisy ranking models: distance-based, random-utility, and Plackett-Luce.

The distance-based model weights a ranking by phi^(-d) where d counts the
pairwise disagreements with the true order; phi > 1 so the true order is
the mode. Random-utility models (RUMs) rank candidates by value plus scaled
noise; the Plackett-Luce model picks candidates sequentially in proportion
to exp(theta * value). Accuracy theta > 0 is shared across families, with
theta = phi - 1 for the distance-based family. Laplacian noise is
numpy's sampler's own, vectorized by `_laplace`.

scipy is imported inside the functions that need it (gaussian cdf, the
gaussian conditional order probability), so importing the package does
not load it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .permspace import perm_space

# unit-variance scale parameters for the continuous noise kinds
LAPLACE_SCALE = 1.0 / math.sqrt(2.0)
GUMBEL_SCALE = math.sqrt(6.0) / math.pi

_ATOM_PROB_TOL = 1e-12
# largest exponent whose exp is finite; the gumbel double exponential is
# clipped here, which changes no value that did not overflow
_MAX_EXP_ARG = math.log(sys.float_info.max)
_BLOCK = 1 << 14  # uniforms per pass of `_laplace`, so a block stays in cache


def _laplace(rng: np.random.Generator, size, scale: float) -> np.ndarray:
    """rng.laplace(0.0, scale, size) from the same uniforms, by numpy's formula over blocks of
    `rng.random(out=...)`, within 2 ulp as np.log may round unlike libm. On a uniform of
    exactly 0.0, which numpy redraws, the rng rewinds and numpy's sampler draws."""
    state = rng.bit_generator.state
    out = np.empty(size)
    for start in range(0, out.size, _BLOCK):
        u = out.reshape(-1)[start:start + _BLOCK]
        rng.random(out=u)
        if not u.all():
            rng.bit_generator.state = state
            return rng.laplace(0.0, scale, size)
        # sign(0.5 - u) scale log(min(2 - u - u, u + u))
        tail = 2.0 - u  # the one temporary
        tail -= u
        u += u
        np.log(np.minimum(u, tail, out=tail), out=tail)
        np.less_equal(u, 1.0, out=u)  # 1 where u <= 0.5, else 0; then +-scale
        u *= 2.0 * scale
        u -= scale
        u *= tail
    return out


class TieError(ValueError):
    """Two candidates received exactly equal perturbed values."""


class UnsupportedNoiseError(ValueError):
    """The noise kind cannot be used with the requested operation."""


class UnsupportedModelError(ValueError):
    """The model has no tractable exact path; use the Monte Carlo estimators."""


@dataclass(frozen=True)
class NoiseSpec:
    """Noise distribution for random-utility models.

    Continuous kinds (gaussian, laplacian, gumbel) are normalized to unit
    variance before the 1/theta scaling, so theta alone carries accuracy.
    Discrete noise is a finite list of (value, probability) atoms taken as
    given; probabilities must sum to 1 within 1e-12.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] | None = None

    _KINDS = ("gaussian", "laplacian", "gumbel", "discrete")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise UnsupportedNoiseError(f"unknown noise kind {self.kind!r}")
        if self.kind == "discrete":
            if not self.atoms:
                raise UnsupportedNoiseError("discrete noise needs atoms")
            atoms = tuple((float(v), float(p)) for v, p in self.atoms)
            object.__setattr__(self, "atoms", atoms)
            if not np.isfinite(atoms).all():
                raise UnsupportedNoiseError(f"atoms must be finite, got {atoms}")
            values = [v for v, _ in atoms]
            if len(set(values)) != len(values):
                raise UnsupportedNoiseError(f"duplicate atom values in {values}")
            if any(p <= 0 for _, p in atoms):
                raise UnsupportedNoiseError("atom probabilities must be positive")
            total = math.fsum(p for _, p in atoms)
            if abs(total - 1.0) > _ATOM_PROB_TOL:
                raise UnsupportedNoiseError(f"atom probabilities sum to {total!r}, not 1")
        elif self.atoms is not None:
            raise UnsupportedNoiseError(f"{self.kind} noise takes no atoms")

    @staticmethod
    def gaussian() -> "NoiseSpec":
        return NoiseSpec("gaussian")

    @staticmethod
    def laplacian() -> "NoiseSpec":
        return NoiseSpec("laplacian")

    @staticmethod
    def gumbel() -> "NoiseSpec":
        return NoiseSpec("gumbel")

    @staticmethod
    def discrete(atoms) -> "NoiseSpec":
        return NoiseSpec("discrete", tuple(atoms))

    @property
    def is_continuous(self) -> bool:
        return self.kind != "discrete"

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(size)
        if self.kind == "laplacian":
            return _laplace(rng, size, LAPLACE_SCALE)
        if self.kind == "gumbel":
            return rng.gumbel(0.0, GUMBEL_SCALE, size)
        values = np.array([v for v, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        probs = probs / probs.sum()
        return rng.choice(values, size=size, p=probs)

    def logpdf(self, z: np.ndarray | float) -> np.ndarray | float:
        z = np.asarray(z, dtype=float)
        if self.kind == "gaussian":
            return -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
        if self.kind == "laplacian":
            return -np.abs(z) / LAPLACE_SCALE - math.log(2.0 * LAPLACE_SCALE)
        if self.kind == "gumbel":
            u = z / GUMBEL_SCALE
            return -u - np.exp(np.minimum(-u, _MAX_EXP_ARG)) - math.log(GUMBEL_SCALE)
        raise UnsupportedNoiseError("discrete noise has no density")

    def pdf(self, z):
        return np.exp(self.logpdf(z))

    def cdf(self, z: np.ndarray | float) -> np.ndarray | float:
        z = np.asarray(z, dtype=float)
        if self.kind == "gaussian":
            from scipy import special

            return special.ndtr(z)
        if self.kind == "laplacian":
            u = z / LAPLACE_SCALE
            half_tail = 0.5 * np.exp(-np.abs(u))
            return np.where(u < 0, half_tail, 1.0 - half_tail)
        if self.kind == "gumbel":
            return np.exp(-np.exp(np.minimum(-z / GUMBEL_SCALE, _MAX_EXP_ARG)))
        raise UnsupportedNoiseError("discrete noise cdf not provided")


@dataclass(frozen=True)
class RankingModelSpec:
    """A ranking model family member: kind, accuracy theta, optional noise."""

    kind: str
    theta: float
    noise: NoiseSpec | None = None

    _KINDS = ("mallows", "rum", "plackett_luce")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise UnsupportedModelError(f"unknown model kind {self.kind!r}")
        if not 0 < self.theta < math.inf:  # NaN fails too
            raise UnsupportedModelError(f"need theta > 0 and finite, got {self.theta}")
        if self.kind == "rum" and self.noise is None:
            raise UnsupportedModelError("rum needs noise")
        if self.kind != "rum" and self.noise is not None:
            raise UnsupportedModelError(f"{self.kind} takes no noise")

    @staticmethod
    def mallows(phi: float) -> "RankingModelSpec":
        """Dispersion phi at accuracy phi - 1, so phi > 1 is the rule theta > 0."""
        return RankingModelSpec("mallows", phi - 1.0)

    @staticmethod
    def rum(noise: NoiseSpec, theta: float) -> "RankingModelSpec":
        return RankingModelSpec("rum", float(theta), noise)

    @staticmethod
    def plackett_luce(theta: float) -> "RankingModelSpec":
        return RankingModelSpec("plackett_luce", float(theta))

    @property
    def phi(self) -> float:
        if self.kind != "mallows":
            raise UnsupportedModelError(f"phi is defined for mallows, not {self.kind}")
        return self.theta + 1.0

    def with_theta(self, theta: float) -> "RankingModelSpec":
        return RankingModelSpec(self.kind, float(theta), self.noise)

    @property
    def value_independent(self) -> bool:
        """Whether the ranking distribution ignores the pool values."""
        return self.kind == "mallows"


def mallows_perm_probs(phi: float, n: int) -> np.ndarray:
    """Probabilities of all n! rankings, aligned with perm_space(n) rows."""
    space = perm_space(n)
    weights = phi ** (-space.inversions.astype(float))
    return weights / weights.sum()


def conditional_order_probability(
    noise: NoiseSpec, xi: float, xj: float, theta: float, a: float
) -> float:
    """Pr[better candidate outranks worse | both perturbed values below a].

    Perturbed values are X = x + eps/theta with unit-variance noise. The
    laplacian kind has a closed form in three ranges of the cutoff a. The
    gaussian kind substitutes u = F_i(x)/F_i(a) and integrates the bounded
    transform over [0, 1]; integrating pdf_i * cdf_j over (-inf, a]
    directly loses the mass bump once a sits far from xi.
    """
    if noise.kind not in ("gaussian", "laplacian"):
        raise UnsupportedNoiseError(
            f"conditional order probability supports gaussian and laplacian, got {noise.kind}"
        )
    if not xi > xj:
        raise ValueError(f"need xi > xj, got {xi} <= {xj}")
    RankingModelSpec.rum(noise, theta)  # UnsupportedModelError unless 0 < theta < inf

    if noise.kind == "laplacian":
        lam = math.sqrt(2.0) * theta
        if a <= xj:
            return 0.5
        if a <= xi:
            u = lam * (a - xj)
            return 1.0 - (0.5 + u) / (2.0 * math.exp(u) - 1.0)
        d = lam * (xi - xj)
        ti, tj = lam * (a - xi), lam * (a - xj)
        num = (
            1.0
            - (0.5 + 0.25 * d) * math.exp(-d)
            - 0.5 * math.exp(-ti)
            + 0.125 * math.exp(-(ti + tj))
        )
        den = (
            1.0
            - 0.5 * math.exp(-ti)
            - 0.5 * math.exp(-tj)
            + 0.25 * math.exp(-(ti + tj))
        )
        return num / den

    from scipy import integrate, special

    s = 1.0 / theta
    fi_a = special.ndtr((a - xi) / s)
    fj_a = special.ndtr((a - xj) / s)
    if fi_a <= 0.0 or fj_a <= 0.0:
        raise ValueError(f"conditioning event below a={a} has vanishing mass")

    def integrand(u: float) -> float:
        # x is the u-quantile of X_i truncated to (-inf, a]
        x = xi + s * special.ndtri(u * fi_a)
        return float(special.ndtr((x - xj) / s))

    num, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=300)
    return num / fj_a


_WELL_ORDERED_TOL = 1e-12


def well_ordered_check(noise: NoiseSpec, a: float, b: float, c: float, d: float) -> bool:
    """Whether f(a-c) f(b-d) >= f(a-d) f(b-c) holds for this noise density.

    Requires a > b and c > d. The comparison runs in log space and treats
    equality (within 1e-12) as holding: the laplacian density satisfies the
    inequality with exact equality whenever c and d both fall on the same
    side outside [b, a], and strictly otherwise; the gaussian margin is the
    factor exp((a-b)(c-d)) > 1, always strict.
    """
    if not a > b:
        raise ValueError(f"need a > b, got {a} <= {b}")
    if not c > d:
        raise ValueError(f"need c > d, got {c} <= {d}")
    if not noise.is_continuous:
        raise UnsupportedNoiseError("well-orderedness needs a noise density")
    lhs = float(noise.logpdf(a - c) + noise.logpdf(b - d))
    rhs = float(noise.logpdf(a - d) + noise.logpdf(b - c))
    return lhs >= rhs - _WELL_ORDERED_TOL
