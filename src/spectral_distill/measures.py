"""Mixture weights, density-ratio polynomials, and the weighted Gram system.

The mixture F_alpha = omega0 F_MP + sum_j omega_j F_{delta_j} carries
the signal's alignment with the spike directions. The affine ratios nu_j
and their products nu, nu_{-j} turn every risk functional into
polynomial algebra; mu_j and mu_0 are the densities of F_{delta_j} and
F_MP with respect to F_alpha. On top of those sit the weight w, the
target g and the basis h_j, evaluated here only at the grid's points
(`_mu_all`, `_target_and_basis`; at an outlier, where mu_0 = 0, w needs
no mu), and the Gram matrix H of the x*w-weighted inner product, which
`SpectralGrid.integrate` sums over bulk and atoms alike. Their checked
pointwise forms (`mu_j`, `weight_w`, `target_g`, `basis_h`, `inner_w`)
are the tests' references, in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectra
from .errors import NumericalError
from .spectra import SpikedModel, get_grid, mixture_weights


@dataclass(frozen=True)
class RnPolynomials:
    """Affine ratios nu_j and their products, kept in factored form.

    nu_j(x) = delta_j (x_star_j - x) / (c sigma0^2 (delta_j + sigma0^2)),
    nu = prod_j nu_j (degree s), nu_minus[i] = prod_{j != i} nu_j (degree
    s-1). `affine` holds each nu_j as ascending coefficients (p_j, q_j);
    evaluation goes through the factored form scale_j * (x_star_j - x),
    so nu_j vanishes exactly at its outlier.
    """

    affine: tuple[tuple[float, float], ...]
    xstars: tuple[float, ...]
    scales: tuple[float, ...]

    @property
    def nu_lead(self) -> float:
        """Leading coefficient of nu, prod_j (-scale_j)."""
        return math.prod(-sc for sc in self.scales)

    def nu(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for sc, xs in zip(self.scales, self.xstars):
            out = out * (sc * (xs - x))
        return out

    def nu_minus(self, i: int, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for j, (sc, xs) in enumerate(zip(self.scales, self.xstars)):
            if j != i:
                out = out * (sc * (xs - x))
        return out

    def combination(self, coeffs, x, dcoeffs=None):
        """Value and slope of coeffs[0] nu(x) + sum_j coeffs[j] nu_{-j}(x)
        (j = 1..s).

        nu_{-j} is the product of the factors before j times those after
        it, so running products give every term in O(s) array products,
        and the product rule on the same running products gives the
        slope. dcoeffs, the slopes of coefficients that vary with x, add
        their own combination to the slope. A Python float x is evaluated
        in floats, without numpy overhead.
        """
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
        factors = [sc * (xs - x) for sc, xs in zip(self.scales, self.xstars)]
        before = [1.0 if isinstance(x, float) else np.ones_like(x)]
        dbefore = [0.0 * before[0]]
        for f, sc in zip(factors, self.scales):
            dbefore.append(dbefore[-1] * f - before[-1] * sc)
            before.append(before[-1] * f)
        out, slope = coeffs[0] * before[-1], coeffs[0] * dbefore[-1]
        extra = 0.0 if dcoeffs is None else dcoeffs[0] * before[-1]
        after, dafter = 1.0, 0.0
        for j in range(len(factors) - 1, -1, -1):
            minus = before[j] * after
            out = out + coeffs[j + 1] * minus
            slope = slope + coeffs[j + 1] * (dbefore[j] * after + before[j] * dafter)
            if dcoeffs is not None:
                extra = extra + dcoeffs[j + 1] * minus
            dafter = dafter * factors[j] - after * self.scales[j]
            after = after * factors[j]
        return out, slope if dcoeffs is None else slope + extra

    def value(self, coeffs, x: np.ndarray) -> np.ndarray:
        """`combination`'s value at an array x, bit for bit, without slope."""
        factors = [sc * (xs - x) for sc, xs in zip(self.scales, self.xstars)]
        before = [np.ones_like(x)]
        for f in factors:
            before.append(before[-1] * f)
        out, after = coeffs[0] * before[-1], 1.0
        for j in range(len(factors) - 1, -1, -1):
            out = out + coeffs[j + 1] * (before[j] * after)
            after = after * factors[j]
        return out


@lru_cache(maxsize=128)
def rn_polynomials(model: SpikedModel) -> RnPolynomials:
    deltas = [d for d, _ in model.spikes]
    affine = tuple(spectra.nu_affine(model, d) for d in deltas)
    xstars = tuple(spectra.outlier_location(model, d) for d in deltas)
    scales = tuple(-q for _, q in affine)
    return RnPolynomials(affine, xstars, scales)


def _mu_all(model: SpikedModel, x) -> np.ndarray:
    """Stacked (mu_0, mu_1, ..., mu_s) at x, without domain checks."""
    x = np.asarray(x, dtype=float)
    rn = rn_polynomials(model)
    w = mixture_weights(model)
    nu = rn.nu(x)
    minus = [rn.nu_minus(i, x) for i in range(model.s)]
    denom = w.omega0 * nu
    for om, nm in zip(w.omegas, minus):
        denom = denom + om * nm
    return np.stack([nu, *minus]) / denom


def _weight(model: SpikedModel, x, mu0):
    return model.sigma0_sq * (model.r**2 * x + model.c * model.sigma_eps_sq * mu0)


def _target_and_basis(model: SpikedModel, x) -> tuple[np.ndarray, np.ndarray]:
    """(g(x), [h_0(x), ..., h_s(x)]) from one mu evaluation, without
    domain checks; for points known to lie on the support."""
    x = np.asarray(x, dtype=float)
    mu = _mu_all(model, x)
    w = _weight(model, x, mu[0])
    num = np.full_like(mu[0], model.sigma0_sq * model.r**2)
    for j, (d, a) in enumerate(model.spikes):
        num = num + d * a * a * mu[j + 1]
    return num / w, mu / w


@dataclass(frozen=True)
class GramSystem:
    """H_ij = <h_i, h_j>_w (0-indexed, (s+1)x(s+1)) and the right side
    gamma = (sigma0^2 r^2 omega0, (delta_1+sigma0^2) alpha_1^2, ...)."""

    H: np.ndarray
    gamma: np.ndarray


def gram_system(model: SpikedModel) -> GramSystem:
    """Assemble H and gamma over the model's cached grid.

    Row i of H is int x mu_j / w dF_{measure_i}, where measure_0 = F_MP and
    measure_i = F_{delta_i}: 0 at the zero atom, where w may be 0 too. An
    integrand that is not finite elsewhere leaves H not finite, refused below.
    """
    grid = get_grid(model)
    x = grid.support_points
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = _mu_all(model, x)
        integrand = mu * (x / _weight(model, x, mu[0]))
    integrand[:, x == 0.0] = 0.0
    sums = grid.integrate(integrand)
    H = np.stack([sums.mp, *sums.delta])
    H = 0.5 * (H + H.T)  # symmetrize away quadrature roundoff
    if not np.all(np.isfinite(H)):
        raise NumericalError("Gram matrix assembly produced non-finite entries")
    return GramSystem(H, _gram_rhs(model))


def _gram_rhs(model: SpikedModel) -> np.ndarray:
    """gamma = (sigma0^2 r^2 omega0, (delta_1 + sigma0^2) alpha_1^2, ...)."""
    head = model.sigma0_sq * model.r**2 * mixture_weights(model).omega0
    return np.array([head, *((d + model.sigma0_sq) * a * a for d, a in model.spikes)])
