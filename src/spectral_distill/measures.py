"""Mixture weights, the factored nu basis, and the weighted Gram system.

The mixture F_alpha = omega0 F_MP + sum_j omega_j F_{delta_j} carries
the signal's alignment with the spike directions. The affine ratios
nu_j = dF_MP/dF_{delta_j} and their products nu, nu_{-j} are the basis
in which the optimal rules' numerator Q and denominator P are written
(`RnPolynomials`); Q is evaluated there, while P's roots are found on
P/nu, without the products. The densities mu_j of F_{delta_j} and mu_0
of F_MP with respect to F_alpha are the grid's weight ratios
(`SpectralGrid.mu`); from them come the weight w, the target g and the
basis h_j at the grid's points (`_target_and_basis`; at an outlier,
where mu_0 = 0, w needs no mu), and the Gram matrix H of the
x*w-weighted inner product, which `SpectralGrid.integrate` sums over
bulk and atoms alike. The pointwise forms of mu_j, w, g, h_j and the
inner product, from the paper's formulas, are the tests' references, in
`tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import NumericalError
from .spectra import SpectralGrid, SpikedModel, get_grid, mixture_weights


@dataclass(frozen=True)
class RnPolynomials:
    """Affine ratios nu_j, the factors of the basis of Q.

    nu_j(x) = delta_j (x_star_j - x) / (c sigma0^2 (delta_j + sigma0^2)),
    nu = prod_j nu_j (degree s), nu_{-i} = prod_{j != i} nu_j (degree
    s-1). `affine` holds each nu_j as ascending coefficients (p_j, q_j);
    evaluation goes through the factored form scale_j * (x_star_j - x),
    so nu_j vanishes exactly at its outlier. Only combinations
    coeffs[0] nu + sum_j coeffs[j] nu_{-j} are evaluated, by `value`; P's
    roots are found on P/nu (`optimal.denominator_roots`), which reads
    only `xstars` and `scales`.
    """

    affine: tuple[tuple[float, float], ...]
    xstars: tuple[float, ...]
    scales: tuple[float, ...]

    @property
    def nu_lead(self) -> float:
        """Leading coefficient of nu, prod_j (-scale_j)."""
        return math.prod(-sc for sc in self.scales)

    def value(self, coeffs, x: np.ndarray) -> np.ndarray:
        """coeffs[0] nu(x) + sum_j coeffs[j] nu_{-j}(x) (j = 1..s) at each
        point of an array x.

        nu_{-j} is the product of the factors before j times those after
        it, so running products give every term in O(s) products.
        """
        factors = [sc * (xs - x) for sc, xs in zip(self.scales, self.xstars)]
        before = [np.ones_like(x)]
        for f in factors:
            before.append(before[-1] * f)
        out, after = coeffs[0] * before[-1], 1.0
        for j in range(len(factors) - 1, -1, -1):
            out = out + coeffs[j + 1] * (before[j] * after)
            after = after * factors[j]
        return out


def rn_polynomials(model: SpikedModel) -> RnPolynomials:
    def build():
        deltas = [d for d, _ in model.spikes]
        affine = tuple(spectra.nu_affine(model, d) for d in deltas)
        xstars = tuple(spectra.outlier_location(model, d) for d in deltas)
        return RnPolynomials(affine, xstars, tuple(-q for _, q in affine))

    return spectra.cached(model, ("nu basis",), build)


def _weight(model: SpikedModel, x, mu0):
    return model.sigma0_sq * (model.r**2 * x + model.c * model.sigma_eps_sq * mu0)


def _target_and_basis(model: SpikedModel, grid: SpectralGrid
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(g, [h_0, ..., h_s]) at the grid's support points, from its mu."""
    x, mu = grid.support_points, grid.mu()
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
    """Assemble H and gamma over the model's grid, built once per model.

    Row i of H is int x mu_j / w dF_{measure_i}, where measure_0 = F_MP and
    measure_i = F_{delta_i}: 0 at the zero atom, where w may be 0 too. An
    integrand that is not finite elsewhere leaves H not finite, refused below.
    """
    grid = get_grid(model)
    x = grid.support_points
    mu = grid.mu()
    with np.errstate(divide="ignore", invalid="ignore"):
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
