"""Mixture weights, the table of the optimal rules' poles, and the
weighted Gram system.

The mixture F_alpha = omega0 F_MP + sum_j omega_j F_{delta_j} carries
the signal's alignment with the spike directions. The affine ratios
nu_j = dF_MP/dF_{delta_j} = scale_j (x*_j - x) place the optimal rules'
poles: divided by nu = prod_j nu_j, their numerator Q and denominator P
are sums of simple poles at the outliers x*_j, and no product of the
nu_j is formed: one table per model (`rn_polynomials`) holds the x*_j,
the scales and P's secular form. The densities mu_j of F_{delta_j} and
mu_0 of F_MP with respect to F_alpha are the grid's weight ratios
(`SpectralGrid.mu`); from them come the weight w, the target g and the
basis h_j at the grid's points (`_target_and_basis`; at an outlier,
where mu_0 = 0, w needs no mu), and the Gram matrix H of the
x*w-weighted inner product, which `SpectralGrid.integrate` sums over
bulk and atoms alike. The pointwise forms of mu_j, w, g, h_j and the
inner product, from the paper's formulas, are the tests' references, in
`tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import NumericalError
from .spectra import SpectralGrid, SpikedModel, fsum, get_grid, mixture_weights


@dataclass(frozen=True)
class RnPolynomials:
    """The model's table of the optimal rules' poles, in spike order.

    nu_j(x) = scale_j (x*_j - x), scale_j = delta_j / (c sigma0^2
    (delta_j + sigma0^2)) > 0, vanishes exactly at its outlier x*_j.
    Divided by r^2 omega0 nu, P is the secular function

        F(x) = x + lam0 + x sum_j w_j / (x*_j - x),

    lam0 = c sigma_eps^2 / (r^2 omega0), w_j = omega_j / (omega0 scale_j)
    > 0, with slope F'(x) = 1 + sum_j w_j x*_j / (x*_j - x)^2 > 0: it
    rises strictly between its poles, the outliers, where the optimal
    rules' numerator N (`shrinkage.RationalRule`) has its poles too.
    """

    xstars: tuple[float, ...]
    scales: tuple[float, ...]
    lam0: float
    weights: tuple[float, ...]

    def secular(self, x: float, skip: int | None = None) -> tuple[float, float]:
        """(F(x), F'(x)) in O(s) with no products; skip=j leaves out the
        pole at x*_j."""
        poles = [(xs, w / (xs - x))
                 for j, (xs, w) in enumerate(zip(self.xstars, self.weights)) if j != skip]
        slope = fsum(t * (xs / (xs - x)) for xs, t in poles)
        return x + self.lam0 + x * fsum(t for _, t in poles), 1.0 + slope


def rn_polynomials(model: SpikedModel) -> RnPolynomials:
    def build():
        deltas, w = [d for d, _ in model.spikes], mixture_weights(model)
        scales = tuple(-spectra.nu_affine(model, d)[1] for d in deltas)
        lam0 = model.c * model.sigma_eps_sq / model.r**2 / w.omega0
        return RnPolynomials(tuple(spectra.outlier_location(model, d) for d in deltas),
                             scales, lam0,
                             tuple(om / w.omega0 / sc for om, sc in zip(w.omegas, scales)))

    return spectra.cached(model, ("poles",), build)


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
    integrand that is not finite elsewhere is refused before it is summed,
    and so is an H that overflows in the sums.
    """
    grid = get_grid(model)
    x = grid.support_points
    mu = grid.mu()
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = mu * (x / _weight(model, x, mu[0]))
    integrand[:, x == 0.0] = 0.0
    if not np.all(np.isfinite(integrand)):
        raise NumericalError("Gram matrix assembly produced non-finite entries")
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
