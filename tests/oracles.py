"""The paper's identities, as the tests' references.

Closed forms that the program does not need to run but that its results
must agree with: the Stieltjes transforms of the Marchenko-Pastur law
and of the one-spike measures F_delta; the densities mu_j of each
component with respect to F_alpha, the weight w, the target g, the basis
h_j and the x w(x)-weighted inner product, evaluated pointwise with a
support check; the isotropic optimum (ridge at lambda* = c sigma_eps^2 /
r^2); the high-noise limit of the federated b0^(K) and the product-form
limit of cross-matrix quadratic forms; a tabulated rule; the optimal
rules' numerator and denominator as the paper's nu products, and a
rational rule from monomial numerator coefficients; and f(Sigma_hat) v
for a finite sample. The program computes the same objects its own way
(mu_j as the grid's weight ratios, rules as sums of simple poles,
sample rules in the sample eigenbasis), and the tests check one against
the other; the pointwise mu_j, w, g and h_j here take nothing from the
program but the support check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spectral_distill import measures
from spectral_distill.errors import NumericalError
from spectral_distill.federated import federated_b
from spectral_distill.montecarlo import SampleSpectrum
from spectral_distill.shrinkage import RationalRule, Ridge, ShrinkageFn, eval_shrinkage
from spectral_distill.spectra import SpikedModel, get_grid, mp_support


# ---------------------------------------------------------------------------
# Stieltjes transforms


def _check_off_positive_axis(z: complex):
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError(f"z must lie off the nonnegative real axis, got {z}")


def mp_stieltjes(model: SpikedModel, z: complex) -> complex:
    """Stieltjes transform m(z) of the MP law, z off [0, inf).

    Branch of sqrt((z-a)(z-b)) chosen so that Im m > 0 when Im z > 0
    (conjugate-symmetric below the axis) and m > 0 for real z < 0.
    """
    z = complex(z)
    _check_off_positive_axis(z)
    a, b = mp_support(model)
    s0 = model.sigma0_sq
    sq = np.sqrt(complex((z - a) * (z - b)))
    denom = 2.0 * model.c * z * s0
    m = (s0 * (1.0 - model.c) - z + sq) / denom
    if z.imag > 0:
        ok = m.imag > 0
    elif z.imag < 0:
        ok = m.imag < 0
    else:
        ok = m.real > 0
    if not ok:
        m = (s0 * (1.0 - model.c) - z - sq) / denom
    return m


def mp_stieltjes_boundary(model: SpikedModel, x: float) -> complex:
    """Boundary value m(x + i0) for x in the open bulk."""
    a, b = mp_support(model)
    if not (a < x < b):
        raise ValueError(f"x={x} is not in the open bulk ({a}, {b})")
    s0 = model.sigma0_sq
    re = (s0 * (1.0 - model.c) - x) / (2.0 * model.c * x * s0)
    im = math.sqrt((b - x) * (x - a)) / (2.0 * model.c * x * s0)
    return complex(re, im)


def companion_stieltjes(model: SpikedModel, z: complex) -> complex:
    """Companion transform m_(z) = -(1-c)/z + c m(z)."""
    z = complex(z)
    _check_off_positive_axis(z)
    return -(1.0 - model.c) / z + model.c * mp_stieltjes(model, z)


def companion_stieltjes_boundary(model: SpikedModel, x: float) -> complex:
    return -(1.0 - model.c) / x + model.c * mp_stieltjes_boundary(model, x)


def spiked_stieltjes(model: SpikedModel, delta: float, z: complex) -> complex:
    """Stieltjes transform of the one-spike limit F_delta.

    m_delta(z) = sigma0^2 m(z) / (sigma0^2 + delta + delta z m(z)).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    z = complex(z)
    _check_off_positive_axis(z)
    m = mp_stieltjes(model, z)
    s0 = model.sigma0_sq
    return s0 * m / (s0 + delta + delta * z * m)


# ---------------------------------------------------------------------------
# mu_j, w, g, h_j and the inner product


def _check_support(model: SpikedModel, x):
    grid = get_grid(model)
    ok = grid.on_support(x)
    if not np.all(ok):
        bad = np.asarray(x, dtype=float)[~np.asarray(ok)]
        raise ValueError(
            f"point(s) {bad} lie outside the limiting support "
            f"(bulk [{grid.bulk_lo}, {grid.bulk_hi}] plus atoms {grid.atom_locs})"
        )


def _mu_rows(model: SpikedModel, x) -> np.ndarray:
    """Rows mu_0, mu_1, ..., mu_s at the points x, without a support check.

    From the affine ratios nu_j = dF_MP/dF_{delta_j},
    nu_j(x) = delta_j (x*_j - x) / (c sigma0^2 (delta_j + sigma0^2)), and
    F_alpha = omega0 F_MP + sum_i omega_i F_{delta_i}:

        mu_0 = 1 / (omega0 + sum_i omega_i / nu_i),   mu_j = mu_0 / nu_j.

    At an outlier x*_j, where nu_j = 0, mu_j = 1/omega_j and every other
    row is 0.
    """
    x = np.asarray(x, dtype=float)
    s0, c = model.sigma0_sq, model.c
    omegas = [a * a / model.r**2 for a in model.alphas]
    with np.errstate(divide="ignore"):
        inv_nu = [c * s0 * (d + s0) / (d * ((d + s0) * (d + c * s0) / d - x))
                  for d in model.deltas]
    rows = np.stack([np.ones_like(x), *inv_nu])
    with np.errstate(invalid="ignore"):
        rows = rows / ((1.0 - sum(omegas)) + sum(om * v for om, v in zip(omegas, inv_nu)))
    for j, v in enumerate(inv_nu):
        at = np.isinf(v)
        rows[:, at] = 0.0
        rows[j + 1, at] = 1.0 / omegas[j]
    return rows


def _weight(model: SpikedModel, x, mu0):
    return model.sigma0_sq * (model.r**2 * x + model.c * model.sigma_eps_sq * mu0)


def mu_j(model: SpikedModel, j: int, x):
    """Density of F_{delta_j} (j >= 1) or F_MP (j = 0) w.r.t. F_alpha."""
    if not 0 <= j <= model.s:
        raise ValueError(f"j must be in 0..{model.s}")
    _check_support(model, x)
    scalar = np.isscalar(x)
    vals = _mu_rows(model, np.atleast_1d(np.asarray(x, dtype=float)))[j]
    return float(vals[0]) if scalar else vals


def _weight_w_unchecked(model: SpikedModel, x):
    x = np.asarray(x, dtype=float)
    return _weight(model, x, _mu_rows(model, x)[0])


def weight_w(model: SpikedModel, x):
    """w(x) = sigma0^2 r^2 x + c sigma0^2 sigma_eps^2 mu_0(x); positive."""
    _check_support(model, x)
    return _weight_w_unchecked(model, x)


def target_g(model: SpikedModel, x):
    """g(x) = (sigma0^2 r^2 + sum_j delta_j alpha_j^2 mu_j(x)) / w(x)."""
    _check_support(model, x)
    x = np.asarray(x, dtype=float)
    mu = _mu_rows(model, x)
    num = model.sigma0_sq * model.r**2
    for j, (d, a) in enumerate(model.spikes):
        num = num + d * a * a * mu[j + 1]
    return num / _weight(model, x, mu[0])


def basis_h(model: SpikedModel, j: int, x):
    """h_j(x) = mu_j(x) / w(x)."""
    if not 0 <= j <= model.s:
        raise ValueError(f"j must be in 0..{model.s}")
    _check_support(model, x)
    x = np.asarray(x, dtype=float)
    mu = _mu_rows(model, x)
    return mu[j] / _weight(model, x, mu[0])


def inner_w(model: SpikedModel, phi, psi) -> float:
    """<phi, psi>_w = int phi psi x w dF_alpha.

    phi and psi are callables. The explicit x factor kills any zero-atom
    contribution, so that atom's integrand is set to 0 even where phi or
    psi is singular there.
    """
    grid = get_grid(model)
    x = grid.support_points  # every bulk node is positive
    with np.errstate(invalid="ignore"):
        vals = (phi(x) * psi(x)) * (x * _weight_w_unchecked(model, x))
    total = float(grid.integrate(np.where(x > 0.0, vals, 0.0)).alpha)
    if not math.isfinite(total):
        raise NumericalError("inner product did not evaluate to a finite value")
    return total


# ---------------------------------------------------------------------------
# the isotropic optimum


def isotropic_optimal(model: SpikedModel) -> Ridge:
    """Optimal rule under isotropy: ridge at lambda* = c sigma_eps^2 / r^2."""
    if model.s != 0:
        raise ValueError("isotropic_optimal requires s = 0; use optimal_pred_rule")
    return Ridge(model.c * model.sigma_eps_sq / model.r**2)


# ---------------------------------------------------------------------------
# federated limits


def b0_noise_limit(model: SpikedModel, K: int) -> float:
    """High-noise limit of b0^(K): sigma0^2 r^2 omega0.

    Also verifies that b0^(K)(sigma_eps^2 = 1e6) is closer to the limit
    than b0^(K)(sigma_eps^2 = 1e3).
    """
    w = measures.mixture_weights(model)
    limit = model.sigma0_sq * model.r**2 * w.omega0
    near = federated_b(model.replace(sigma_eps_sq=1e6), K)[0]
    far = federated_b(model.replace(sigma_eps_sq=1e3), K)[0]
    if abs(near - limit) > abs(far - limit) + 1e-12 * abs(limit):
        raise NumericalError(
            "b0^(K) did not approach its high-noise limit monotonically "
            f"(|{near} - {limit}| vs |{far} - {limit}|)"
        )
    return limit


def product_form_limit(model: SpikedModel, phi: ShrinkageFn, psi: ShrinkageFn,
                       c_l: float, c_k: float) -> float:
    """Deterministic limit of beta0' phi(S_l) psi(S_k) beta0 / ||beta0||^2
    for independent sample covariances with aspect ratios c_l and c_k.

        omega0 (int phi dF_MP,cl)(int psi dF_MP,ck)
        + sum_j omega_j (int phi dF_dj,cl)(int psi dF_dj,ck).
    """
    w = measures.mixture_weights(model)
    grid_l = get_grid(model.replace(c=float(c_l)))
    grid_k = get_grid(model.replace(c=float(c_k)))
    ints_l = grid_l.integrate(phi(grid_l.support_points))
    ints_k = grid_k.integrate(psi(grid_k.support_points))
    total = w.omega0 * ints_l.mp * ints_k.mp
    for om, dl, dk in zip(w.omegas, ints_l.delta, ints_k.delta):
        total += om * dl * dk
    if not math.isfinite(total):
        raise NumericalError("product form limit did not evaluate finitely")
    return float(total)


# ---------------------------------------------------------------------------
# a tabulated rule


@dataclass(frozen=True)
class Tabulated(ShrinkageFn):
    """Rule given by values on sorted sample points (e.g. the grid support).

    Linear between the points and constant beyond them, so every table
    point is a kink and is declared as a breakpoint.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if np.any(np.diff(xs) < 0):
            raise ValueError("xs must be sorted ascending")
        object.__setattr__(self, "xs", tuple(float(v) for v in xs))
        object.__setattr__(self, "ys", tuple(float(v) for v in ys))
        object.__setattr__(self, "breakpoints", self.xs)

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)


# ---------------------------------------------------------------------------
# rational rules from products and from monomial coefficients


def nu_products(rn: measures.RnPolynomials, coeffs, x) -> np.ndarray:
    """coeffs[0] nu(x) + sum_j coeffs[j] nu_{-j}(x) from the products of
    the factors nu_j = scale_j (x*_j - x): nu = prod_j nu_j and
    nu_{-i} = prod_{j != i} nu_j. The optimal rules' Q0 and P0 in the
    paper's form, which the program never forms."""
    x = np.asarray(x, dtype=float)
    factors = [sc * (xs - x) for sc, xs in zip(rn.scales, rn.xstars)]
    one = np.ones_like(x)
    out = coeffs[0] * math.prod(factors, start=one)
    for i, c in enumerate(coeffs[1:]):
        out = out + c * math.prod((f for j, f in enumerate(factors) if j != i), start=one)
    return out


def monomial_rational_rule(roots_of_p, q_coeffs) -> RationalRule:
    """Q/P for monic P with the given roots and Q = sum_i q_coeffs[i] x^i
    of degree below len(roots_of_p).

    The rule's poles x*_j are m = len(roots_of_p) - 1 nodes t_j below
    every root and below 0, with scale_j = 1, so nu = prod_j (t_j - x) =
    (-1)^m D(x) for D(x) = prod_j (x - t_j). Then F = P/D and
    N/K = Q/D with K = (-1)^m, N = Q/nu. In partial fractions
    P/D = x + p_m + sum_j t_j + sum_j P(t_j) / (D'(t_j) (x - t_j)), where
    p_m = -sum of the roots, which F writes as x + lam0 + x sum_j w_j /
    (t_j - x) with w_j = -P(t_j) / (t_j D'(t_j)); and Q/D = q_m + sum_j
    Q(t_j) / (D'(t_j) (x - t_j)).
    """
    m = len(roots_of_p) - 1
    if len(q_coeffs) > m + 1:
        raise ValueError("Q must have a lower degree than P")
    nodes = [-(j + 1.0 + max(abs(g) for g in roots_of_p)) for j in range(m)]
    dprime = [math.prod(t - u for u in nodes if u != t) for t in nodes]
    p_at = [math.prod(t - g for g in roots_of_p) for t in nodes]
    q_at = np.polynomial.polynomial.polyval(nodes, np.array(q_coeffs, dtype=float))
    sign = (-1.0) ** m
    weights = tuple(-p / (t * dp) for t, p, dp in zip(nodes, p_at, dprime))
    lam0 = -sum(roots_of_p) + sum(nodes) + sum(weights)
    lead = float(q_coeffs[m]) if len(q_coeffs) > m else 0.0
    b = (sign * lead, *(-sign * q / dp for q, dp in zip(q_at, dprime)))
    rn = measures.RnPolynomials(tuple(nodes), (1.0,) * m, lam0, weights)
    return RationalRule(tuple(roots_of_p), b, sign, rn)


# ---------------------------------------------------------------------------
# a rule applied to a vector in a finite sample


def apply_rule_to_vector(spectrum: SampleSpectrum, f: ShrinkageFn,
                         v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """f(Sigma_hat) v, including the implicit zero-eigenvalue directions;
    X is the design the spectrum was formed from."""
    vals = eval_shrinkage(f, spectrum.d)
    coords = spectrum.project(v, X)
    if spectrum.d.size < spectrum.p:
        f0 = float(eval_shrinkage(f, np.zeros(1))[0])
        if f0 != 0.0:
            return spectrum.lift((vals - f0) * coords, X) + f0 * v
    return spectrum.lift(vals * coords, X)
