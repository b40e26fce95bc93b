"""Risk-optimal shrinkage rules and their self-distillation synthesis.

The prediction-optimal rule solves (I + D H) b = gamma with
D = diag(0, delta_1 alpha_1^2, ...) and is the rational function

    f*(x) = (b_0 nu + sum_j b_j nu_{-j})
            / (sigma0^2 r^2 x (omega0 nu + sum_j omega_j nu_{-j})
               + c sigma0^2 sigma_eps^2 nu).

Its monic denominator P has s+1 distinct real roots, exactly one of
them negative and the positive ones interlacing the outliers; peeling
one stage per root off its partial fractions turns Q/P into an s-step
self-distillation chain.

Divided by nu = prod_j nu_j, numerator and denominator are sums of
simple poles at the outliers, with no products:

    f*(x) = N(x) / (K F(x)),   N = b_0 + sum_j b_j / nu_j,
    K = sigma0^2 r^2 omega0,   F = P/(r^2 omega0 nu),

where F is P's secular form, whose data are the model's table of poles
(`measures.rn_polynomials`). Optimal rules are `shrinkage.RationalRule`s
in this form, each checked against the support once it is built. P is
kept as its roots, found on F with analytic brackets; every risk and
inner product reads N and F, and the chain synthesis reads the rule's
residues at P's roots and ratios of those roots, refusing a root that Q
shares, so a rule scales with its model where products of s factors
would leave the double range.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

from . import measures
from .errors import AssumptionError, NumericalError, StructuralError
from .shrinkage import RationalRule, SDChain, SDParams, validate_rule
# get_grid stays bound here for perfbench's tracer, which wraps each binding
from .spectra import SpikedModel, bracketed_newton, fsum, get_grid  # noqa: F401


def denominator_roots(model: SpikedModel) -> tuple[float, ...]:
    """All s+1 real roots of the monic denominator P, ascending.

    They are the zeros of P's secular form F (`measures.RnPolynomials`),
    whose brackets are analytic: one root between each pair of
    consecutive outliers, one in [-lambda0, 0), where F(-lambda0) <= 0 <
    lambda0 = F(0), and one in (x*_max, x*_max + sum_j w_j], where F >=
    lambda0. At s = 0 F is x + lambda0 and the root is -lambda* of the
    isotropic ridge.
    """
    rn = measures.rn_polynomials(model)
    if not rn.lam0 > 0.0:
        raise AssumptionError(
            "optimal-rule synthesis needs positive noise variance: at "
            "sigma_eps_sq = 0 the denominator gains a root at zero, the "
            "guaranteed negative root disappears, and the distillation "
            "parameterization degenerates"
            + ("" if model.sigma_eps_sq == 0.0 else "; here lambda0 underflows to 0")
        )
    xs = sorted(rn.xstars)
    if any(hi - lo < 1e-9 * hi for lo, hi in zip(xs, xs[1:])):
        raise StructuralError(
            "two outlier locations nearly coincide; the model sits on an "
            "excluded degeneracy and root interlacing would be corrupted"
        )
    top = xs[-1] + fsum(rn.weights) if xs else 0.0
    if not (rn.lam0 < math.inf and top < math.inf and all(w > 0.0 for w in rn.weights)):
        raise NumericalError(
            "the secular form of the denominator leaves the double range: a "
            "pole weight underflows to zero or a bracket end overflows"
        )
    # from -lambda0 F is exact at s = 0, where it is the root
    roots = [bracketed_newton(rn.secular, -rn.lam0, 0.0, -rn.lam0)]
    for lo, hi in zip(xs, [*xs[1:], top]):
        mid = 0.5 * (lo + hi)
        # no float strictly inside: the root is within an ulp of the pole lo
        roots.append(bracketed_newton(rn.secular, lo, hi, mid) if lo < mid < hi else lo)
    return tuple(roots)


def _gauss_solve(A: list[list[float]], y: list[float]) -> list[float]:
    """x with A x = y by Gaussian elimination with partial pivoting in Python
    floats: one fixed order on every CPU, where LAPACK's follows the kernel."""
    n, rows = len(y), [row + [v] for row, v in zip(A, y)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:  # pragma: no cover - theory forbids it
            raise NumericalError("optimality system became singular")
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, n):
            m = rows[i][k] / rows[k][k]
            rows[i] = [a - m * b for a, b in zip(rows[i], rows[k])]
    x = [0.0] * n
    for k in reversed(range(n)):
        known = fsum(a * b for a, b in zip(rows[k][k + 1:n], x[k + 1:]))
        x[k] = (rows[k][n] - known) / rows[k][k]
    return x


def _solve_system(model: SpikedModel, dmat_diag: np.ndarray) -> np.ndarray:
    gs = measures.gram_system(model)
    lhs = np.eye(model.s + 1) + dmat_diag[:, None] * gs.H
    return np.array(_gauss_solve(lhs.tolist(), gs.gamma.tolist()))


def _rational_rule(model: SpikedModel, b, s0sq: float,
                   rho: float = 1.0) -> RationalRule:
    """Q0/(rho P0) = N/(rho K F) as a rule, for the numerator coefficients b,
    checked against the model's support before any synthesis reads it.

    Q0 = nu N and P0 = s0sq (r^2 x (omega0 nu + sum_j omega_j nu_{-j}) +
    c sigma_eps^2 nu) = nu K F with K = s0sq r^2 omega0, nu = prod_j nu_j
    and nu_{-j} = nu / nu_j. s0sq = sigma0^2 gives the prediction
    optimum, 1 the estimation optimum; both have P's roots. rho scales a
    federated optimum down to its local rule, whose numerator is N/rho.
    """
    K = s0sq * model.r**2 * measures.mixture_weights(model).omega0
    rule = RationalRule(denominator_roots(model), tuple(float(v) / rho for v in b), K,
                        measures.rn_polynomials(model))
    validate_rule(model, rule)
    return rule


def fixed_point_residual(model: SpikedModel, rule: RationalRule) -> float:
    """max over the grid of |A f* - g| for A f = f + sum_j d_j a_j^2 <f,h_j> h_j."""
    checked = validate_rule(model, rule)
    g, h = measures._target_and_basis(model, checked.grid)
    resid, A = checked.values, checked.xf[1:]
    for j, (d, al) in enumerate(model.spikes):
        resid = resid + d * al * al * A[j] * h[j + 1]
    return float(np.max(np.abs(resid - g)))


def optimal_pred_rule(model: SpikedModel) -> RationalRule:
    """Prediction-risk-optimal rule; at s = 0 it is the isotropic ridge."""
    dmat = np.concatenate([[0.0], model.deltas * model.alphas**2])
    return _rational_rule(model, _solve_system(model, dmat), model.sigma0_sq)


def optimal_est_rule(model: SpikedModel) -> RationalRule:
    """Estimation-risk-optimal rule; same denominator roots as the
    prediction optimum up to the sigma0^2 factor."""
    w = measures.mixture_weights(model)
    return _rational_rule(model, model.r**2 * np.array([w.omega0, *w.omegas]), 1.0)


def synthesize_sd_params(rule: RationalRule) -> SDParams:
    """Self-distillation parameters realizing the rule exactly in s steps.

    Stage j of the chain is f_j = ((1 - xi_j) + xi_j x f_{j-1}) / (x +
    lambda_j), so xi_j = 1 - lambda_j f_j(0). Written as sum_k rho_k / (x -
    gamma_k) over the roots of P, with residues rho_k that sum to 1, a rule
    whose last stage sits at the root g = -lambda_j therefore has

        xi = sum_{k != g} rho_k (1 - g / gamma_k),

    and the chain before that stage is the rule with residues rho_k (1 -
    g / gamma_k) / xi at the other roots, which again sum to 1. The peel
    runs from the smallest root up, passing over a root whose xi cancels
    to 1e-10 of the sum of its terms or less, and leaves the largest root
    for stage 0, so the initial ridge has the single large negative
    penalty. The sums run in 40-digit decimal arithmetic from the float
    roots and residues, each xi rounded once: with close roots the terms
    cancel, and in floats the xis lose digits.
    """
    shared = _shared_roots(rule)
    if shared.size:
        raise AssumptionError("P and Q must be coprime for the s-step chain; "
                              f"they share the root {float(shared[0])!r}")
    gammas, rhos = rule.roots_of_p, rule.residues()
    if 0.0 in gammas or not all(map(math.isfinite, gammas + rhos)):
        raise NumericalError("self-distillation synthesis failed: P has a root "
                             "at 0 or a residue of the rule is not finite")
    if not abs(fsum(rhos) - 1.0) <= 1e-8:
        raise StructuralError(f"the rule's residues must sum to 1, got {fsum(rhos)}")
    left = sorted(zip(map(Decimal, gammas), map(Decimal, rhos)))
    peeled, xis = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        while len(left) > 1:
            for i, (g, _) in enumerate(left):
                rest = left[:i] + left[i + 1:]
                terms = [rho * (1 - g / gamma) for gamma, rho in rest]
                xi = sum(terms)
                if abs(xi) > Decimal("1e-10") * sum(map(abs, terms)):
                    break
            else:
                raise StructuralError("self-distillation synthesis failed: every "
                                      "remaining root cancels its stage's xi")
            left = [(gamma, t / xi) for (gamma, _), t in zip(rest, terms)]
            peeled.append(g)
            xis.append(float(xi))
    return SDParams([-float(g) for g in [left[0][0], *reversed(peeled)]], xis[::-1])


def _shared_roots(rule: RationalRule) -> np.ndarray:
    """The roots of P that Q shares (tolerance relative to root spacing).

    Q is nu N times a constant, and nu = prod_j scale_j (x*_j - x), so Q
    has the sign of N(x) prod_j sign(x*_j - x), read at gamma_k -+ h for
    each root gamma_k of P, h = 1e-8 times the smallest root spacing (or
    |gamma_0| at s = 0), which scales with the model. The roots are exact
    to a few ulp and N is a sum of s + 1 terms, so a sign change (or a
    zero) between the two puts a root of Q within h of gamma_k. A root
    equal to an outlier, N's pole, is not read itself.
    """
    p_roots = np.asarray(rule.roots_of_p)
    spacing = np.min(np.diff(np.sort(p_roots))) if p_roots.size > 1 else abs(p_roots[0])
    h = 1e-8 * spacing
    x = p_roots[:, None] + np.array([-h, h])
    sign = np.sign(rule.numerator(x))
    for xstar in rule.rn.xstars:
        sign = sign * np.sign(xstar - x)
    return p_roots[sign[:, 0] * sign[:, 1] <= 0.0]


def sd_round_trip_error(model: SpikedModel, rule: RationalRule,
                        params: SDParams) -> float:
    """sup over grid and atoms of |SDChain(params) - rule|, the rule's
    values being those `validate_rule` holds."""
    checked = validate_rule(model, rule)
    return float(np.max(np.abs(SDChain(params)(checked.grid.support_points)
                               - checked.values)))
