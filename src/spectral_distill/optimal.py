"""Risk-optimal shrinkage rules and their self-distillation synthesis.

The prediction-optimal rule solves (I + D H) b = gamma with
D = diag(0, delta_1 alpha_1^2, ...) and is the rational function

    f*(x) = (b_0 nu + sum_j b_j nu_{-j})
            / (sigma0^2 r^2 x (omega0 nu + sum_j omega_j nu_{-j})
               + c sigma0^2 sigma_eps^2 nu).

Its monic denominator P has s+1 distinct real roots, exactly one of
them negative and the positive ones interlacing the outliers; ordering
those roots and matching coefficients turns Q/P into an s-step
self-distillation chain.

Optimal rules are `shrinkage.RationalRule`s, the one rational rule type,
and stay in one basis, the factored nu products of their model: P is
evaluated there, with its exact slope, to find its roots, which then
define it; Q is kept as its nu-basis coefficients, which every risk,
inner product, the coprimality check and the chain synthesis read.
Monomial coefficients are formed only for output
(`RationalRule.monomial_coeffs`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import AssumptionError, NumericalError, StructuralError
from .shrinkage import RationalRule, Ridge, SDParams, sd_chain_fn, validate_rule
# get_grid stays bound here for perfbench's tracer, which wraps each binding
from .spectra import SpikedModel, bracketed_newton, get_grid  # noqa: F401


class _DD:
    """Double-double number hi + lo, about 32 significant digits.

    Dekker's error-free sum and product in plain floats; enough of the
    arithmetic for the chain synthesis's forward substitution.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi, self.lo = hi, lo

    def __add__(self, other):
        if type(other) is not _DD:
            other = _DD(float(other))
        a, b = self.hi, other.hi
        s = a + b
        v = s - a
        e = (a - (s - v)) + (b - v) + self.lo + other.lo  # two-sum error
        hi = s + e
        return _DD(hi, e - (hi - s))

    def __neg__(self):
        return _DD(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not _DD:
            other = _DD(float(other))
        a, b = self.hi, other.hi
        p = a * b
        t = 134217729.0 * a  # split at 2^27 + 1: halves multiply exactly
        ah = t - (t - a)
        t = 134217729.0 * b
        bh = t - (t - b)
        al, bl = a - ah, b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        e += a * other.lo + self.lo * b
        hi = p + e
        return _DD(hi, e - (hi - p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not _DD:
            other = _DD(float(other))
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        return _DD(q1) + q2 + r.hi / other.hi

    def __float__(self):
        return self.hi + self.lo


def _basis_values(x, chosen, d: int) -> list:
    """[x^(d-j) prod_{i<j} (x - chosen_i) for j = 0..len(chosen)].

    Works on floats and on _DD alike.
    """
    powers = [1.0]
    for _ in range(d):
        powers.append(powers[-1] * x)
    out, prefix = [], 1.0
    for j in range(len(chosen) + 1):
        out.append(prefix * powers[d - j])
        if j < len(chosen):
            prefix = prefix * (x - chosen[j])
    return out


@dataclass(frozen=True)
class OptimalCoefficients:
    """Solution b of the optimality system plus the diagnostic inner
    products A_j = <f*, h_j>_w."""

    b: tuple[float, ...]
    A: tuple[float, ...]


def _require_noise(model: SpikedModel):
    if model.sigma_eps_sq == 0.0:
        raise AssumptionError(
            "optimal-rule synthesis needs positive noise variance: at "
            "sigma_eps_sq = 0 the denominator gains a root at zero, the "
            "guaranteed negative root disappears, and the distillation "
            "parameterization degenerates"
        )


def denominator_roots(model: SpikedModel) -> tuple[float, ...]:
    """All s+1 real roots of the monic denominator P, ascending.

    P is evaluated, with its slope, in the factored nu basis of the model,
    P ~ r^2 x (omega0 nu + sum_j omega_j nu_{-j}) + c sigma_eps^2 nu, whose
    factors vanish exactly at their outliers; monomial coefficients would
    lose digits to cancellation when outliers sit close together or are
    many. The brackets are the analytic sign changes, one between each
    pair of consecutive outliers, one beyond the last outlier and one on
    the negative axis; at s = 0 only the last is there and the root is
    -lambda* of the isotropic ridge.
    """
    rn = measures.rn_polynomials(model)
    xs = sorted(rn.xstars)
    if any(hi - lo < 1e-9 * hi for lo, hi in zip(xs, xs[1:])):
        raise StructuralError(
            "two outlier locations nearly coincide; the model sits on an "
            "excluded degeneracy and root interlacing would be corrupted"
        )
    # monic P = (a0 x + noise) nu + sum_j a_j x nu_{-j}
    w = measures.mixture_weights(model)
    lead = model.r**2 * w.omega0 * rn.nu_lead
    a0, noise = model.r**2 * w.omega0 / lead, model.c * model.sigma_eps_sq / lead
    a = [model.r**2 * om / lead for om in w.omegas]

    def pv(x: float) -> tuple[float, float]:
        val, slope = rn.combination((a0 * x + noise, *(aj * x for aj in a)), x)
        # the coefficients vary with x too: add a0 nu + sum_j a_j nu_{-j}
        return val, slope + rn.combination((a0, *a), x)[0]

    def root(lo, hi, flo):
        return bracketed_newton(pv, lo, hi, 0.5 * (lo + hi), rising=flo < 0.0)

    f_xs = [pv(x)[0] for x in xs]
    roots = []
    for lo, hi, flo, fhi in zip(xs, xs[1:], f_xs, f_xs[1:]):
        if not flo * fhi < 0.0:
            raise StructuralError(
                "no sign change between consecutive outliers; expected root "
                "interlacing fails (model near an excluded degeneracy)"
            )
        roots.append(root(lo, hi, flo))
    # push the far end out until P changes sign: beyond the last outlier,
    # then below zero
    outer = [(xs[-1], f_xs[-1], max(2.0 * xs[-1], xs[-1] + 1.0))] if xs else []
    outer.append((0.0, pv(0.0)[0], -max([1.0, *xs])))
    for near, f_near, far in outer:
        for _ in range(200):
            f_far = pv(far)[0]
            if f_near * f_far < 0.0:
                break
            far *= 2.0
        else:
            raise StructuralError(f"could not bracket a root of P beyond {near}")
        roots.append(root(near, far, f_near) if near < far else root(far, near, f_far))
    return tuple(sorted(roots))


def _solve_system(model: SpikedModel, dmat_diag: np.ndarray) -> np.ndarray:
    gs = measures.gram_system(model)
    lhs = np.eye(model.s + 1) + dmat_diag[:, None] * gs.H
    try:
        b = np.linalg.solve(lhs, gs.gamma)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - theory forbids it
        raise NumericalError(f"optimality system became singular: {exc}") from exc
    return b


def _factored_rule(model: SpikedModel, q_nu, s0sq: float,
                   rho: float = 1.0) -> RationalRule:
    """Q0/(rho P0) as a rule with monic P, for
    Q0 = q_nu[0] nu + sum_j q_nu[j] nu_{-j} and
    P0 = s0sq (r^2 x (omega0 nu + sum_j omega_j nu_{-j}) + c sigma_eps^2 nu).

    s0sq = sigma0^2 gives the denominator of the prediction optimum, 1
    that of the estimation optimum; both have the same roots. P0's
    leading coefficient is s0sq r^2 omega0 prod_j (-scale_j). rho scales
    a federated optimum down to its local rule.
    """
    rn = measures.rn_polynomials(model)
    lead = s0sq * model.r**2 * (measures.mixture_weights(model).omega0 * rn.nu_lead)
    if lead == 0.0:
        raise NumericalError("denominator lost its leading coefficient")
    return RationalRule(denominator_roots(model),
                        q_nu=tuple(np.asarray(q_nu) / (lead * rho)), rn=rn)


def fixed_point_residual(model: SpikedModel, rule: RationalRule) -> float:
    """max over the grid of |A f* - g| for A f = f + sum_j d_j a_j^2 <f,h_j> h_j."""
    grid, f_bulk, f_atoms = validate_rule(model, rule)
    g, h = measures._target_and_basis(model, grid.support_points)
    A = grid.integrate(grid.x * f_bulk, grid.atom_locs * f_atoms).delta
    resid = np.concatenate([f_bulk, f_atoms])
    for j, (d, al) in enumerate(model.spikes):
        resid = resid + d * al * al * A[j] * h[j + 1]
    return float(np.max(np.abs(resid - g)))


def inner_products_with_basis(model: SpikedModel, rule) -> np.ndarray:
    """A_j = <rule, h_j>_w = int x rule dF_{delta_j}, j = 1..s."""
    grid, f_bulk, f_atoms = validate_rule(model, rule)
    return np.array(grid.integrate(grid.x * f_bulk, grid.atom_locs * f_atoms).delta)


def optimal_pred_rule(model: SpikedModel) -> tuple[RationalRule, OptimalCoefficients]:
    """Prediction-risk-optimal rule; at s = 0 it is the isotropic ridge."""
    _require_noise(model)
    dmat = np.concatenate([[0.0], model.deltas * model.alphas**2])
    b = _solve_system(model, dmat)
    rule = _factored_rule(model, b, model.sigma0_sq)
    A = inner_products_with_basis(model, rule)
    return rule, OptimalCoefficients(tuple(b), tuple(A))


def optimal_est_rule(model: SpikedModel) -> RationalRule:
    """Estimation-risk-optimal rule; same denominator roots as the
    prediction optimum up to the sigma0^2 factor."""
    _require_noise(model)
    w = measures.mixture_weights(model)
    return _factored_rule(model, model.r**2 * np.array([w.omega0, *w.omegas]), 1.0)


def isotropic_optimal(model: SpikedModel) -> Ridge:
    """Optimal rule under isotropy: ridge at lambda* = c sigma_eps^2 / r^2."""
    if model.s != 0:
        raise ValueError("isotropic_optimal requires s = 0; use optimal_pred_rule")
    return Ridge(model.c * model.sigma_eps_sq / model.r**2)


def synthesize_sd_params(rule: RationalRule) -> SDParams:
    """Self-distillation parameters realizing Q/P exactly in s steps.

    Orders the roots of P and builds coefficients t_0..t_s such that

        Q(x) = sum_j t_j x^{d-j} prod_{i<j} (x - gamma_i),

    then maps lambda_i = -gamma_i and xi_i = (t_0+..+t_{i-1})/(t_0+..+t_i).
    Roots are consumed in descending order, skipping any root where the
    residual polynomial vanishes (which would break the construction);
    the descending order puts the largest root at stage 0 so the initial
    ridge has the single large negative penalty. Q is read at the roots
    through `rule.q`, the factored form when the rule has one.
    """
    gammas_all = list(rule.roots_of_p)
    d = len(gammas_all) - 1
    if rule.rn is None:
        lead_q = float(rule.q_coeffs[d]) if len(rule.q_coeffs) > d else 0.0
    else:
        lead_q = rule.q_nu[0] * rule.rn.nu_lead
    q_at = dict(zip(gammas_all, rule.q(np.array(gammas_all)).tolist()))

    chosen: list[float] = []
    ts: list[_DD] = []
    remaining = sorted(gammas_all, reverse=True)
    for k in range(-1, d):
        ts_f = [float(t) for t in ts]
        partial = sum(ts_f)

        def r_k(g):
            # residual polynomial value at a candidate root
            basis = _basis_values(g, chosen, d)
            val = q_at[g] - sum(t * b for t, b in zip(ts_f, basis))
            return val + (partial - lead_q + 1.0) * basis[k + 1]

        rvals = [abs(r_k(g)) for g in remaining]
        scale = max(rvals) if rvals else 0.0
        pick = None
        for idx, g in enumerate(remaining):
            if g != 0.0 and rvals[idx] > 1e-10 * max(1.0, scale):
                pick = idx
                break
        if pick is None:
            raise StructuralError(
                "self-distillation synthesis failed: every remaining root makes "
                "the partial sums degenerate (numerical-precision failure)"
            )
        g = remaining.pop(pick)
        # Forward substitution in double-double arithmetic: with close
        # roots the terms cancel, and in floats the stage weights lose most
        # of their digits.
        basis = _basis_values(_DD(g), chosen, d)
        num = _DD(q_at[g]) - sum((t * b for t, b in zip(ts, basis)), _DD(0.0))
        ts.append(num / basis[k + 1])
        chosen.append(g)

    sums = list(itertools.accumulate(ts))
    if abs(float(sums[-1]) - 1.0) > 1e-8:
        raise StructuralError(
            f"synthesized stage weights must sum to 1, got {float(sums[-1])}"
        )
    if any(abs(float(v)) < 1e-14 for v in sums):
        raise StructuralError("degenerate partial sum in stage weights")
    lambdas = tuple(-g for g in chosen)
    xis = tuple(float(sums[i - 1] / sums[i]) for i in range(1, d + 1))
    return SDParams(lambdas, xis)


def coprimality_check(rule: RationalRule) -> bool:
    """True iff P and Q share no root (tolerance relative to root spacing).

    Q is read through `rule.q` at each root gamma_k of P and at
    gamma_k -+ h, h = 1e-8 times the root spacing. The roots are exact to
    a few ulp and Q is evaluated in its own basis, so its rounding error
    is far below its change over h: a sign change (or a zero) among the
    three values puts a root of Q within h of gamma_k.
    True implies no shorter self-distillation chain can realize the rule.
    """
    p_roots = np.asarray(rule.roots_of_p)
    spacing = np.min(np.diff(np.sort(p_roots))) if p_roots.size > 1 else 1.0
    h = 1e-8 * max(spacing, 1e-30)
    lo, mid, hi = rule.q(p_roots[:, None] + np.array([-h, 0.0, h])).T
    return not np.any((lo * mid <= 0.0) | (mid * hi <= 0.0))


def sd_round_trip_error(model: SpikedModel, rule: RationalRule,
                        params: SDParams) -> float:
    """sup over grid and atoms of |sd_chain(params) - rule|, the rule's
    values being those `validate_rule` holds."""
    grid, f_bulk, f_atoms = validate_rule(model, rule)
    chain = sd_chain_fn(params)(grid.support_points)
    return float(np.max(np.abs(chain - np.concatenate([f_bulk, f_atoms]))))
