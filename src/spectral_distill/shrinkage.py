"""Spectral shrinkage rules and their limiting prediction/estimation risks.

A rule f maps eigenvalues to shrinkage factors; calling it gives its
formula, not finite where that has a pole or overflows. The estimator is
f(Sigma_hat) X'y/n. `montecarlo.decompose` decides which sample
directions are null, and `eval_shrinkage` decides a rule's values on the
others: 0 where f is not finite or next to a pole. Every rule is a
ShrinkageFn: ridge, self-distillation chains, gradient-descent
polynomials, SharpCut (PCR and the min-norm interpolator), and
RationalRule, the one rational type
(the tests add a tabulated rule in `tests/oracles.py`). A RationalRule
is N/(K F), two sums of simple poles at its model's outliers, with the
roots of F, its poles, kept; the optimal rules of `optimal` are ones.

A rule meets a model in `validate_rule`, which checks its poles and
evaluates it once on all the points of the model's grid, bulk nodes and
atoms alike. Each limiting risk assembles three moments of those values,
all from `SpectralGrid.integrate`:

    pred:  sigma0^2 r^2 int (1-xf)^2 dF_alpha
           + sum_j delta_j alpha_j^2 (int (1-xf) dF_{delta_j})^2
           + c sigma0^2 sigma_eps^2 int x f^2 dF_MP
    est:   r^2 int (1-xf)^2 dF_alpha + c sigma_eps^2 int x f^2 dF_MP

The inner products of `optimal` and `federated` need one more pass,
int x f against F_MP and each F_{delta_j}. One `RuleOnGrid` per (model,
rule), kept as long as the model, holds the values, and the moments and
that pass once read, so the risks, inner products and self-checks of one
rule share one check and evaluation and integrate each integrand once; a
scan over many rules (`limiting_risks`) keeps none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssumptionError, NumericalError
from .spectra import SpikedModel, cached, fsum, get_grid, mp_support, mp_quantile_inverse

if TYPE_CHECKING:
    from .measures import RnPolynomials
    from .spectra import SpectralGrid


@dataclass(frozen=True)
class SDParams:
    """Self-distillation parameters (lambda_0..lambda_k, xi_1..xi_k)."""

    lambdas: tuple[float, ...]
    xis: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "xis", tuple(float(v) for v in self.xis))
        if len(self.lambdas) != len(self.xis) + 1:
            raise ValueError("need one more lambda than xi (lambda_0..k, xi_1..k)")
        if not all(map(math.isfinite, self.lambdas + self.xis)):
            raise ValueError(
                f"self-distillation parameters must be finite, got lambdas "
                f"{self.lambdas} and xis {self.xis}"
            )

    @property
    def k(self) -> int:
        return len(self.xis)


class ShrinkageFn:
    """Base class: a callable rule with optional pole/breakpoint metadata;
    its call is the formula as is, inf or nan at a pole or on overflow."""

    #: bulk points where the rule is only piecewise smooth (a cut); risk
    #: quadrature splits panels there.
    breakpoints: tuple[float, ...] = ()

    def poles(self) -> tuple[float, ...]:
        return ()

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Ridge(ShrinkageFn):
    lam: float

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError(f"ridge lambda must be finite, got {self.lam}")

    def poles(self):
        return (-self.lam,)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (x + self.lam)


@dataclass(frozen=True)
class RationalRule(ShrinkageFn):
    """Rational rule f = N/(K F), whose poles are the roots of P.

        N(x) = b_0 + sum_j b_j / nu_j(x),     nu_j = scale_j (x*_j - x),
        F(x) = x + lam0 + x sum_j w_j / (x*_j - x),

    with x*_j, scale_j > 0, lam0 and w_j from `rn`, whose `secular` is F
    at a point. N and F are O(s) sums of simple poles at the x*_j, a
    barycentric-type form: no product of s factors, which would leave the
    double range under a scale of the model, is formed. At x*_j the value
    is the ratio of the residues of N and K F there. The rules of
    `optimal` use their model's table.
    """

    roots_of_p: tuple[float, ...]
    b: tuple[float, ...]
    K: float
    rn: RnPolynomials

    def poles(self):
        return self.roots_of_p

    def numerator(self, x):
        """N at x, not finite at an outlier."""
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.b[0])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for b, scale, xstar in zip(self.b[1:], self.rn.scales, self.rn.xstars):
                out = out + b / (scale * (xstar - x))
        return out

    def residues(self) -> tuple[float, ...]:
        """N(g) / (K F'(g)) at each pole g, formed about the outlier x*_j
        nearest g. With e = x*_j - g, N = M + n_j/e (n_j = b_j/scale_j) and
        F = G + x w_j/e, F(g) = 0 gives e N(g) = M(g) e + n_j and e F'(g) =
        G'(g) e - x*_j G(g)/g, where nothing has a pole at x*_j: a root
        within an ulp of its outlier, whose e has no correct digit, keeps
        its residue. A root at 0 gets nan."""
        rn, out = self.rn, []
        for g in self.roots_of_p:
            if not rn.xstars:  # f = b_0 / (K (x + lam0))
                out.append(self.b[0] / self.K)
                continue
            j = min(range(len(rn.xstars)), key=lambda i: abs(rn.xstars[i] - g))
            m = fsum([self.b[0], *(b / (sc * (xs - g)) for i, (xs, b, sc)
                                   in enumerate(zip(rn.xstars, self.b[1:], rn.scales))
                                   if i != j)])
            G, dG = rn.secular(g, skip=j)
            e = rn.xstars[j] - g
            out.append((m * e + self.b[j + 1] / rn.scales[j]) / self.K
                       / (dG * e - rn.xstars[j] * (G / g)) if g else math.nan)
        return tuple(out)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        num, rn = self.numerator(x), self.rn
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            den = np.zeros_like(x)
            for w, xstar in zip(rn.weights, rn.xstars):
                den = den + w / (xstar - x)
            out = (num / self.K) / (x + rn.lam0 + x * den)
            for b, scale, w, xstar in zip(self.b[1:], rn.scales, rn.weights, rn.xstars):
                out = np.where(x == xstar, (b / scale) / self.K / (xstar * w), out)
        return out


@dataclass(frozen=True)
class SDChain(ShrinkageFn):
    """Rule f_k of the k-step self-distillation chain, evaluated stage by
    stage, f_j = ((1 - xi_j) + xi_j x f_{j-1}) / (x + lambda_j) from f_{-1} =
    0 and xi_0 = 0: next to a pole that cancels less than the closed form's
    sum of terms."""

    params: SDParams

    def poles(self):
        return tuple(-l for l in self.params.lambdas)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for lam, xi in zip(self.params.lambdas, (0.0,) + self.params.xis):
                out = ((1.0 - xi) + xi * x * out) / (x + lam)
        return out


@dataclass(frozen=True)
class GDPoly(ShrinkageFn):
    """Gradient-descent polynomial f_T(x) = eta sum_{k<T} (1 - eta x)^k."""

    eta: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 1 <= self.steps < 2**1024:
            raise ValueError("steps must be a positive integer below 2^1024, "
                             "the range of a double")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        eta, T = self.eta, self.steps
        u = eta * x
        out = np.empty_like(x)
        small = np.abs(u) < 1e-12
        out[small] = eta * T
        mid = (~small) & (u > 0) & (u < 0.5)
        # stable geometric sum: (1 - (1-u)^T)/x via expm1/log1p
        out[mid] = -np.expm1(T * np.log1p(-u[mid])) / x[mid]
        rest = ~(small | mid)
        with np.errstate(over="ignore", invalid="ignore"):
            out[rest] = (1.0 - (1.0 - u[rest]) ** T) / x[rest]
        return out[0] if scalar else out


@dataclass(frozen=True)
class SharpCut(ShrinkageFn):
    """1/x at and above the cut, 0 below it; the cut is its break point.

    PCR keeps the components above a cut inside the bulk (`pcr_rule`) or
    among the outliers; the minimum-norm interpolator keeps every nonzero
    one (`min_norm_rule`).
    """

    cut: float

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", (self.cut,))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.divide(1.0, x, out=np.zeros_like(x), where=x >= self.cut)


@dataclass(frozen=True)
class RiskBreakdown:
    """Limiting risk split into bulk bias, per-spike bias, variance."""

    bias_bulk: float
    bias_spikes: tuple[float, ...]
    variance: float
    total: float


def _breakdown(bias_bulk: float, bias_spikes, variance: float) -> RiskBreakdown:
    spikes = tuple(float(v) for v in bias_spikes)
    total = float(bias_bulk) + fsum(spikes) + float(variance)
    if not math.isfinite(total):
        raise NumericalError("risk integrals did not evaluate to finite values")
    return RiskBreakdown(float(bias_bulk), spikes, float(variance), total)


#: a sample eigenvalue within this times the largest one of a declared
#: pole of a rule takes the value 0, like one where the rule is not finite
PINV_RTOL = 1e-10


def eval_shrinkage(f: ShrinkageFn, x):
    """f at sample eigenvalues x >= 0 under the pseudoinverse convention.

    The only place a rule's value is mapped: where f is not finite (a
    pole or an overflow), or x is within PINV_RTOL max(x) of one of its
    poles, the value is 0, so that direction contributes nothing.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("shrinkage rules are defined on x >= 0")
    values = np.asarray(f(x), dtype=float)
    keep = np.isfinite(values)
    band = PINV_RTOL * float(x.max()) if x.size else 0.0
    for pole in f.poles():
        keep &= np.abs(x - pole) >= band
    return np.where(keep, values, 0.0)


@dataclass(frozen=True, eq=False)
class RuleOnGrid:
    """A rule checked against a model: its read-only values at
    `grid.support_points`, and their risk moments and x f pass, each
    computed on first read and kept."""

    grid: SpectralGrid
    values: np.ndarray

    @cached_property
    def moments(self):
        """Risk moments; the federated norm reads int x f^2 dF_MP too."""
        return _rule_moments(self.grid, self.values)

    @cached_property
    def xf(self) -> np.ndarray:
        """[int x f dF_MP, int x f dF_{delta_1}, ..., int x f dF_{delta_s}],
        read-only; kept apart from `moments`, so that an op printing no
        risk does not integrate those."""
        xf = self.grid.integrate(self.grid.support_points * self.values)
        out = np.concatenate([[xf.mp], xf.delta])
        out.setflags(write=False)
        return out


def validate_rule(model: SpikedModel, f: ShrinkageFn, keep: bool = True) -> RuleOnGrid:
    """Check a rule against a model and evaluate it once on the model's grid.

    The grid's panels are split at the rule's breakpoints inside the
    bulk. A declared pole on the limiting support raises AssumptionError;
    a value that is not finite (an undeclared pole, or an overflow) raises
    NumericalError, on every call: no convention maps it. Returns the
    rule's `RuleOnGrid`, kept beside the model's grids (`spectra.cached`)
    unless keep is False, so records and grids are dropped together. Equal
    package rules (frozen dataclasses) share a record; other ShrinkageFn
    classes hash by identity and must not change once called.
    """
    a, b = mp_support(model)
    grid = get_grid(model, breaks=tuple(v for v in f.breakpoints if a < v < b))
    return cached(model, ("rule", f), lambda: _check_and_evaluate(grid, f), keep)


def _check_and_evaluate(grid: SpectralGrid, f: ShrinkageFn) -> RuleOnGrid:
    poles = np.asarray(f.poles(), dtype=float)
    inside = grid.on_support(poles)
    if np.any(inside):
        raise AssumptionError(
            f"rule has a pole at {float(poles[inside][0])}, inside the limiting "
            "support; shrinkage rules must be finite near the bulk and atoms"
        )
    values = np.asarray(f(grid.support_points))
    if not np.all(np.isfinite(values)):
        raise NumericalError("rule is not finite on the limiting support")
    values.setflags(write=False)
    return RuleOnGrid(grid, values)


def _rule_moments(grid: SpectralGrid, f):
    """(int (1-xf)^2 dF_alpha, [int (1-xf) dF_{delta_j}]_j, int x f^2 dF_MP)
    of the values f at grid.support_points; leading axes batch.

    Overflow of huge but finite values is left to `_breakdown`, which
    refuses a total that is not finite.
    """
    x = grid.support_points
    with np.errstate(over="ignore", invalid="ignore"):
        resid = 1.0 - x * f
        return (grid.integrate(resid**2).alpha, grid.integrate(resid).delta,
                grid.integrate(x * f**2).mp)


def _risk_terms(model: SpikedModel, moments, kind: str):
    """(bias_bulk, [bias_spike_j], variance) of the pred or est risk; like
    `_rule_moments`, leaves overflow to `_breakdown`."""
    alpha, delta, var = moments
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "pred":
            s0sq = model.sigma0_sq
            spikes = [d * al * al * delta[j] ** 2
                      for j, (d, al) in enumerate(model.spikes)]
            return (s0sq * model.r**2 * alpha, spikes,
                    model.c * s0sq * model.sigma_eps_sq * var)
        if kind == "est":
            return (model.r**2 * alpha, [0.0] * model.s,
                    model.c * model.sigma_eps_sq * var)
    raise ValueError("kind must be 'pred' or 'est'")


def limiting_pred_risk(model: SpikedModel, f: ShrinkageFn) -> RiskBreakdown:
    """Limiting out-of-sample prediction risk of the rule's estimator."""
    return _breakdown(*_risk_terms(model, validate_rule(model, f).moments, "pred"))


def limiting_est_risk(model: SpikedModel, f: ShrinkageFn) -> RiskBreakdown:
    """Limiting estimation (l2) risk; no per-spike squared bias terms."""
    return _breakdown(*_risk_terms(model, validate_rule(model, f).moments, "est"))


def limiting_risks(model: SpikedModel, f: ShrinkageFn):
    """(pred, est) risks from one evaluation of the rule, which is not kept."""
    moments = validate_rule(model, f, keep=False).moments
    return [_breakdown(*_risk_terms(model, moments, kind)) for kind in ("pred", "est")]


def ridge_risk_curve(model: SpikedModel, lambdas, kind: str = "pred") -> np.ndarray:
    """Vectorized limiting risk totals over a ridge grid."""
    lam = np.asarray(lambdas, dtype=float)[:, None]
    grid = get_grid(model)
    moments = _rule_moments(grid, 1.0 / (grid.support_points + lam))
    total, spikes, variance = _risk_terms(model, moments, kind)
    for term in spikes:
        total = total + term
    return total + variance


def best_ridge(model: SpikedModel, kind: str = "pred"):
    """(lambda, risk total) minimizing the limiting risk over a 200-point
    geometric grid around c sigma_eps^2 / r^2 + sigma0^2."""
    scale = model.c * model.sigma_eps_sq / model.r**2 + model.sigma0_sq
    lam = np.geomspace(1e-4 * scale, 1e3 * scale, 200)
    totals = ridge_risk_curve(model, lam, kind)
    i = int(np.argmin(totals))
    return float(lam[i]), float(totals[i])


def pcr_rule(model: SpikedModel, tau: float) -> SharpCut:
    """PCR retaining the top tau fraction of components: its cut is the
    bulk quantile with upper-tail mass tau."""
    if not 0.0 < tau < min(1.0, 1.0 / model.c):
        raise ValueError(
            f"tau must lie in (0, {min(1.0, 1.0 / model.c)}) for a bulk threshold"
        )
    return SharpCut(mp_quantile_inverse(model, tau))


def min_norm_rule(model: SpikedModel) -> SharpCut:
    """The minimum-norm interpolator, 1/x on every nonzero eigenvalue.

    Its cut sits halfway into the spectral gap (0, a), so it keeps the
    whole bulk and drops only the zero eigenvalues. Unsupported at c = 1, where the
    gap closes and the limiting risk is infinite.
    """
    a, _ = mp_support(model)
    if a <= 0 or abs(model.c - 1.0) < 1e-12:
        raise AssumptionError(
            "min-norm rule needs c != 1: the spectral gap above zero closes "
            "and the limiting risk diverges at c = 1"
        )
    return SharpCut(0.5 * a)


def pcr_sharp_pred_risk(model: SpikedModel, tau: float) -> RiskBreakdown:
    """Prediction risk of PCR retaining the top tau fraction (`pcr_rule`)."""
    return limiting_pred_risk(model, pcr_rule(model, tau))


def pcr_component_limit_risk(model: SpikedModel, m: int | None = None
                             ) -> RiskBreakdown:
    """Limit risk of PCR retaining finitely many components.

    With m components and s+ detached outliers, PCR keeps the min(m, s+)
    largest outliers in the limit; the rule is 1/x on those atoms and 0
    elsewhere, so the bulk and the zero atom keep their full bias weight
    and the variance vanishes (the MP law carries no outlier mass).
    m defaults to s+ (keep every detached component).
    """
    detached = sorted((float(x) for x in get_grid(model).atom_locs if x > 0),
                      reverse=True)
    kept = len(detached) if m is None else min(max(0, m), len(detached))
    return limiting_pred_risk(model, SharpCut(detached[kept - 1] if kept else math.inf))
