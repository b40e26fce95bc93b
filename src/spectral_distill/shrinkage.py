"""Spectral shrinkage rules and their limiting prediction/estimation risks.

A rule f maps sample eigenvalues to shrinkage factors; the estimator is
f(Sigma_hat) X'y/n with the pseudoinverse convention that eigendirections
where |f| is infinite contribute nothing. Every rule is a ShrinkageFn:
ridge, self-distillation chains, gradient-descent polynomials, ramped
PCR / min-norm surrogates, tabulated values, and RationalRule, the one
rational type. A RationalRule is Q/P with P given by its roots; the
optimal rules of `optimal` evaluate Q in the factored nu basis of their
model, hand-built ones from its coefficients.

A rule meets a model in `validate_rule`, which checks it and evaluates it
once on the model's grid. Each limiting risk assembles three moments of
those values, all from `SpectralGrid.integrate`:

    pred:  sigma0^2 r^2 int (1-xf)^2 dF_alpha
           + sum_j delta_j alpha_j^2 (int (1-xf) dF_{delta_j})^2
           + c sigma0^2 sigma_eps^2 int x f^2 dF_MP
    est:   r^2 int (1-xf)^2 dF_alpha + c sigma_eps^2 int x f^2 dF_MP

Values and moments are cached per (grid object, rule), so the risks,
inner products and self-checks of one rule share one evaluation and one
moment pass; see `validate_rule`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssumptionError, NumericalError
from .spectra import SpikedModel, get_grid, mp_support, mp_quantile_inverse

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
    """Base class: a callable rule with optional pole/breakpoint metadata."""

    #: bulk points where the rule is only piecewise smooth (ramp edges);
    #: risk quadrature splits panels there.
    breakpoints: tuple[float, ...] = ()

    def poles(self) -> tuple[float, ...]:
        return ()

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError


def _finite_or_zero(vals, flag_context: str | None = None):
    vals = np.asarray(vals, dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        if flag_context:
            warnings.warn(
                f"{flag_context}: rule evaluated at a pole; "
                "mapped to 0 by the pseudoinverse convention",
                RuntimeWarning,
                stacklevel=3,
            )
        vals = np.where(bad, 0.0, vals)
    return vals


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
            out = 1.0 / (x + self.lam)
        return _finite_or_zero(out)


@dataclass(frozen=True)
class RationalRule(ShrinkageFn):
    """Rational rule Q/P with monic P = prod_k (x - roots_of_p[k]).

    P is kept as its roots. Rules built from a model (see `optimal`) keep
    Q in the nu-product basis of that model,
    Q = q_nu[0] nu + sum_j q_nu[j] nu_{-j}, and evaluate it through the
    factored nu products of `rn`: monomial coefficients cancel badly when
    outliers (and so roots of P) sit close together or are many.
    Hand-built rules (rn None) give Q by its ascending monomial
    coefficients `q_coeffs`. The poles are the roots of P.
    """

    roots_of_p: tuple[float, ...]
    q_coeffs: tuple[float, ...] = ()
    q_nu: tuple[float, ...] = ()
    rn: RnPolynomials | None = None

    def poles(self):
        return self.roots_of_p

    def q(self, x):
        """Numerator Q at x."""
        x = np.asarray(x, dtype=float)
        if self.rn is None:
            return np.polynomial.polynomial.polyval(x, np.array(self.q_coeffs))
        return self.rn.combination(self.q_nu, x)[0]

    def monomial_coeffs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Ascending coefficients of P and of Q (padded to deg P terms).

        For output only: they lose digits to cancellation where the
        factored forms do not.
        """
        p = np.ones(1)
        for g in self.roots_of_p:
            p = np.convolve(p, [-g, 1.0])
        if self.rn is None:
            q = np.array(self.q_coeffs, dtype=float)
        else:
            # expand q_nu[0] nu + sum_j q_nu[j] nu_{-j} one factor at a time:
            # q <- q nu_j + q_nu[j] (product of the factors so far)
            q, prod = np.array(self.q_nu[:1]), np.ones(1)
            for c, affine in zip(self.q_nu[1:], self.rn.affine):
                q = np.convolve(q, affine) + np.append(c * prod, 0.0)
                prod = np.convolve(prod, affine)
        q = np.concatenate([q, np.zeros(max(0, p.size - 1 - q.size))])
        return tuple(p), tuple(q)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        num = self.q(x)
        den = np.ones_like(x)
        for g in self.roots_of_p:
            den = den * (x - g)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / den
        return _finite_or_zero(out, flag_context="RationalRule")


@dataclass(frozen=True)
class SDChain(ShrinkageFn):
    params: SDParams

    def poles(self):
        return tuple(-l for l in self.params.lambdas)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lams = self.params.lambdas
        xis = (0.0,) + self.params.xis
        k = self.params.k
        with np.errstate(divide="ignore", invalid="ignore"):
            acc = np.zeros_like(x)
            coef = 1.0
            suffix = np.ones_like(x)
            for j in range(k, -1, -1):
                acc = acc + (1.0 - xis[j]) * coef * suffix / (x + lams[j])
                coef *= xis[j]
                suffix = suffix * x / (x + lams[j])
        return _finite_or_zero(acc)


@dataclass(frozen=True)
class GDPoly(ShrinkageFn):
    """Gradient-descent polynomial f_T(x) = eta sum_{k<T} (1 - eta x)^k."""

    eta: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")

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
        out = _finite_or_zero(out)
        return out[0] if scalar else out


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class _RampedInverse(ShrinkageFn):
    """0 below the ramp, 1/x above it, C^1 cubic smoothstep in between."""

    threshold: float
    ramp_width: float

    def __post_init__(self):
        if not (math.isfinite(self.ramp_width) and self.ramp_width > 0):
            raise ValueError(
                f"ramp_width must be positive and finite, got {self.ramp_width}"
            )
        if self.threshold - 0.5 * self.ramp_width <= 0:
            raise ValueError("ramp must stay strictly above zero")
        object.__setattr__(
            self,
            "breakpoints",
            (self.threshold - 0.5 * self.ramp_width,
             self.threshold + 0.5 * self.ramp_width),
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        lo, hi = self.breakpoints
        out = np.zeros_like(x)
        above = x >= hi
        out[above] = 1.0 / x[above]
        ramp = (x > lo) & (x < hi)
        out[ramp] = _smoothstep((x[ramp] - lo) / (hi - lo)) / x[ramp]
        return out[0] if scalar else out


@dataclass(frozen=True)
class PCRSurrogate(_RampedInverse):
    """Keep-above-threshold rule smoothed over a narrow ramp inside the bulk."""


@dataclass(frozen=True)
class MinNormSurrogate(_RampedInverse):
    """1/x with the pole gated off below a cut inside the spectral gap."""

    @property
    def cut(self) -> float:
        return self.threshold


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


@dataclass(frozen=True)
class RiskBreakdown:
    """Limiting risk split into bulk bias, per-spike bias, variance."""

    bias_bulk: float
    bias_spikes: tuple[float, ...]
    variance: float
    total: float


def _breakdown(bias_bulk: float, bias_spikes, variance: float) -> RiskBreakdown:
    spikes = tuple(float(v) for v in bias_spikes)
    total = float(bias_bulk) + sum(spikes) + float(variance)
    if not math.isfinite(total):
        raise NumericalError("risk integrals did not evaluate to finite values")
    return RiskBreakdown(float(bias_bulk), spikes, float(variance), total)


def eval_shrinkage(f: ShrinkageFn, x):
    """Evaluate a rule; nonnegative x expected, poles map to 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("shrinkage rules are defined on x >= 0")
    return f(x)


def sd_chain_fn(params: SDParams, model: SpikedModel | None = None) -> SDChain:
    """Closed-form rule of the k-step self-distillation chain.

    f_k(x) = sum_{j=0..k} (1-xi_j) (prod_{t>j} xi_t) (prod_{t>j} x/(x+lambda_t))
             / (x + lambda_j),  with xi_0 = 0.
    """
    fn = SDChain(params)
    if model is not None:
        validate_rule(model, fn)
    return fn


def validate_rule(model: SpikedModel, f: ShrinkageFn
                  ) -> tuple[SpectralGrid, np.ndarray, np.ndarray]:
    """Check a rule against a model and evaluate it once on the model's grid.

    The grid's panels are split at the rule's breakpoints inside the
    bulk. A declared pole on the limiting support
    raises AssumptionError; a value that is not finite raises
    NumericalError, on every call. Returns (grid, f at grid.x, f at
    grid.atom_locs), read-only arrays from a small cache keyed on the
    grid object and f, never on the model: a grid rebuilt after
    `_grid_cached` is cleared, or from other panels, is evaluated afresh.
    Equal package rules (frozen dataclasses) share an entry; other
    ShrinkageFn classes hash by identity and must not change once called.
    """
    a, b = mp_support(model)
    breaks = tuple(v for v in f.breakpoints if a < v < b)
    grid = get_grid(model, breaks=breaks)
    for p in f.poles():
        if grid.on_support(np.array([p]))[0]:
            raise AssumptionError(
                f"rule has a pole at {p}, inside the limiting support; "
                "shrinkage rules must be finite near the bulk and atoms"
            )
    return (grid, *_evaluate(grid, f))


@lru_cache(maxsize=16)
def _evaluate(grid: SpectralGrid, f: ShrinkageFn) -> tuple[np.ndarray, np.ndarray]:
    f_bulk = np.asarray(f(grid.x))
    f_atoms = np.asarray(f(grid.atom_locs)) if grid.atom_locs.size else np.zeros(0)
    if not (np.all(np.isfinite(f_bulk)) and np.all(np.isfinite(f_atoms))):
        raise NumericalError("rule is not finite on the limiting support")
    f_bulk.setflags(write=False)
    f_atoms.setflags(write=False)
    return f_bulk, f_atoms


def _risk_moments(grid, resid_bulk, resid_atoms, var_bulk, var_atoms):
    """(int resid^2 dF_alpha, [int resid dF_{delta_j}]_j, int var dF_MP).

    For a rule f, resid = 1 - x f and var = x f^2; leading axes batch.
    """
    return (grid.integrate(resid_bulk**2, resid_atoms**2).alpha,
            grid.integrate(resid_bulk, resid_atoms).delta,
            grid.integrate(var_bulk, var_atoms).mp)


def _rule_moments(grid, f_bulk, f_atoms):
    x, xa = grid.x, grid.atom_locs
    return _risk_moments(grid, 1.0 - x * f_bulk, 1.0 - xa * f_atoms,
                         x * f_bulk**2, xa * f_atoms**2)


@lru_cache(maxsize=16)
def _moments(grid: SpectralGrid, f: ShrinkageFn):
    """Risk moments of a rule validated on grid, shared by both risks."""
    return _rule_moments(grid, *_evaluate(grid, f))


def _risk_terms(model: SpikedModel, moments, kind: str):
    """(bias_bulk, [bias_spike_j], variance) of the pred or est risk."""
    alpha, delta, var = moments
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
    moments = _moments(validate_rule(model, f)[0], f)
    return _breakdown(*_risk_terms(model, moments, "pred"))


def limiting_est_risk(model: SpikedModel, f: ShrinkageFn) -> RiskBreakdown:
    """Limiting estimation (l2) risk; no per-spike squared bias terms."""
    moments = _moments(validate_rule(model, f)[0], f)
    return _breakdown(*_risk_terms(model, moments, "est"))


def ridge_risk_curve(model: SpikedModel, lambdas, kind: str = "pred") -> np.ndarray:
    """Vectorized limiting risk totals over a ridge grid."""
    lam = np.asarray(lambdas, dtype=float)[:, None]
    grid = get_grid(model)
    moments = _rule_moments(grid, 1.0 / (grid.x + lam),
                            1.0 / (grid.atom_locs + lam))
    total, spikes, variance = _risk_terms(model, moments, kind)
    for term in spikes:
        total = total + term
    return total + variance


def best_ridge(model: SpikedModel, lambdas=None, kind: str = "pred"):
    """(lambda, risk total) minimizing the limiting risk over a grid."""
    if lambdas is None:
        scale = model.c * model.sigma_eps_sq / model.r**2 + model.sigma0_sq
        lambdas = np.geomspace(1e-4 * scale, 1e3 * scale, 200)
    lam = np.asarray(lambdas, dtype=float)
    totals = ridge_risk_curve(model, lam, kind)
    i = int(np.argmin(totals))
    return float(lam[i]), float(totals[i])


def default_ramp_width(model: SpikedModel) -> float:
    a, b = mp_support(model)
    return 1e-3 * (b - a)


def pcr_surrogate(model: SpikedModel, tau: float,
                  ramp_width: float | None = None) -> PCRSurrogate:
    """Smoothed keep-top-tau-fraction rule with threshold inside the bulk."""
    if not 0.0 < tau < min(1.0, 1.0 / model.c):
        raise ValueError(
            f"tau must lie in (0, {min(1.0, 1.0 / model.c)}) for a bulk threshold"
        )
    t = mp_quantile_inverse(model, tau)
    w = default_ramp_width(model) if ramp_width is None else float(ramp_width)
    return PCRSurrogate(t, w)


def min_norm_surrogate(model: SpikedModel,
                       ramp_width: float | None = None) -> MinNormSurrogate:
    """Minimum-norm interpolator surrogate; the cut sits in the spectral gap.

    Unsupported at c = 1 where the gap closes and the limiting risk is
    infinite.
    """
    a, _ = mp_support(model)
    if a <= 0 or abs(model.c - 1.0) < 1e-12:
        raise AssumptionError(
            "min-norm surrogate needs c != 1: the spectral gap above zero closes "
            "and the limiting risk diverges at c = 1"
        )
    cut = 0.5 * a  # half the gap by default
    w = 0.5 * a if ramp_width is None else float(ramp_width)
    if cut + 0.5 * w >= a:
        raise ValueError("ramp must stay inside the spectral gap (0, a)")
    return MinNormSurrogate(cut, w)


def named_surrogates(model: SpikedModel) -> dict:
    """{'min_norm': ShrinkageFn, 'pcr': tau -> ShrinkageFn}."""
    out = {"pcr": lambda tau: pcr_surrogate(model, tau)}
    if abs(model.c - 1.0) >= 1e-12:
        out["min_norm"] = min_norm_surrogate(model)
    return out


def pcr_sharp_pred_risk(model: SpikedModel, tau: float) -> RiskBreakdown:
    """Zero-ramp-width limit of the PCR surrogate's prediction risk.

    Computed with the exact indicator rule by splitting the quadrature at
    the threshold; equals the risk of retaining the top tau fraction of
    components.
    """
    if not 0.0 < tau < min(1.0, 1.0 / model.c):
        raise ValueError("tau out of range")
    t = mp_quantile_inverse(model, tau)
    grid = get_grid(model, breaks=(t,))
    x, locs = grid.x, grid.atom_locs
    keep = x >= t
    fa = np.where(locs > 0, 1.0 / np.where(locs > 0, locs, 1.0), 0.0)
    moments = _risk_moments(grid, np.where(keep, 0.0, 1.0), 1.0 - locs * fa,
                            np.where(keep, 1.0 / x, 0.0), locs * fa**2)
    return _breakdown(*_risk_terms(model, moments, "pred"))


def pcr_component_limit_risk(model: SpikedModel, m: int | None = None
                             ) -> RiskBreakdown:
    """Limit risk of PCR retaining finitely many components.

    With m components and s+ detached outliers, PCR keeps the min(m, s+)
    largest outliers in the limit; the rule is 1/x on those atoms and 0
    elsewhere, so the bulk and the zero atom keep their full bias weight
    and the variance vanishes (the MP law carries no outlier mass).
    m defaults to s+ (keep every detached component).
    """
    grid = get_grid(model)
    detached = sorted(
        (loc for loc in grid.atom_locs if loc > 0), reverse=True
    )
    if m is None:
        m = len(detached)
    kept = set(detached[: max(0, m)])
    oma = np.array([0.0 if loc in kept else 1.0 for loc in grid.atom_locs])
    moments = _risk_moments(grid, np.ones_like(grid.x), oma,
                            np.zeros_like(grid.x), np.zeros_like(oma))
    return _breakdown(*_risk_terms(model, moments, "pred"))
