"""Marchenko-Pastur and one-spike limiting spectral measures.

Supports, densities, atoms, the bulk quantile, and the quadrature
workspace. Everything here is deterministic and closed-form except the
bulk quadrature, which is one rule: composite Gauss-Legendre panels in
theta after the map x = (a+b)/2 + ((b-a)/2) cos(theta). That map absorbs
the square-root edge factor of the bulk density analytically; the panels
are split at a rule's break points and graded toward an edge with a near
singularity. A `SpectralGrid` is those bulk nodes followed by the atoms,
one point array with one weight vector per measure, and the split of a
measure into bulk and atoms is known only here. The density of F_delta
is the MP density divided by nu_delta in one place, `_over_nu`, which
both the grid's weights and `bulk_densities` call. The densities mu_j
of F_MP and each F_delta_j with respect to F_alpha are the ratios of
the grid's weights (`SpectralGrid.mu`): no other module forms a density
ratio. The Stieltjes transforms, which only the tests use as
references, are in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AssumptionError

# Relative tolerance used when deciding whether a point sits on the bulk
# or on an atom of the limiting support.
_SUPPORT_RTOL = 1e-9
_EPS = float(np.finfo(float).eps)


def fsum(values) -> float:
    """The correctly rounded sum of floats, math.fsum, whose bits do not
    depend on the Python version as those of the built-in sum do. Where
    math.fsum raises (a partial sum overflows, or inf meets -inf), the
    plain sum's inf or nan, which the caller's own checks refuse."""
    values = list(values)
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


@dataclass(frozen=True)
class SpikedModel:
    """Problem instance: Sigma = sigma0^2 I + sum_j delta_j v_j v_j'.

    Fields
    ------
    sigma0_sq : variance scale of the isotropic part (> 0)
    c         : limiting aspect ratio p/n (> 0)
    spikes    : ordered ((delta_j, alpha_j), ...); delta_j > 0 distinct,
                alpha_j != 0 is the limiting signal alignment beta0' v_j
    r         : limiting signal norm ||beta0||_2 (> 0)
    sigma_eps_sq : noise variance (>= 0)

    Every field must be finite and in range, or ValueError is raised:
    sigma0_sq and r in [1e-150, 1e150] (squares stay normal doubles), c in
    [1e-30, 1e30] (outside, the bulk [a, b] is under 18 ulp of b wide and
    collapses in rounding), delta_j / sigma0_sq in [1e-150, 1e150] (the
    outlier's location and atom mass stay finite) and |alpha_j| >= 1e-150 r
    (alpha_j^2/r^2 stays nonzero).

    `_store` is not a field: it is the model's own dict of records
    (`cached`), so equal models keep separate stores, `==`, `hash` and
    `repr` do not read it, and `replace` starts a new one.
    """

    sigma0_sq: float
    c: float
    spikes: tuple[tuple[float, float], ...]
    r: float
    sigma_eps_sq: float

    def __post_init__(self):
        object.__setattr__(self, "sigma0_sq", float(self.sigma0_sq))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "sigma_eps_sq", float(self.sigma_eps_sq))
        object.__setattr__(
            self, "spikes", tuple((float(d), float(a)) for d, a in self.spikes)
        )
        for name in ("sigma0_sq", "c", "r", "sigma_eps_sq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for j, (d, a) in enumerate(self.spikes):
            if not (math.isfinite(d) and math.isfinite(a)):
                raise ValueError(
                    f"spike {j + 1} must have finite delta and alpha, got ({d}, {a})"
                )
        if not (self.sigma0_sq > 0):
            raise ValueError("sigma0_sq must be positive")
        if not (self.c > 0):
            raise ValueError("c must be positive")
        if not (self.r > 0):
            raise ValueError("r must be positive")
        if self.sigma_eps_sq < 0:
            raise ValueError("sigma_eps_sq must be nonnegative")
        for name, lo, hi in (("sigma0_sq", 1e-150, 1e150), ("c", 1e-30, 1e30),
                             ("r", 1e-150, 1e150)):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} = {getattr(self, name)} is out of "
                                 f"range: it must lie in [{lo:g}, {hi:g}]")
        deltas = [d for d, _ in self.spikes]
        alphas = [a for _, a in self.spikes]
        if any(d <= 0 for d in deltas):
            raise AssumptionError("spike strengths delta_j must be positive")
        if len(set(deltas)) != len(deltas):
            raise AssumptionError("spike strengths delta_j must be distinct")
        if any(a == 0 for a in alphas):
            raise AssumptionError("signal alignments alpha_j must be nonzero")
        for j, (d, a) in enumerate(self.spikes):
            if not 1e-150 <= d / self.sigma0_sq <= 1e150:
                raise ValueError(f"delta_{j + 1} / sigma0_sq = {d / self.sigma0_sq:g} "
                                 "is out of range: it must lie in [1e-150, 1e+150]")
            if abs(a) < 1e-150 * self.r:
                raise ValueError(f"alpha_{j + 1} = {a} is out of range: "
                                 "|alpha_j| must be at least 1e-150 r")
        thr = self.c * self.sigma0_sq**2
        for i, di in enumerate(deltas):
            for dj in deltas[i:]:
                if abs(di * dj - thr) <= _SUPPORT_RTOL * thr:
                    raise AssumptionError(
                        "spike products must satisfy delta_i*delta_j != c*sigma0^4 "
                        f"(got {di}*{dj} ~= {thr})"
                    )
        if fsum(a * a for a in alphas) >= self.r**2:
            raise AssumptionError(
                "signal must not lie in the spike span: sum alpha_j^2 < r^2 required"
            )
        object.__setattr__(self, "_store", {})

    @property
    def s(self) -> int:
        return len(self.spikes)

    @property
    def deltas(self) -> np.ndarray:
        return np.array([d for d, _ in self.spikes])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([a for _, a in self.spikes])

    @property
    def bbp_threshold(self) -> float:
        """Spike strength above which an outlier eigenvalue detaches."""
        return self.sigma0_sq * math.sqrt(self.c)

    def replace(self, **kwargs) -> "SpikedModel":
        import dataclasses

        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class MixtureWeights:
    omega0: float
    omegas: tuple[float, ...]


def mixture_weights(model: SpikedModel) -> MixtureWeights:
    """omega0 = 1 - sum_j alpha_j^2 / r^2, omega_j = alpha_j^2 / r^2.

    F_alpha = omega0 F_MP + sum_j omega_j F_{delta_j}; the grid's F_alpha
    weights and every formula in omega take them from here.
    """
    omegas = tuple(float(a * a) / model.r**2 for a in model.alphas)
    return MixtureWeights(1.0 - fsum(omegas), omegas)


def mp_support(model: SpikedModel) -> tuple[float, float]:
    """Bulk support [a, b] = sigma0^2 (1 -+ sqrt(c))^2."""
    root_c = math.sqrt(model.c)
    # 1 - sqrt(c) = (1 - c)/(1 + sqrt(c)) keeps its digits for c near 1
    a = model.sigma0_sq * ((1.0 - model.c) / (1.0 + root_c)) ** 2
    b = model.sigma0_sq * (1.0 + root_c) ** 2
    return a, b


def mp_density(model: SpikedModel, x) -> np.ndarray:
    """Bulk density of the Marchenko-Pastur law; zero off (a, b)."""
    a, b = mp_support(model)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    inside = (x > a) & (x < b)
    out = np.zeros_like(x)
    xi = x[inside]
    out[inside] = np.sqrt((b - xi) * (xi - a)) / (
        2.0 * math.pi * model.sigma0_sq * model.c * xi
    )
    return out[0] if scalar else out


def mp_atom_at_zero(model: SpikedModel) -> float:
    # (c - 1)/c, not 1 - 1/c: c - 1 is exact next to c = 1, 1/c is not
    return max(0.0, (model.c - 1.0) / model.c)


def outlier_location(model: SpikedModel, delta: float) -> float:
    """Deterministic outlier position (delta+sigma0^2)(delta+c sigma0^2)/delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    s0 = model.sigma0_sq
    return (delta + s0) * (delta + model.c * s0) / delta


def outlier_atom_mass(model: SpikedModel, delta: float) -> float:
    """Mass of F_delta at the outlier; zero at or below the detachment point."""
    if delta <= model.bbp_threshold:
        return 0.0
    s0sq = model.sigma0_sq
    return (delta**2 - model.c * s0sq**2) / (delta * (delta + model.c * s0sq))


def spiked_atom_at_zero(model: SpikedModel, delta: float) -> float:
    if model.c <= 1:
        return 0.0
    s0sq = model.sigma0_sq
    return s0sq * (model.c - 1.0) / (model.c * s0sq + delta)


def nu_affine(model: SpikedModel, delta: float) -> tuple[float, float]:
    """Coefficients (p, q) of the density ratio dF_MP/dF_delta = p + q x.

    nu_delta(x) = delta (x_star - x) / (c sigma0^2 (delta + sigma0^2)); it
    is affine with negative slope and strictly positive on the bulk and
    at zero.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    s0sq = model.sigma0_sq
    denom = model.c * s0sq * (delta + s0sq)
    xstar = outlier_location(model, delta)
    return delta * xstar / denom, -delta / denom


def _over_nu(model: SpikedModel, delta: float, weights: np.ndarray,
             below_hi: np.ndarray) -> np.ndarray:
    """weights / nu_delta(x) at bulk points x with b - x = below_hi.

    nu(x) = (x_star - x)/g with g = c sigma0^2 (delta + sigma0^2)/delta.
    x_star - x is formed as (x_star - b) + (b - x), with x_star - b from
    the closed form (delta - sigma0^2 sqrt(c))^2 / delta, so it keeps its
    digits next to the edge when the spike sits near the detachment
    point. A gap beyond the double range puts the outlier at infinity,
    where the ratio is 0.
    """
    g = model.c * model.sigma0_sq * (delta + model.sigma0_sq) / delta
    with np.errstate(over="ignore"):
        gap = (delta - model.bbp_threshold) ** 2 / delta
    return weights * g / (gap + below_hi)


def bulk_densities(model: SpikedModel, x) -> np.ndarray:
    """Rows f_MP, f_delta_1, ..., f_delta_s of the bulk densities at x.

    f_delta_j = f_MP / nu_j. Every row is 0 off the open bulk (a, b), and
    only the points inside it are evaluated, so x may lie anywhere.
    """
    a, b = mp_support(model)
    x = np.asarray(x, dtype=float)
    rows = np.zeros((model.s + 1,) + x.shape)
    rows[0] = mp_density(model, x)
    inside = (x > a) & (x < b)
    f_mp, below_hi = rows[0][inside], b - x[inside]
    for j, d in enumerate(model.deltas):
        rows[j + 1][inside] = _over_nu(model, d, f_mp, below_hi)
    return rows


# ---------------------------------------------------------------------------
# Quadrature


PANEL_ORDER = 32
PANEL_MAX_WIDTH = math.pi / 8


# leggauss is O(n^3): the one table, built at import
_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(PANEL_ORDER)


def _graded_offsets(d: float) -> list[float]:
    # Knots d, 2d, 4d, ... below PANEL_MAX_WIDTH, measured from an end of
    # [0, pi]: each panel is about as wide as its distance from a complex
    # singularity at distance d off that end, so a fixed order converges
    # at the same geometric rate on every panel.
    out = []
    t = d
    while 0.0 < t < PANEL_MAX_WIDTH:
        out.append(t)
        t *= 2.0
    return out


def _panels(knots: set) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre panels between sorted knots, at most PANEL_MAX_WIDTH wide."""
    knots = sorted(knots)
    edges = [knots[0]]
    for lo, hi in zip(knots[:-1], knots[1:]):
        k = math.ceil((hi - lo) / PANEL_MAX_WIDTH)
        edges.extend(lo + (hi - lo) * i / k for i in range(1, k))
        edges.append(hi)
    edges = np.array(edges)
    centre, halfwidth = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    u, wu = _GAUSS_LEGENDRE
    return ((centre[:, None] + halfwidth[:, None] * u).ravel(),
            (halfwidth[:, None] * wu).ravel())


def _theta_panels(
    a: float, b: float, breaks: Sequence[float], xstars: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule in theta on [0, pi], split at breaks.

    The quadrature rule of every grid; breaks inside the bulk are where
    the integrand is only piecewise smooth. Panels have PANEL_ORDER nodes
    and width at most PANEL_MAX_WIDTH. Two factors of the bulk weights are
    singular just off the ends of [0, pi]: 1/x at complex distance
    sqrt(2a/h) from theta = pi, and 1/(x*_j - x) at sqrt(2 (x*_j - b)/h)
    from theta = 0 (h = (b - a)/2). When that distance is below
    PANEL_MAX_WIDTH, panels are graded geometrically toward that end.
    At a = 0 the 1/x factor cancels, but a rule's own poles next to zero,
    such as ridge's at -lambda, sit sqrt(2 (a + lambda)/h) from theta = pi;
    there the panels are graded down to lambda = eps*b.

    Each half of [0, pi] is built as offsets from its own end, so that a
    node next to theta = pi keeps its digits: the rule returns t = theta
    on [0, pi/2] and t = theta - pi < 0 on (pi/2, pi], in ascending x.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    upper = {0.0, 0.5 * math.pi}  # offsets from theta = 0, where x = b
    lower = {0.0, 0.5 * math.pi}  # offsets from theta = pi, where x = a
    for xb in breaks:
        if a < xb < b:
            side = upper if xb >= mid else lower
            side.add(math.acos(min(1.0, abs(xb - mid) / half)))
    gap = min((xs - b for xs in xstars), default=0.0)
    upper.update(_graded_offsets(math.sqrt(2.0 * gap / half) if gap > 0.0 else 0.0))
    lower.update(_graded_offsets(math.sqrt(2.0 * (a if a > 0.0 else _EPS * b) / half)))
    t_up, w_up = _panels(upper)
    t_lo, w_lo = _panels(lower)
    return np.concatenate([-t_lo, t_up[::-1]]), np.concatenate([w_lo, w_up[::-1]])


def bracketed_newton(f, lo: float, hi: float, x: float,
                     ftol: float = 0.0) -> float:
    """Zero of f in (lo, hi) by Newton steps kept inside a bisection bracket.

    f(x) returns the value and the slope at x, and rises through its zero
    on [lo, hi]: negative left of it, positive right of it. Each
    evaluation shrinks the bracket to the side holding the zero; a Newton
    step that leaves it, or a zero slope, is replaced by bisection, except
    a step of round-off size, which ends the search. Stops when
    |f(x)| <= ftol or a step moves x by at most 4 ulp. That stop needs an
    accurate slope: a wrong one makes a tiny step while x is still far
    from the zero. Works on Python floats.
    """
    for _ in range(100):
        fx, slope = f(x)
        if abs(fx) <= ftol:
            break
        if fx < 0.0:
            lo = x
        else:
            hi = x
        step = fx / slope if slope != 0.0 else math.inf
        tol = 4.0 * _EPS * abs(x)
        new = x - step
        if abs(step) > tol and not lo < new < hi:
            new = 0.5 * (lo + hi)
        done = abs(new - x) <= tol
        x = new
        if done:
            break
    return x


def mp_quantile_inverse(model: SpikedModel, tau: float) -> float:
    """Bulk point whose upper-tail MP mass equals tau.

    Valid for tau in [0, min(1, 1/c)); monotone decreasing in tau.
    """
    bulk_mass = min(1.0, 1.0 / model.c)
    if not (0.0 <= tau < bulk_mass):
        raise ValueError(f"tau must lie in [0, {bulk_mass}), got {tau}")
    a, b = mp_support(model)
    if tau == 0.0:
        return b
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    norm = 2.0 * math.pi * model.sigma0_sq * model.c
    root_ab, root_a_over_b = math.sqrt(a * b), math.sqrt(a / b)

    def upper_mass(theta: float) -> float:
        # Closed form of the mass of [x(theta), b]: the integral of
        # h^2 sin^2(t) / x(t) over [0, theta], divided by norm.
        return (mid * theta - half * math.sin(theta) - 2.0 * root_ab
                * math.atan(root_a_over_b * math.tan(0.5 * theta))) / norm

    def density(theta: float) -> float:
        # d(mass)/d(theta); x = b cos^2(theta/2) + a sin^2(theta/2) stays
        # accurate at both edges
        x = b * math.cos(0.5 * theta) ** 2 + a * math.sin(0.5 * theta) ** 2
        return half**2 * math.sin(theta) ** 2 / (x * norm)

    # the mass is increasing in theta and its derivative is the integrand
    theta = bracketed_newton(lambda t: (upper_mass(t) - tau, density(t)),
                             0.0, math.pi, 0.5 * math.pi, ftol=1e-15)
    return float(mid + half * math.cos(theta))


# ---------------------------------------------------------------------------
# Shared integration workspace


class MeasureIntegrals:
    """One integrand integrated against F_alpha, each F_delta_j and F_MP.

    `values` holds the integrand at the grid's `support_points` on its last
    axis; leading axes are a batch. Each family is integrated when it is
    read, so a caller pays only for the measures it uses.
    """

    def __init__(self, grid: SpectralGrid, values):
        self._grid, self._values = grid, values

    def _dot(self, w: np.ndarray) -> np.ndarray:
        # Not `@`, whose BLAS sums in the order of the CPU's kernel:
        # add.reduce sums pairwise in one fixed order.
        return np.add.reduce(self._values * w, axis=-1)

    @property
    def alpha(self) -> np.ndarray:
        return self._dot(self._grid.w_alpha)

    @property
    def delta(self) -> tuple[np.ndarray, ...]:
        """One integral per spike."""
        return tuple(self._dot(w) for w in self._grid.w_delta)

    @property
    def mp(self) -> np.ndarray:
        return self._dot(self._grid.w_mp)


class SpectralGrid:
    """Quadrature workspace for one model: one weighted point set.

    `support_points` holds the bulk nodes of `_theta_panels`, split at
    `breaks` (points inside the bulk where the integrand is only piecewise
    smooth), followed by the atoms: the zero atom (when c > 1), then the
    outliers of above-threshold spikes in spike order. `x` (the bulk
    nodes) and `atom_locs` are views of it. Each measure has one weight
    vector over those points: `w_mp` for F_MP, `w_delta[j]` for F_delta_j
    (bulk weights f_MP / nu_j plus its atom masses) and `w_alpha` for the
    mixture F_alpha.
    """

    def __init__(self, model: SpikedModel, breaks: tuple[float, ...] = ()):
        a, b = mp_support(model)
        self.bulk_lo, self.bulk_hi = a, b
        xstars = [outlier_location(model, d) for d in model.deltas]
        t, w_theta = _theta_panels(a, b, breaks, xstars)
        n = t.size
        # Edge offsets from the half angle, with 2h = b - a formed as
        # 4 sigma0^2 sqrt(c), as b - a itself cancels at small c:
        #   x - a = 2h cos^2(theta/2),  b - x = 2h sin^2(theta/2).
        # A node t < 0 sits at theta = pi + t, where cos^2(theta/2) =
        # sin^2(t/2), so each offset comes from the node's small angle and
        # keeps its digits next to its edge, even where a is 0 or round-off.
        # Their product is h^2 sin^2(theta): the MP weight is w (x-a)(b-x)/x.
        two_h = 4.0 * model.sigma0_sq * math.sqrt(model.c)
        cos2, sin2 = two_h * np.cos(0.5 * t) ** 2, two_h * np.sin(0.5 * t) ** 2
        above_lo = np.where(t > 0.0, cos2, sin2)
        below_hi = np.where(t > 0.0, sin2, cos2)

        # Atom layout and per-measure atom masses.
        s = model.s
        locs, mp_atoms, delta_atoms = [], [], [[] for _ in range(s)]
        if model.c > 1:
            locs.append(0.0)
            mp_atoms.append(mp_atom_at_zero(model))
            for j, d in enumerate(model.deltas):
                delta_atoms[j].append(spiked_atom_at_zero(model, d))
        for j, d in enumerate(model.deltas):
            if d > model.bbp_threshold:
                locs.append(xstars[j])
                mp_atoms.append(0.0)
                for i in range(s):
                    delta_atoms[i].append(outlier_atom_mass(model, d) if i == j else 0.0)

        self.support_points = np.concatenate([a + above_lo, locs])
        self.support_points.setflags(write=False)  # shared by every cache hit
        self.x, self.atom_locs = self.support_points[:n], self.support_points[n:]
        # divided by sigma0^2 c first: at sigma0^2 = 1e-150 the product of
        # the offsets next to a = 0 would underflow
        mp_bulk = w_theta * (above_lo / (2.0 * math.pi * model.sigma0_sq * model.c)
                             ) * below_hi / self.x
        self.w_mp = np.concatenate([mp_bulk, mp_atoms])
        self.w_delta = tuple(
            np.concatenate([_over_nu(model, d, mp_bulk, below_hi), atoms])
            for d, atoms in zip(model.deltas, delta_atoms))
        weights = mixture_weights(model)
        self.w_alpha = weights.omega0 * self.w_mp
        for om, w in zip(weights.omegas, self.w_delta):
            self.w_alpha = self.w_alpha + om * w

    def integrate(self, values) -> MeasureIntegrals:
        """Integrals of one integrand against F_alpha, each F_delta_j and F_MP.

        `values` is the integrand at `support_points` (last axis). Every
        limiting risk and inner product of a rule is assembled from these.
        """
        return MeasureIntegrals(self, values)

    def mu(self) -> np.ndarray:
        """Rows mu_0, mu_1, ..., mu_s at `support_points`: the densities of
        F_MP and each F_delta_j with respect to F_alpha.

        Each is a ratio of weights, [w_mp, *w_delta] / w_alpha, so the
        bulk ratios carry the gap form of `_over_nu`, the zero atom's are
        ratios of masses and an outlier's are 1/omega_j and exactly 0. A
        bulk node whose weights all underflowed to 0 would carry no mass
        in any measure; its mu is 0.
        """
        stack = np.stack([self.w_mp, *self.w_delta])
        return np.divide(stack, self.w_alpha, out=np.zeros_like(stack),
                         where=self.w_alpha > 0.0)

    def on_support(self, x) -> np.ndarray:
        """Mask of points on the bulk or on an atom, to a relative tolerance."""
        x = np.asarray(x, dtype=float)
        tol = _SUPPORT_RTOL * self.bulk_hi
        ok = (x >= self.bulk_lo - tol) & (x <= self.bulk_hi + tol)
        for loc in self.atom_locs:
            ok = ok | (np.abs(x - loc) <= _SUPPORT_RTOL * max(self.bulk_hi, abs(loc)))
        return ok


def cached(model: SpikedModel, key, build, keep: bool = True):
    """build() once per model object and key, in the model's own store and
    freed with it; a value must not hold its model, or the two form a cycle
    that only the cyclic collector frees. keep=False keeps no new value.
    Keys: ("grid", breaks), ("poles",) and ("rule", f)."""
    store = model._store
    value = store[key] if key in store else build()
    return store.setdefault(key, value) if keep else value


def get_grid(model: SpikedModel, breaks: tuple[float, ...] = ()) -> SpectralGrid:
    breaks = tuple(breaks)
    return cached(model, ("grid", breaks), lambda: SpectralGrid(model, breaks=breaks))
