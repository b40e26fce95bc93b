"""Marchenko-Pastur and one-spike limiting spectral measures.

Supports, densities, atoms, Stieltjes transforms, and quadrature against
the bulk. Everything here is deterministic and closed-form except the
quadrature, which is one rule: composite Gauss-Legendre panels in theta
after the map x = (a+b)/2 + ((b-a)/2) cos(theta). That map absorbs the
square-root edge factor of the bulk density analytically; the panels are
split at a rule's break points and graded toward an edge with a near
singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import AssumptionError

# Relative tolerance used when deciding whether a point sits on the bulk
# or on an atom of the limiting support.
_SUPPORT_RTOL = 1e-9
_EPS = float(np.finfo(float).eps)


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
    collapses in rounding) and |alpha_j| >= 1e-150 r (alpha_j^2/r^2 stays
    nonzero).
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
        for j, a in enumerate(alphas):
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
        if sum(a * a for a in alphas) >= self.r**2:
            raise AssumptionError(
                "signal must not lie in the spike span: sum alpha_j^2 < r^2 required"
            )

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
class SpectralMeasure:
    """A limiting measure: bulk density on [bulk_lo, bulk_hi] plus atoms."""

    bulk_lo: float
    bulk_hi: float
    bulk_density: Callable[[np.ndarray], np.ndarray]
    atoms: tuple[tuple[float, float], ...]


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
    return max(0.0, 1.0 - 1.0 / model.c)


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


def mp_measure(model: SpikedModel) -> SpectralMeasure:
    a, b = mp_support(model)
    atoms = ()
    m0 = mp_atom_at_zero(model)
    if m0 > 0:
        atoms = ((0.0, m0),)
    return SpectralMeasure(a, b, lambda x: mp_density(model, x), atoms)


def spiked_measure(model: SpikedModel, delta: float) -> SpectralMeasure:
    """Limiting measure F_delta of the one-spike alignment weights.

    delta = 0 returns the MP measure itself.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return mp_measure(model)
    a, b = mp_support(model)
    p, q = nu_affine(model, delta)

    def density(x, _p=p, _q=q):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        base = mp_density(model, x)
        out = np.zeros_like(base)
        nz = base > 0
        out[nz] = base[nz] / (_p + _q * x[nz])
        return out[0] if scalar else out

    atoms = []
    m0 = spiked_atom_at_zero(model, delta)
    if m0 > 0:
        atoms.append((0.0, m0))
    ms = outlier_atom_mass(model, delta)
    if ms > 0:
        atoms.append((outlier_location(model, delta), ms))
    return SpectralMeasure(a, b, density, tuple(atoms))


# ---------------------------------------------------------------------------
# Quadrature


PANEL_ORDER = 32
PANEL_MAX_WIDTH = math.pi / 8


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # leggauss is O(n^3): build each table once per process
    return np.polynomial.legendre.leggauss(n)


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
    u, wu = _gauss_legendre(PANEL_ORDER)
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


def bracketed_newton(f, lo: float, hi: float, x: float, rising: bool,
                     ftol: float = 0.0) -> float:
    """Zero of f in (lo, hi) by Newton steps kept inside a bisection bracket.

    f(x) returns the value and the slope at x, and changes sign on
    [lo, hi]: rising means the value is negative left of the zero. Each
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
        if (fx < 0.0) == rising:
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
                             0.0, math.pi, 0.5 * math.pi, rising=True, ftol=1e-15)
    return float(mid + half * math.cos(theta))


# ---------------------------------------------------------------------------
# Shared integration workspace


class MeasureIntegrals:
    """One integrand integrated against F_alpha, each F_delta_j and F_MP.

    `bulk` holds the integrand at a grid's nodes `x` and `atoms` at its
    `atom_locs`, on their last axis; leading axes are a batch. Each family
    is integrated when it is read, so a caller pays only for the measures
    it uses.
    """

    def __init__(self, grid: SpectralGrid, bulk, atoms):
        self._grid, self._bulk, self._atoms = grid, bulk, atoms

    @property
    def alpha(self) -> np.ndarray:
        return self._bulk @ self._grid.alpha_bulk + self._atoms @ self._grid.atom_alpha

    @property
    def delta(self) -> tuple[np.ndarray, ...]:
        """One integral per spike."""
        return tuple(self._bulk @ wb + self._atoms @ wa
                     for wb, wa in zip(self._grid.delta_bulk, self._grid.atom_delta))

    @property
    def mp(self) -> np.ndarray:
        return self._bulk @ self._grid.mp_bulk + self._atoms @ self._grid.atom_mp


class SpectralGrid:
    """Cached quadrature data for one model: nodes plus atom bookkeeping.

    The bulk nodes are those of `_theta_panels`, split at `breaks` (points
    inside the bulk where the integrand is only piecewise smooth). All
    measure integrals reduce to weighted dots over the same bulk nodes
    (the spiked bulk densities are f_MP / nu_j) together with explicit
    atom terms. `atom_locs` lists the zero atom (when c > 1)
    followed by the outlier atoms of above-threshold spikes in spike
    order; per-measure atom masses are aligned with that list.
    """

    def __init__(self, model: SpikedModel, breaks: tuple[float, ...] = ()):
        self.model = model
        a, b = mp_support(model)
        self.bulk_lo, self.bulk_hi = a, b
        xstars = [outlier_location(model, d) for d in model.deltas]
        t, w_theta = _theta_panels(a, b, breaks, xstars)
        # Edge offsets from the half angle, with h = (b - a)/2:
        #   x - a = 2h cos^2(theta/2),  b - x = 2h sin^2(theta/2).
        # A node t < 0 sits at theta = pi + t, where cos^2(theta/2) =
        # sin^2(t/2), so each offset comes from the node's small angle and
        # keeps its digits next to its edge, also when a is zero or within
        # round-off of it. h^2 sin^2(theta) is their product, so the MP
        # bulk weight is w (x - a)(b - x) / x.
        two_h = b - a
        cos2, sin2 = two_h * np.cos(0.5 * t) ** 2, two_h * np.sin(0.5 * t) ** 2
        above_lo = np.where(t > 0.0, cos2, sin2)
        self._below_hi = np.where(t > 0.0, sin2, cos2)
        self.x = a + above_lo
        self.mp_bulk = w_theta * above_lo * self._below_hi / (
            2.0 * math.pi * model.sigma0_sq * model.c * self.x)

        s = model.s
        self.delta_bulk = [self._delta_bulk_weights(d) for d in model.deltas]
        alphas = model.alphas
        omega0 = 1.0 - float(np.sum(alphas**2)) / model.r**2
        omegas = alphas**2 / model.r**2
        self.alpha_bulk = omega0 * self.mp_bulk
        for j in range(s):
            self.alpha_bulk = self.alpha_bulk + omegas[j] * self.delta_bulk[j]

        # Atom layout.
        locs, mp_m, d_m = [], [], []
        if model.c > 1:
            locs.append(0.0)
            mp_m.append(mp_atom_at_zero(model))
            d_m.append([spiked_atom_at_zero(model, d) for d in model.deltas])
        self.outlier_slot = {}
        for j in range(s):
            if model.deltas[j] > model.bbp_threshold:
                self.outlier_slot[j] = len(locs)
                locs.append(xstars[j])
                mp_m.append(0.0)
                d_m.append([outlier_atom_mass(model, model.deltas[j]) if i == j else 0.0
                            for i in range(s)])
        self.atom_locs = np.array(locs)
        self.atom_mp = np.array(mp_m)
        self.atom_delta = np.array(d_m).reshape(len(locs), s).T if locs else np.zeros((s, 0))
        self.atom_alpha = omega0 * self.atom_mp
        for j in range(s):
            self.atom_alpha = self.atom_alpha + omegas[j] * self.atom_delta[j]

    # -- integral helpers ---------------------------------------------------

    def _delta_bulk_weights(self, delta: float) -> np.ndarray:
        """Bulk weights for F_delta: mp weights divided by nu_delta(x).

        nu(x) = (x_star - x)/g with g = c sigma0^2 (delta + sigma0^2)/delta.
        x_star - x is formed as (x_star - b) + (b - x) from the closed
        forms (delta - sigma0^2 sqrt(c))^2 / delta and 2h sin^2(theta/2),
        so it keeps its digits at the nodes next to the edge when the spike
        sits near the detachment point.
        """
        model = self.model
        g = model.c * model.sigma0_sq * (delta + model.sigma0_sq) / delta
        gap = (delta - model.bbp_threshold) ** 2 / delta
        return self.mp_bulk * g / (gap + self._below_hi)

    def _values(self, fn, pts):
        # dtype preserved so complex integrands (resolvent tests) work
        return np.asarray(fn(pts)) if callable(fn) else np.asarray(fn)

    def int_mp(self, fn):
        v = self._values(fn, self.x)
        total = self.mp_bulk @ v
        if self.atom_locs.size:
            total = total + self.atom_mp @ self._values(fn, self.atom_locs)
        return total.item()

    def int_delta(self, j: int, fn):
        v = self._values(fn, self.x)
        total = self.delta_bulk[j] @ v
        if self.atom_locs.size:
            total = total + self.atom_delta[j] @ self._values(fn, self.atom_locs)
        return total.item()

    def integrate(self, bulk, atoms) -> MeasureIntegrals:
        """Integrals of one integrand against F_alpha, each F_delta_j and F_MP.

        Every limiting risk and inner product of a rule is assembled from
        these; see MeasureIntegrals for the layout of `bulk` and `atoms`.
        """
        return MeasureIntegrals(self, bulk, atoms)

    def on_support(self, x) -> np.ndarray:
        """Mask of points lying on the bulk or on an atom of the support."""
        x = np.asarray(x, dtype=float)
        tol = _SUPPORT_RTOL * max(1.0, self.bulk_hi)
        ok = (x >= self.bulk_lo - tol) & (x <= self.bulk_hi + tol)
        for loc in self.atom_locs:
            ok = ok | (np.abs(x - loc) <= tol * max(1.0, abs(loc)))
        return ok

    @property
    def support_points(self) -> np.ndarray:
        """Bulk nodes followed by the atom locations."""
        return np.concatenate([self.x, self.atom_locs]) if self.atom_locs.size else self.x


@lru_cache(maxsize=128)
def _grid_cached(model: SpikedModel, breaks: tuple) -> SpectralGrid:
    return SpectralGrid(model, breaks=breaks)


def get_grid(model: SpikedModel, breaks: tuple[float, ...] = ()) -> SpectralGrid:
    return _grid_cached(model, tuple(breaks))
