import math
import warnings

import numpy as np
import pytest

from spectral_distill import SpikedModel, spectra


@pytest.fixture(autouse=True)
def _runtime_warnings_are_errors():
    # a RuntimeWarning (an overflow, a division by zero) fails the test
    # that raises it; here, not in the ini options, so that the benchmark's
    # own tests keep their settings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.fixture(autouse=True)
def _fresh_grid_cache():
    # every test builds its grids afresh, so the warnings a grid build
    # raises show in each test that asks for it, whatever ran before
    spectra._per_model.clear()


@pytest.fixture(scope="session")
def fig1_model():
    # two-spike benchmark: c=3, delta=(2,3), alpha=(3,2.5), r=5, sigma_eps=2
    return SpikedModel(1.0, 3.0, ((2.0, 3.0), (3.0, 2.5)), 5.0, 4.0)


@pytest.fixture(scope="session")
def fig3_factory():
    def make(delta):
        return SpikedModel(1.0, 3.0, ((float(delta), 6.0),), 8.0, 16.0)

    return make


@pytest.fixture(scope="session")
def fig4_model():
    # one-spike benchmark: c=2, delta=7, alpha=1.7, r=2, sigma_eps=2
    return SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0)


def many_spike_model(rng, s):
    """Model with s spikes above detachment: sigma0^2 = 1, c in (0.5, 3),
    delta in (1.2, 12) sqrt(c), r = 2, sum alpha^2 = 0.81 r^2, random
    signs. Outliers may sit arbitrarily close together."""
    c = float(rng.uniform(0.5, 3.0))
    deltas = rng.uniform(1.2, 12.0, size=s) * math.sqrt(c)
    alphas = rng.uniform(0.2, 1.0, size=s)
    alphas *= 0.9 * 2.0 / np.linalg.norm(alphas)
    alphas *= rng.choice([-1.0, 1.0], size=s)
    return SpikedModel(1.0, c, tuple(zip(deltas.tolist(), alphas.tolist())), 2.0, 1.0)


def random_model(rng, s=None, c_range=(0.3, 4.0), force_above_bbp=False):
    """Valid random model away from the excluded degeneracies."""
    if s is None:
        s = int(rng.integers(0, 4))
    while True:
        sigma0_sq = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(*c_range))
        if abs(c - 1.0) < 5e-2:
            continue
        thr = np.sqrt(c) * sigma0_sq
        deltas = []
        tries = 0
        while len(deltas) < s and tries < 200:
            tries += 1
            lo = 1.2 * thr if force_above_bbp else 0.3
            d = float(rng.uniform(lo, max(8.0, 2.5 * thr)))
            ok = abs(d - thr) > 0.05 * max(1.0, thr)
            for d2 in deltas:
                if abs(d - d2) < 0.15 or abs(d * d2 - c * sigma0_sq**2) < 0.05:
                    ok = False
            if abs(d * d - c * sigma0_sq**2) < 0.05:
                ok = False
            if ok:
                deltas.append(d)
        if len(deltas) < s:
            continue
        r = float(rng.uniform(1.0, 5.0))
        alphas = rng.uniform(0.2, 1.0, size=s)
        alphas *= np.sqrt(0.7) * r / max(np.linalg.norm(alphas), 1e-9)
        signs = rng.choice([-1.0, 1.0], size=s)
        spikes = tuple(
            (deltas[j], float(alphas[j] * signs[j])) for j in range(s)
        )
        sigma_eps_sq = float(rng.uniform(0.25, 4.0))
        try:
            return SpikedModel(sigma0_sq, c, spikes, r, sigma_eps_sq)
        except Exception:
            continue


def _reference_panels(a, b, breaks, xstars=()):
    """Converged stand-in for spectra._theta_panels, in the same form.

    64-node Gauss-Legendre panels of width at most pi/64, graded
    geometrically down to 1e-9 at both ends of [0, pi] whatever the model.
    Each half is built as offsets from its own end and a node of the half
    next to theta = pi is returned as theta - pi < 0.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def panels(knots):
        t = 1e-9
        while t < math.pi / 64:
            knots.add(t)
            t *= 2.0
        knots = sorted(knots)
        edges = [0.0]
        for lo, hi in zip(knots[:-1], knots[1:]):
            k = math.ceil((hi - lo) / (math.pi / 64))
            edges.extend(lo + (hi - lo) * i / k for i in range(1, k))
            edges.append(hi)
        edges = np.array(edges)
        centre, width = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        u, w = np.polynomial.legendre.leggauss(64)
        return ((centre[:, None] + width[:, None] * u).ravel(),
                (width[:, None] * w).ravel())

    upper, lower = {0.0, 0.5 * math.pi}, {0.0, 0.5 * math.pi}
    for xb in breaks:
        if a < xb < b:
            (upper if xb >= mid else lower).add(math.acos(abs(xb - mid) / half))
    t_up, w_up = panels(upper)
    t_lo, w_lo = panels(lower)
    return np.concatenate([-t_lo, t_up]), np.concatenate([w_lo, w_up])
