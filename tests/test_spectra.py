import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

import spectral_distill as sd
from spectral_distill import AssumptionError, SpikedModel
from spectral_distill.spectra import nu_affine

from oracles import (companion_stieltjes, companion_stieltjes_boundary, mp_stieltjes,
                     spiked_stieltjes)

ONE = lambda x: np.ones_like(x)


def iso(sigma0_sq=1.0, c=1.0):
    return SpikedModel(sigma0_sq, c, (), 1.0, 1.0)


def spiked(sigma0_sq, c, delta):
    # one spike, so the model's grid integrates against F_delta
    return SpikedModel(sigma0_sq, c, ((delta, 0.5),), 1.0, 1.0)


def delta_atoms(model, j=0):
    """(location, mass) of each atom of F_delta_j, as `measure` prints them."""
    grid = sd.get_grid(model)
    return tuple((loc, mass) for loc, mass
                 in zip(grid.atom_locs, grid.w_delta[j][grid.x.size:]) if mass > 0)


# ---------------------------------------------------------------------------
# model validation


def test_model_rejects_duplicate_deltas():
    with pytest.raises(AssumptionError):
        SpikedModel(1.0, 2.0, ((1.5, 0.3), (1.5, 0.2)), 2.0, 1.0)


def test_model_rejects_bbp_product_degeneracy():
    # delta_1 * delta_2 = c sigma0^4 = 2
    with pytest.raises(AssumptionError):
        SpikedModel(1.0, 2.0, ((1.0, 0.3), (2.0, 0.2)), 2.0, 1.0)
    # i = j case: delta^2 = c sigma0^4
    with pytest.raises(AssumptionError):
        SpikedModel(1.0, 4.0, ((2.0, 0.3),), 2.0, 1.0)


def test_model_rejects_signal_in_spike_span():
    with pytest.raises(AssumptionError):
        SpikedModel(1.0, 2.0, ((1.5, 2.0),), 2.0, 1.0)


def test_model_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        SpikedModel(0.0, 2.0, (), 1.0, 1.0)
    with pytest.raises(ValueError):
        SpikedModel(1.0, -1.0, (), 1.0, 1.0)
    with pytest.raises(ValueError):
        SpikedModel(1.0, 1.0, (), 1.0, -0.5)


# ---------------------------------------------------------------------------
# support and density


def test_mp_support_examples():
    assert sd.mp_support(iso(1.0, 1.0)) == (0.0, 4.0)
    assert sd.mp_support(iso(1.0, 4.0)) == (1.0, 9.0)
    assert sd.mp_support(iso(2.0, 1.0)) == (0.0, 8.0)


def test_mp_support_zero_lower_edge_iff_c_one():
    assert sd.mp_support(iso(1.0, 1.0))[0] == 0.0
    assert sd.mp_support(iso(1.0, 0.99))[0] > 0.0
    assert sd.mp_support(iso(1.0, 1.01))[0] > 0.0


# ---------------------------------------------------------------------------
# Stieltjes transforms


def test_mp_stieltjes_value_against_quadrature_oracle():
    model = iso(1.0, 1.0)
    a, b = sd.mp_support(model)

    def dens(x):
        return math.sqrt((b - x) * (x - a)) / (2 * math.pi * x)

    oracle, err = quad(lambda x: dens(x) / (x + 1.0), a, b, limit=200)
    got = mp_stieltjes(model, -1.0)
    assert abs(got.imag) < 1e-12
    assert abs(got.real - oracle) < 1e-8
    # analytic value (sqrt(5)-1)/2
    assert abs(got.real - (math.sqrt(5) - 1) / 2) < 1e-12


@pytest.mark.parametrize("c,s0", [(1.0, 1.0), (2.0, 1.0), (0.5, 1.5), (4.0, 0.7)])
def test_mp_stieltjes_tail(c, s0):
    model = iso(s0, c)
    z = -1e9
    assert abs(-z * mp_stieltjes(model, z) - 1.0) < 1e-6


@pytest.mark.parametrize("z", [0.5 + 2.0j, -1.0 + 0.0j, 3.0 - 0.7j, -2.5 + 0.1j])
@pytest.mark.parametrize("c,s0", [(1.0, 1.0), (2.0, 1.0), (2.5, 1.3), (0.4, 0.8)])
def test_companion_fixed_point(z, c, s0):
    model = iso(s0, c)
    mb = companion_stieltjes(model, z)
    s0sq = model.sigma0_sq
    res = z * s0sq * mb**2 + (z - s0sq * (c - 1)) * mb + 1.0
    assert abs(res) < 1e-12


def test_companion_equals_mp_at_c_one():
    model = iso(1.0, 1.0)
    for z in (-0.5, 1.0 + 1.0j, -3.0):
        assert companion_stieltjes(model, z) == pytest.approx(
            mp_stieltjes(model, z)
        )


def test_companion_boundary_modulus_identity():
    model = iso(1.3, 2.0)
    a, b = sd.mp_support(model)
    for x in np.linspace(a + 1e-3, b - 1e-3, 20):
        mb = companion_stieltjes_boundary(model, x)
        assert abs(abs(mb) ** 2 - 1.0 / (model.sigma0_sq * x)) < 1e-12


def test_stieltjes_domain_errors():
    model = iso()
    with pytest.raises(ValueError):
        mp_stieltjes(model, 2.0)
    with pytest.raises(ValueError):
        companion_stieltjes(model, 0.0)
    with pytest.raises(ValueError):
        spiked_stieltjes(model, 1.0, 5.0)


def test_spiked_stieltjes_reduces_at_delta_zero():
    model = iso(1.0, 2.0)
    for z in (-1.0, 2.0 + 1.0j):
        assert spiked_stieltjes(model, 0.0, z) == pytest.approx(
            mp_stieltjes(model, z)
        )


def test_spiked_stieltjes_against_scipy_oracle():
    delta = 2.0
    model = spiked(1.0, 1.0, delta)
    a, b = sd.mp_support(model)
    z = -1.0
    bulk, _ = quad(lambda x: sd.bulk_densities(model, np.array([x]))[1][0] / (x - z),
                   a, b, limit=200)
    atoms = sum(mass / (loc - z) for loc, mass in delta_atoms(model))
    got = spiked_stieltjes(model, delta, z)
    assert abs(got.real - (bulk + atoms)) < 1e-6
    assert abs(got.imag) < 1e-12


def test_spiked_stieltjes_tail():
    model = iso(1.0, 2.0)
    z = -1e9
    assert abs(-z * spiked_stieltjes(model, 3.0, z) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# outlier location and spiked measure


def test_outlier_location_examples():
    assert sd.outlier_location(iso(1.0, 1.0), 2.0) == pytest.approx(4.5)
    assert sd.outlier_location(iso(1.0, 3.0), 3.0) == pytest.approx(8.0)
    # at the detachment point the outlier touches the bulk edge
    m = iso(1.0, 4.0)
    assert sd.outlier_location(m, 2.0) == pytest.approx(sd.mp_support(m)[1])
    with pytest.raises(ValueError):
        sd.outlier_location(m, 0.0)


def test_outlier_never_below_bulk_edge():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = iso(float(rng.uniform(0.5, 2)), float(rng.uniform(0.2, 5)))
        d = float(rng.uniform(0.05, 10))
        assert sd.outlier_location(m, d) >= sd.mp_support(m)[1] - 1e-12


def test_spiked_measure_atom_masses():
    assert delta_atoms(spiked(1.0, 1.0, 2.0)) == ((4.5, pytest.approx(0.5)),)
    # below the detachment threshold: no atoms at c = 1
    assert delta_atoms(spiked(1.0, 1.0, 0.8)) == ()
    # zero atom iff c > 1
    assert delta_atoms(spiked(1.0, 2.0, 1.0))[0][0] == 0.0
    assert all(loc != 0.0 for loc, _ in delta_atoms(spiked(1.0, 0.8, 1.0)))


def test_spiked_measure_below_bbp_bulk_mass_via_oracle():
    # scipy quadrature oracle, independent of the production grid. A model
    # refuses a spike within 1e-9 of the threshold in delta^2, so this is
    # the nearest spike below it.
    m = spiked(1.0, 1.0, 1.0 - 1e-9)
    assert delta_atoms(m) == ()
    mass, err = quad(lambda x: sd.bulk_densities(m, np.array([x]))[1][0], 0.0, 4.0,
                     limit=400)
    assert err < 1e-8
    assert abs(mass - 1.0) < 1e-8


@pytest.mark.parametrize("sigma0_sq,c", [(1.0, 0.3), (0.7, 2.0), (2.5, 5.0)])
def test_bulk_densities_next_to_detachment_against_50_digit_reference(sigma0_sq, c):
    # Spikes at (1 + 1e-4)x and (1 + 1e-8)x the detachment point put x* a
    # relative 1e-8 and 1e-16 above b. The reference takes the program's
    # float a, b and x as exact, so the rounding of b itself shows as an
    # error of up to ~eps b / (x* - x), which the bound allows.
    mpmath = pytest.importorskip("mpmath")
    thr = sigma0_sq * math.sqrt(c)
    model = SpikedModel(sigma0_sq, c, ((thr * (1 + 1e-4), 0.3),
                                       (thr * (1 + 1e-8), 0.2)), 1.0, 1.0)
    a, b = sd.mp_support(model)
    x = np.concatenate([b - b * np.geomspace(1e-12, 0.5, 24),
                        np.linspace(a, b, 41)[1:-1]])
    got = sd.bulk_densities(model, x)
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        s0 = mpmath.mpf(sigma0_sq)
        cc, lo, hi = mpmath.mpf(c), mpmath.mpf(a), mpmath.mpf(b)
        for j, delta in enumerate(model.deltas):
            d = mpmath.mpf(float(delta))
            xstar = (d + s0) * (d + cc * s0) / d
            for i, xi in enumerate(x.tolist()):
                xm = mpmath.mpf(xi)
                f_mp = (mpmath.sqrt((hi - xm) * (xm - lo))
                        / (2 * mpmath.pi * s0 * cc * xm))
                ref = f_mp * cc * s0 * (d + s0) / (d * (xstar - xm))
                err = abs((got[j + 1][i] - ref) / ref)
                bound = 4 * eps * b / float(xstar - xm) + 8 * eps
                assert err <= bound, (float(delta), xi, float(err), bound)


def away_from_threshold(delta, model):
    # A delta within ~1e-2 of the detachment point parks the outlier atom
    # a distance (delta - thr)^2 off the bulk edge, a boundary layer no
    # fixed-node rule resolves (the exact-threshold case reduces
    # analytically and is covered separately). Mirrors the model-level
    # exclusion delta^2 != c sigma0^4.
    thr = model.bbp_threshold
    return abs(delta - thr) > 0.02 * (1.0 + thr)


@settings(max_examples=25, deadline=None)
@given(
    delta=st.floats(0.2, 8.0),
    c=st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 5.0), st.just(1.0)),
    s0=st.floats(0.5, 2.0),
)
def test_spiked_measure_normalization_and_mean(delta, c, s0):
    assume(away_from_threshold(delta, iso(s0, c)))
    grid = sd.get_grid(spiked(s0, c, delta))
    x = grid.support_points
    assert abs(grid.integrate(ONE(x)).delta[0] - 1.0) < 1e-8
    mean = grid.integrate(x).delta[0]
    assert abs(mean - (delta + s0)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    delta=st.floats(0.2, 8.0),
    c=st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 5.0), st.just(1.0)),
    s0=st.floats(0.5, 2.0),
)
def test_change_of_measure_identity(delta, c, s0):
    assume(away_from_threshold(delta, iso(s0, c)))
    model = spiked(s0, c, delta)
    grid = sd.get_grid(model)
    p, q = nu_affine(model, delta)
    x = grid.support_points
    for phi in (ONE, lambda x: x, lambda x: x * x, lambda x: 1.0 / (x + 1.0)):
        lhs = grid.integrate(phi(x)).mp
        rhs = grid.integrate(phi(x) * (p + q * x)).delta[0]
        assert abs(lhs - rhs) < 1e-8


def test_atom_presence_exactly_at_thresholds():
    # outlier mass zero exactly when delta <= sigma0^2 sqrt(c)
    m = iso(1.0, 4.0)
    assert sd.spectra.outlier_atom_mass(m, 2.0) == 0.0
    assert sd.spectra.outlier_atom_mass(m, 2.0 + 1e-9) > 0.0
    # zero atom exactly when c > 1
    assert sd.spectra.mp_atom_at_zero(iso(1.0, 1.0)) == 0.0
    assert sd.spectra.mp_atom_at_zero(iso(1.0, 1.0 + 1e-9)) > 0.0


@pytest.mark.parametrize("c", [1.0 + 1e-6, 1.0 + 1e-12])
def test_zero_atom_mass_next_to_c_1_against_40_digit_reference(c):
    # (c - 1)/c: c - 1 is exact here, and 1 - 1/c would lose the digits
    # that the rounding of 1/c takes
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = (mpmath.mpf(c) - 1) / mpmath.mpf(c)
        got = sd.spectra.mp_atom_at_zero(iso(1.0, c))
        assert abs((got - want) / want) <= np.finfo(float).eps / 2


@pytest.mark.parametrize("model,bound", [
    (SpikedModel(1.0, 3.0, ((2.0, 3.0), (3.0, 2.5)), 5.0, 4.0), 1e-13),
    *[(SpikedModel(1.0, 2.0, ((k * math.sqrt(2.0), 0.6), (4.0, 0.5)), 2.0, 1.0),
       1e-13 if k == 1.5 else 4 * np.finfo(float).eps * k / (k - 1.0))
      for k in (1.5, 1.001, 1.00001)],
], ids=["fig1", "det1.5", "det1.001", "det1.00001"])
def test_grid_mu_against_50_digit_reference(model, bound):
    # The reference takes the model's floats and the grid's node angles
    # as exact: x = b - 4 sigma0^2 sqrt(c) sin^2(theta/2), theta = t for
    # t > 0 and pi + t for t < 0. Next to detachment the rounding of
    # sigma0^2 sqrt(c) in x* - b shows as an error of up to about
    # eps delta / (delta - sigma0^2 sqrt(c)), which the bound allows.
    mpmath = pytest.importorskip("mpmath")
    grid = sd.get_grid(model)
    a, b = sd.mp_support(model)
    t, _ = sd.spectra._theta_panels(
        a, b, (), [sd.outlier_location(model, d) for d in model.deltas])
    assert t.size == grid.x.size
    got = grid.mu()
    with mpmath.workdps(50):
        s0, c = mpmath.mpf(model.sigma0_sq), mpmath.mpf(model.c)
        omegas = [mpmath.mpf(al) ** 2 / mpmath.mpf(model.r) ** 2 for al in model.alphas]
        omega0 = 1 - sum(omegas)

        def want(x):
            inv_nu = [c * s0 * (d + s0) / (d * ((d + s0) * (d + c * s0) / d - x))
                      for d in map(mpmath.mpf, model.deltas.tolist())]
            mu0 = 1 / (omega0 + sum(om * v for om, v in zip(omegas, inv_nu)))
            return [mu0, *(mu0 * v for v in inv_nu)]

        top, two_h = s0 * (1 + mpmath.sqrt(c)) ** 2, 4 * s0 * mpmath.sqrt(c)
        points = [top - two_h * mpmath.sin((ti if ti > 0 else mpmath.pi + ti) / 2) ** 2
                  for ti in map(mpmath.mpf, t.tolist())]
        refs = [want(x) for x in points]
        if model.c > 1:
            refs.append(want(mpmath.mpf(0)))
        for j, d in enumerate(model.deltas):
            if d > model.bbp_threshold:  # an outlier: 1/omega_j and 0
                refs.append([1 / omegas[j] if i == j + 1 else mpmath.mpf(0)
                             for i in range(model.s + 1)])
        assert len(refs) == grid.support_points.size
        worst = max(float(abs(g - r) / r) if r else abs(g)
                    for col, ref in enumerate(refs)
                    for g, r in zip(got[:, col].tolist(), ref))
    assert worst <= bound


def test_stieltjes_closed_form_matches_grid_quadrature():
    rng = np.random.default_rng(3)
    for delta in (0.5, 2.4, 6.0):
        model = spiked(1.2, 2.5, delta)
        grid = sd.get_grid(model)
        for _ in range(20):
            z = complex(rng.uniform(-4, 8), rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))
            got = spiked_stieltjes(model, delta, z)
            ref = grid.integrate(1.0 / (grid.support_points - z)).delta[0]
            assert abs(got - ref) < 1e-6


# ---------------------------------------------------------------------------
# quantile inversion


def test_quantile_edges():
    model = iso(1.0, 2.0)
    a, b = sd.mp_support(model)
    assert sd.mp_quantile_inverse(model, 0.0) == b
    assert sd.mp_quantile_inverse(model, 0.5 * (1 - 1e-9)) == pytest.approx(a, abs=1e-3)
    with pytest.raises(ValueError):
        sd.mp_quantile_inverse(model, 0.5)  # bulk mass is 1/c = 0.5
    with pytest.raises(ValueError):
        sd.mp_quantile_inverse(model, -0.1)


def test_quantile_against_trapezoid_oracle():
    model = iso(1.0, 1.0)
    x_star = sd.mp_quantile_inverse(model, 0.5)
    xs = np.linspace(x_star, 4.0, 2_000_001)
    dens = sd.mp_density(model, xs)
    dens[0] = sd.mp_density(model, np.array([x_star]))[0]
    mass = np.trapezoid(dens, xs)
    assert abs(mass - 0.5) < 1e-6


@pytest.mark.parametrize("c", [0.5, 1.05, 2.0])
def test_quantile_mass_matches_panel_grid(c):
    # the mass above the returned point, integrated on the panel grid
    # split there, is tau to round-off; tau near 0 and near the bulk mass
    model = iso(1.3, c)
    bulk = min(1.0, 1.0 / c)
    for tau in (1e-6, 1e-3, 0.3 * bulk, bulk * (1 - 1e-3), bulk * (1 - 1e-6)):
        t = sd.mp_quantile_inverse(model, tau)
        grid = sd.get_grid(model, breaks=(t,))
        assert abs(grid.w_mp[:grid.x.size][grid.x >= t].sum() - tau) < 1e-13


@pytest.mark.parametrize("factor", [1.001, 1.0001, 0.999])
def test_panel_grid_masses_near_detachment(factor):
    # a spike near the detachment point puts the 1/(x* - x) factor of its
    # bulk weights just off theta = 0; the graded panels still integrate
    # every measure to total mass one. Without the grading the spiked mass
    # is off by 1e-6 to 1e-4. x* - x is formed from the closed form of
    # x* - b, so no round-off of order (x* - b) / b is left either.
    model = SpikedModel(1.0, 2.0, ((factor * math.sqrt(2.0), 0.6),), 2.0, 1.0)
    a, b = sd.mp_support(model)
    grid = sd.get_grid(model, breaks=(0.5 * (a + b),))
    assert abs(grid.w_mp.sum() - 1.0) < 1e-14
    assert abs(grid.w_delta[0].sum() - 1.0) < 1e-13


@pytest.mark.parametrize("c", [1e-8, 1e-12, 1e-20, 1e-28, 1e-30])
def test_mp_bulk_mass_is_one_at_small_c(c):
    # the bulk width 4 sigma0^2 sqrt(c) is formed directly: as b - a it
    # cancels, and the mass was off by -7.8e-13, -1.1e-10, 1.7e-7, -1.6e-3
    # and 0.23 at these c
    grid = sd.get_grid(SpikedModel(1.0, c, (), 2.0, 1.0))
    assert abs(grid.w_mp.sum() - 1.0) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("c", [1.0, 1.0 + 1e-6])
def test_mp_bulk_mass_at_small_sigma0_sq_is_that_at_one(c):
    # the MP weights are divided by sigma0^2 c before the product of the
    # edge offsets, which next to a = 0 underflowed at sigma0^2 = 1e-150:
    # the bulk mass was off by -1.2e-8 at c = 1 and 1.2e-12 at c = 1 + 1e-6
    errors = []
    for sigma0_sq in (1.0, 1e-150):
        grid = sd.get_grid(SpikedModel(sigma0_sq, c, ((3.0 * sigma0_sq, 0.5),), 1.0, 1.0))
        errors.append(grid.w_mp[:grid.x.size].sum() - 1.0 / c)
    assert abs(errors[1] - errors[0]) <= 4 * np.spacing(1.0)


def test_quantile_monotone():
    model = iso(1.3, 0.6)
    taus = np.linspace(0.01, 0.95, 12)
    vals = [sd.mp_quantile_inverse(model, t) for t in taus]
    assert all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# quadrature rule


def test_plain_grid_mp_moments():
    model = iso(1.4, 0.7)
    grid = sd.get_grid(model)
    w, x = grid.w_mp[:grid.x.size], grid.x
    assert abs(w.sum() - min(1.0, 1.0 / model.c)) < 1e-10
    assert abs(w @ x - model.sigma0_sq) < 1e-8
    # second moment via the Narayana-number recursion oracle
    def mp_moment(k, c, s0sq):
        total = 0.0
        for r in range(k):
            total += (
                c**r / (r + 1) * math.comb(k, r) * math.comb(k - 1, r)
            )
        return s0sq**k * total

    assert abs(w @ x**2 - mp_moment(2, model.c, model.sigma0_sq)) < 1e-8
    assert abs(w @ x**3 - mp_moment(3, model.c, model.sigma0_sq)) < 1e-8


def test_plain_grid_nodes_in_bulk():
    # every node lies strictly inside the bulk and carries MP weight, also
    # when the lower edge is zero (c = 1) or within round-off of it
    for c in (4.0, 1.0, 1.0 + 1e-8):
        model = iso(1.0, c)
        grid = sd.get_grid(model)
        a, b = sd.mp_support(model)
        assert np.all(grid.x > a) and np.all(grid.x < b)
        assert np.all(grid.w_mp[:grid.x.size] > 0.0)


@pytest.mark.parametrize("c", [1 - 1e-3, 1 + 1e-3, 1 - 1e-6, 1 + 1e-6, 1 + 1e-9])
def test_plain_grid_inverse_moment_next_to_c_one(c):
    # int 1/x dF_MP over the bulk is 1/(s0 (1 - c)) for c < 1 and
    # 1/(s0 c (c - 1)) for c > 1; next to c = 1 it is carried by the nodes
    # next to the lower edge, (1 - sqrt(c))^2 s0 from zero
    model = iso(1.3, c)
    grid = sd.get_grid(model)
    want = 1.0 / (1.3 * (1.0 - c)) if c < 1 else 1.0 / (1.3 * c * (c - 1.0))
    assert abs(grid.w_mp[:grid.x.size] @ (1.0 / grid.x) - want) <= 1e-13 * want


def test_fsum_is_correctly_rounded_and_never_raises():
    assert sd.spectra.fsum([0.1] * 10) == 1.0  # a running sum gives 1 - eps/2
    assert sd.spectra.fsum([1e308, 1e308]) == math.inf
    assert math.isnan(sd.spectra.fsum([math.inf, -math.inf]))
    # squares that overflow only when summed: still the span refusal
    with pytest.raises(AssumptionError, match="spike span"):
        SpikedModel(1.0, 2.0, ((3.0, 1e154), (5.0, 1e154)), 2.0, 1.0)


def test_equal_models_keep_their_own_records():
    # the store belongs to the model object: an equal model neither shares
    # its records nor drops them when it dies
    m1, m2 = (SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0) for _ in range(2))
    assert m1 == m2 and hash(m1) == hash(m2)
    assert sd.get_grid(m1) is not sd.get_grid(m2)
    rule = sd.optimal_pred_rule(m2)
    grid, record = sd.get_grid(m2), sd.shrinkage.validate_rule(m2, rule)
    del m1
    assert sd.get_grid(m2) is grid
    assert sd.shrinkage.validate_rule(m2, rule) is record


def test_a_store_hit_reads_no_model_field(monkeypatch):
    model = SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0)
    grid = sd.get_grid(model)
    calls = []

    def counted(method):
        def wrapper(self, *args):
            calls.append(method.__name__)
            return method(self, *args)
        return wrapper

    for name in ("__hash__", "__eq__"):
        monkeypatch.setattr(SpikedModel, name, counted(getattr(SpikedModel, name)))
    assert all(sd.get_grid(model) is grid for _ in range(10))
    assert calls == []
