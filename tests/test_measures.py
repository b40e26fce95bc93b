import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

import spectral_distill as sd
from spectral_distill import SpikedModel
from spectral_distill.cli import parse_model
from spectral_distill.spectra import nu_affine

from conftest import random_model
from oracles import Tabulated, basis_h, inner_w, mu_j, target_g, weight_w

ONE = lambda x: np.ones_like(x)
CORPUS = pathlib.Path(__file__).parent / "corpus"
CLOSED_FORM_CONFIGS = sorted(p for command in ("optimal", "sd-params", "federated")
                             for p in CORPUS.glob(f"{command}__*.json"))


def test_mixture_weights_examples(fig1_model):
    w = sd.mixture_weights(fig1_model)
    assert w.omega0 == pytest.approx(0.39)
    assert w.omegas == (pytest.approx(0.36), pytest.approx(0.25))

    m0 = SpikedModel(1.0, 2.0, (), 1.0, 1.0)
    assert sd.mixture_weights(m0).omega0 == 1.0

    m1 = SpikedModel(1.0, 2.0, ((1.5, 0.6),), 1.0, 1.0)
    w1 = sd.mixture_weights(m1)
    assert w1.omega0 == pytest.approx(0.64)
    assert w1.omegas[0] == pytest.approx(0.36)


def test_mixture_measure_reduces_to_mp_when_no_spikes():
    grid = sd.get_grid(SpikedModel(1.0, 2.0, (), 1.0, 1.0))
    assert np.array_equal(grid.w_alpha, grid.w_mp)
    got = grid.integrate(grid.support_points**2)
    assert got.alpha == got.mp and got.delta == ()


def test_mixture_measure_atom_relation(fig1_model):
    w = sd.mixture_weights(fig1_model)
    grid = sd.get_grid(fig1_model)
    atom = dict(zip(grid.atom_locs, grid.w_alpha[grid.x.size:]))
    for j, d in enumerate(fig1_model.deltas):
        loc = sd.outlier_location(fig1_model, d)
        spiked_mass = dict(zip(grid.atom_locs, grid.w_delta[j][grid.x.size:]))[loc]
        assert atom[loc] == pytest.approx(w.omegas[j] * spiked_mass)


def test_mixture_measure_total_mass(fig1_model):
    grid = sd.get_grid(fig1_model)
    got = grid.integrate(np.ones_like(grid.support_points))
    assert abs(got.alpha - 1.0) < 1e-8
    assert all(abs(v - 1.0) < 1e-8 for v in got.delta)
    assert abs(got.mp - 1.0) < 1e-8


def test_rn_polynomials_structure(fig1_model):
    rn = sd.rn_polynomials(fig1_model)
    assert len(rn.xstars) == len(rn.scales) == fig1_model.s
    a, b = sd.mp_support(fig1_model)
    xs = np.concatenate([np.linspace(a, b, 64), [0.0]])
    for j, d in enumerate(fig1_model.deltas):
        # scale_j is minus the slope of the affine ratio nu_j
        assert rn.scales[j] == -nu_affine(fig1_model, d)[1] > 0
        assert np.all(rn.scales[j] * (rn.xstars[j] - xs) > 0)
        xstar = sd.outlier_location(fig1_model, d)
        # nu_j's factor is exactly zero at its outlier
        assert rn.scales[j] * (rn.xstars[j] - xstar) == 0.0
    # one table per model
    assert sd.rn_polynomials(fig1_model) is rn


def test_rn_combination_matches_products():
    # a rule's numerator N = b_0 + sum_j b_j / nu_j is Q0 / nu for the
    # product form Q0 = b_0 nu + sum_j b_j nu_{-j}
    model = SpikedModel(1.0, 2.0, ((2.0, 0.4), (3.0, 0.3), (5.0, 0.5),
                                   (7.0, 0.2)), 3.0, 1.0)
    rn = sd.rn_polynomials(model)
    coeffs = (0.7, -1.3, 2.1, 0.4, -0.9)
    rule = dataclasses.replace(sd.optimal_est_rule(model), b=coeffs)
    xs = np.linspace(0.0, 12.0, 97)
    xs = xs[~np.isin(xs, rn.xstars)]  # N has its poles there
    factors = [sc * (xstar - xs) for sc, xstar in zip(rn.scales, rn.xstars)]
    nu = math.prod(factors)
    terms = [coeffs[0] * nu] + [
        coeffs[i + 1] * math.prod(f for j, f in enumerate(factors) if j != i)
        for i in range(model.s)]
    values = rule.numerator(xs)
    assert np.all(np.abs(values * nu - sum(terms))
                  <= 1e-14 * sum(map(np.abs, terms))), xs
    # `numerator` works on any array shape
    square = xs[:81].reshape(9, 9)
    assert rule.numerator(square).tobytes() == values[:81].tobytes()


@pytest.mark.parametrize("path", CLOSED_FORM_CONFIGS, ids=lambda p: p.stem)
def test_rn_combination_with_coefficient_slopes_is_two_calls(path):
    # P0/nu = r^2 x (omega0 + sum_j omega_j / nu_j) + c sigma_eps^2 has the
    # coefficients of the estimation optimum's numerator N, r^2 omega0 and
    # r^2 omega_j, as slopes: x N(x) + noise is K F(x), K = r^2 omega0,
    # with F the secular form whose roots are P's, up to the rounding of
    # the sums
    model = parse_model(json.loads(path.read_text())["model"])
    est = sd.optimal_est_rule(model)
    w = sd.mixture_weights(model)
    assert est.b == tuple(model.r**2 * v for v in (w.omega0, *w.omegas))
    secular, lam0, poles = sd.optimal._secular(model)
    noise = model.c * model.sigma_eps_sq
    rng = np.random.default_rng(0)
    top = 2.0 * max([model.sigma0_sq, *est.rn.xstars])
    for x in [0.0, *rng.uniform(-top, top, size=16)]:
        one = x * float(est.numerator(x)) + noise
        two = est.K * secular(x)[0]
        size = abs(x) * (est.b[0] + sum(abs(b / (sc * (xs - x))) for b, sc, xs in zip(
            est.b[1:], est.rn.scales, est.rn.xstars))) + noise
        assert math.isfinite(size)
        assert abs(one - two) <= 1e-14 * size, x


def test_mu_partition_of_unity(fig1_model):
    grid = sd.get_grid(fig1_model)
    w = sd.mixture_weights(fig1_model)
    pts = np.concatenate([np.linspace(grid.bulk_lo, grid.bulk_hi, 200),
                          grid.atom_locs])
    total = w.omega0 * mu_j(fig1_model, 0, pts)
    for j in range(fig1_model.s):
        total = total + w.omegas[j] * mu_j(fig1_model, j + 1, pts)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_mu_values_at_outliers(fig1_model):
    w = sd.mixture_weights(fig1_model)
    for j, d in enumerate(fig1_model.deltas):
        xstar = sd.outlier_location(fig1_model, d)
        assert mu_j(fig1_model, j + 1, xstar) == pytest.approx(1.0 / w.omegas[j])
        assert mu_j(fig1_model, 0, xstar) == 0.0
        for i in range(fig1_model.s):
            if i != j:
                assert mu_j(fig1_model, i + 1, xstar) == 0.0


def test_mu_trivial_when_isotropic():
    m = SpikedModel(1.0, 0.5, (), 1.0, 1.0)
    xs = np.linspace(*sd.mp_support(m), 32)
    assert np.allclose(mu_j(m, 0, xs), 1.0)


def test_mu_domain_error(fig1_model):
    b = sd.mp_support(fig1_model)[1]
    with pytest.raises(ValueError):
        mu_j(fig1_model, 0, b + 0.5)  # between bulk and outliers
    with pytest.raises(ValueError):
        weight_w(fig1_model, -1.0)


def test_mu_change_of_measure(fig1_model):
    grid = sd.get_grid(fig1_model)
    for j in range(fig1_model.s):
        for phi in (ONE, lambda x: x, lambda x: x * x):
            def times_mu(x):
                return phi(x) * mu_j(fig1_model, j + 1, x)

            lhs = grid.integrate(times_mu(grid.support_points)).alpha
            rhs = grid.integrate(phi(grid.support_points)).delta[j]
            assert abs(lhs - rhs) < 1e-8


def test_weight_positive_and_outlier_value(fig1_model):
    grid = sd.get_grid(fig1_model)
    pts = grid.support_points
    assert np.all(weight_w(fig1_model, pts) > 0)
    for d in fig1_model.deltas:
        xstar = sd.outlier_location(fig1_model, d)
        expected = fig1_model.sigma0_sq * fig1_model.r**2 * xstar
        assert weight_w(fig1_model, xstar) == pytest.approx(expected)


def test_weight_and_target_isotropic_forms():
    m = SpikedModel(1.3, 0.5, (), 2.0, 1.5)
    xs = np.linspace(*sd.mp_support(m), 40)
    s0sq, r2 = m.sigma0_sq, m.r**2
    w_expect = s0sq * r2 * xs + m.c * s0sq * m.sigma_eps_sq
    assert np.allclose(weight_w(m, xs), w_expect)
    assert np.allclose(target_g(m, xs), s0sq * r2 / w_expect)
    assert np.allclose(basis_h(m, 0, xs), 1.0 / w_expect)


def test_target_identity_in_basis(fig1_model):
    # g = sigma0^2 r^2 omega0 h_0 + sum_j (delta_j + sigma0^2) alpha_j^2 h_j
    model = fig1_model
    grid = sd.get_grid(model)
    pts = np.concatenate([np.linspace(grid.bulk_lo, grid.bulk_hi, 100),
                          grid.atom_locs])
    w = sd.mixture_weights(model)
    rhs = model.sigma0_sq * model.r**2 * w.omega0 * basis_h(model, 0, pts)
    for j, (d, a) in enumerate(model.spikes):
        rhs = rhs + (d + model.sigma0_sq) * a * a * basis_h(model, j + 1, pts)
    assert np.max(np.abs(target_g(model, pts) - rhs)) < 1e-12


def test_inner_product_symmetry_and_zero(fig1_model):
    grid = sd.get_grid(fig1_model)
    rng = np.random.default_rng(11)
    pts = grid.support_points
    phi = Tabulated(tuple(np.sort(pts)), tuple(rng.normal(size=pts.size)))
    psi = Tabulated(tuple(np.sort(pts)), tuple(rng.normal(size=pts.size)))
    assert inner_w(fig1_model, phi, psi) == inner_w(fig1_model, psi, phi)
    zero = lambda x: np.zeros_like(x)
    assert inner_w(fig1_model, zero, zero) == 0.0


def test_inner_product_against_spiked_integral(fig1_model):
    # <h_j, phi>_w = int x phi dF_{delta_j}
    model = fig1_model
    grid = sd.get_grid(model)
    phi = lambda x: 1.0 / (x + 2.0)
    for j in range(model.s):
        lhs = inner_w(model, lambda x: basis_h(model, j + 1, x), phi)
        x = grid.support_points
        rhs = grid.integrate(x * phi(x)).delta[j]
        assert abs(lhs - rhs) < 1e-10


def test_gram_system_structure(fig1_model):
    gs = sd.gram_system(fig1_model)
    H = gs.H
    assert np.max(np.abs(H - H.T)) < 1e-10
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() >= -1e-10 * np.trace(H)
    expect_gamma = [
        fig1_model.sigma0_sq * fig1_model.r**2 * sd.mixture_weights(fig1_model).omega0
    ] + [
        (d + fig1_model.sigma0_sq) * a * a for d, a in fig1_model.spikes
    ]
    assert np.allclose(gs.gamma, expect_gamma)


def test_gram_isotropic_positive():
    m = SpikedModel(1.0, 2.0, (), 2.0, 1.0)
    gs = sd.gram_system(m)
    assert gs.H.shape == (1, 1)
    assert gs.H[0, 0] > 0


def test_gram_diagonal_outlier_term(fig1_model):
    # H_jj = (bulk part) + F_delta_j({x_j*}) / (sigma0^2 alpha_j^2); the
    # F_alpha route through inner_w must agree with the F_delta route.
    model = fig1_model
    grid = sd.get_grid(model)
    gs = sd.gram_system(model)
    for j, (d, a) in enumerate(model.spikes):
        hj = lambda x: basis_h(model, j + 1, x)
        via_alpha = inner_w(model, hj, hj)
        assert abs(via_alpha - gs.H[j + 1, j + 1]) < 1e-10
        mass = sd.spectra.outlier_atom_mass(model, d)
        atom_term = mass / (model.sigma0_sq * a * a)
        bulk_term = grid.w_delta[j][:grid.x.size] @ (
            grid.x * mu_j(model, j + 1, grid.x)
            / weight_w(model, grid.x)
        )
        assert gs.H[j + 1, j + 1] == pytest.approx(bulk_term + atom_term)


def test_gram_random_models_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        model = random_model(rng, s=int(rng.integers(1, 4)))
        gs = sd.gram_system(model)
        assert np.linalg.eigvalsh(gs.H).min() >= -1e-10 * np.trace(gs.H)


def test_grid_mu_matches_the_reference_formula(fig1_model):
    grid = sd.get_grid(fig1_model)
    want = np.stack([mu_j(fig1_model, j, grid.support_points)
                     for j in range(fig1_model.s + 1)])
    assert np.all(np.abs(grid.mu() - want) <= 1e-13 * want)


def test_no_bulk_weight_underflows_at_small_sigma0_sq():
    # at sigma0^2 = 1e-150 and c = 1 the MP weights of the nodes next to
    # a = 0 once underflowed to 0, and 32 nodes carried no mass; divided by
    # sigma0^2 c before the product of the edge offsets, every node keeps
    # its weight, and mu and H are finite
    model = SpikedModel(1e-150, 1.0, ((3e-150, 0.6),), 2.0, 1.0)
    grid = sd.get_grid(model)
    assert np.all(grid.w_alpha[:grid.x.size] > 0.0)
    assert np.all(np.isfinite(grid.mu()))
    assert np.all(np.isfinite(sd.gram_system(model).H))
