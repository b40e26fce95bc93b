import dataclasses

import numpy as np
import pytest

import spectral_distill as sd
from spectral_distill import AssumptionError, SpikedModel
from spectral_distill.federated import federated_b

from conftest import random_model
from oracles import (apply_rule_to_vector, b0_noise_limit, basis_h, inner_w,
                     product_form_limit)

ONE = lambda x: np.ones_like(x)


def test_k1_reduces_to_single_client(fig1_model):
    rule, coef = sd.optimal_pred_rule(fig1_model)
    fed = sd.federated_optimum(fig1_model, 1)
    assert np.max(np.abs(np.array(fed.b) - np.array(coef.b))) < 1e-10
    assert fed.rho_star == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(fed.local_rule.roots_of_p, rule.roots_of_p)
    assert np.allclose(fed.local_rule.b, rule.b)


def test_isotropic_closed_form():
    model = SpikedModel(1.0, 2.0, (), 2.0, 1.0)
    h00 = inner_w(model, lambda x: basis_h(model, 0, x),
                     lambda x: basis_h(model, 0, x))
    s0r2 = model.sigma0_sq * model.r**2
    for K in (1, 2, 7, 25):
        b0 = federated_b(model, K)[0]
        assert b0 == pytest.approx(s0r2 / (1 + s0r2 * (K - 1) * h00), rel=1e-12)
        assert b0 > 0
        fed = sd.federated_optimum(model, K)
        # the local rule stays the tuned ridge; only the weight shrinks
        lam_star = model.c * model.sigma_eps_sq / model.r**2
        assert fed.local_rule.roots_of_p[0] == pytest.approx(-lam_star)
        assert fed.rho_star == pytest.approx(b0 / s0r2)


def test_fig1_b_entries(fig1_model):
    bs = np.array([federated_b(fig1_model, K) for K in range(1, 41)])
    assert bs[0, 0] == pytest.approx(9.75, abs=1e-9)
    # entries vary strictly monotonically in K
    for col in range(bs.shape[1]):
        diffs = np.diff(bs[:, col])
        assert np.all(diffs < 0) or np.all(diffs > 0)


def test_one_spike_b0_positive():
    model = SpikedModel(1.0, 2.0, ((3.0, 1.2),), 2.0, 1.0)
    for K in (1, 2, 5, 13, 40):
        for se2 in (0.25, 1.0, 9.0, 100.0):
            assert federated_b(model.replace(sigma_eps_sq=se2), K)[0] > 0


def test_b0_noise_limit(fig1_model):
    assert b0_noise_limit(fig1_model, 5) == pytest.approx(9.75)
    m0 = SpikedModel(1.3, 0.7, (), 2.0, 1.0)
    assert b0_noise_limit(m0, 9) == pytest.approx(1.3 * 4.0)
    big = federated_b(fig1_model.replace(sigma_eps_sq=1e6), 40)[0]
    assert abs(big - 9.75) < 1e-3 * 9.75


def test_b0_sign_changes_isolated():
    rng = np.random.default_rng(2)
    for _ in range(4):
        model = random_model(rng, s=2)
        se2s = np.geomspace(0.05, 200, 50)
        b0s = np.array([
            federated_b(model.replace(sigma_eps_sq=float(v)), 3)[0] for v in se2s
        ])
        signs = np.sign(b0s)
        flips = np.nonzero(np.diff(signs))[0]
        # zeros are isolated: no two adjacent grid intervals both flip
        assert np.all(np.diff(flips) > 1) if flips.size > 1 else True


def test_local_rule_round_trip(fig1_model):
    for K in (2, 5):
        fed = sd.federated_optimum(fig1_model, K)
        assert sd.sd_round_trip_error(fig1_model, fed.local_rule, fed.sd_params) < 1e-9
        lams = np.array(fed.sd_params.lambdas)
        assert np.sum(lams < 0) == fig1_model.s
        # same denominator as the single-client optimum
        single, _ = sd.optimal_pred_rule(fig1_model)
        assert np.allclose(fed.local_rule.roots_of_p, single.roots_of_p)


def test_invalid_k(fig1_model):
    with pytest.raises(ValueError):
        federated_b(fig1_model, 0)
    with pytest.raises(ValueError):
        sd.federated_optimum(fig1_model, -3)


def test_product_form_limit_examples(fig1_model):
    got = product_form_limit(fig1_model, ONE, ONE, 3.0, 3.0)
    assert got == pytest.approx(1.0)
    mean_form = product_form_limit(fig1_model, lambda x: x, ONE, 3.0, 3.0)
    w = sd.mixture_weights(fig1_model)
    expect = w.omega0 * fig1_model.sigma0_sq + sum(
        om * (d + fig1_model.sigma0_sq)
        for om, (d, _) in zip(w.omegas, fig1_model.spikes)
    )
    assert mean_form == pytest.approx(expect)


def test_product_form_heterogeneous_ratios(fig1_model):
    # mean integral under the c_l measure differs from the c_k one
    v1 = product_form_limit(fig1_model, lambda x: x, ONE, 0.5, 2.0)
    v2 = product_form_limit(fig1_model, ONE, lambda x: x, 0.5, 2.0)
    assert v1 == pytest.approx(v2)  # means of F_delta do not depend on c
    r1 = product_form_limit(fig1_model, lambda x: x * x, ONE, 0.5, 2.0)
    r2 = product_form_limit(fig1_model, ONE, lambda x: x * x, 0.5, 2.0)
    assert abs(r1 - r2) > 1e-3  # second moments do


def test_federated_risk_k1_consistency(fig1_model):
    for f in (sd.Ridge(0.7), sd.GDPoly(0.05, 50)):
        r_fed = sd.federated_risk(fig1_model, 1, [f], [1.0])
        r_dir = sd.limiting_pred_risk(fig1_model, f).total
        assert abs(r_fed - r_dir) < 1e-10


def test_federated_risk_zero_rules(fig1_model):
    expect = fig1_model.sigma0_sq * fig1_model.r**2 + float(
        np.sum(fig1_model.deltas * fig1_model.alphas**2)
    )
    got = sd.federated_risk(fig1_model, 3, [sd.Ridge(1.0)] * 3, [0.0, 0.0, 0.0])
    assert got == pytest.approx(expect)
    with pytest.raises(ValueError):
        sd.federated_risk(fig1_model, 3, [sd.Ridge(1.0)] * 2, [0.0] * 3)


def test_federated_optimum_minimizes(fig1_model):
    K = 3
    fed = sd.federated_optimum(fig1_model, K)
    local = fed.local_rule
    base = sd.federated_risk(fig1_model, K, [local] * K, [fed.rho_star] * K)
    rng = np.random.default_rng(8)
    for _ in range(40):
        rhos = fed.rho_star + rng.normal(0, 0.05, K)
        lam_bump = float(rng.uniform(0.05, 2.0))
        rules = [local] * (K - 1) + [sd.Ridge(lam_bump)]
        assert sd.federated_risk(fig1_model, K, rules, rhos) >= base - 1e-10
        assert sd.federated_risk(fig1_model, K, [local] * K, rhos) >= base - 1e-10


def test_equal_rule_bump_strictly_worse(fig1_model):
    # replacing one client's rule by the optimum plus a nonzero bump
    # strictly increases the limiting aggregated risk
    K = 3
    fed = sd.federated_optimum(fig1_model, K)
    local = fed.local_rule
    base = sd.federated_risk(fig1_model, K, [local] * K, [fed.rho_star] * K)

    class Bumped(sd.ShrinkageFn):
        def __call__(self, x):
            return local(x) + 0.01 / (np.asarray(x, dtype=float) + 5.0)

    bumped_risk = sd.federated_risk(
        fig1_model, K, [local] * (K - 1) + [Bumped()], [fed.rho_star] * K
    )
    assert bumped_risk > base + 1e-9


def test_noiseless_boundary_rejected(fig1_model):
    with pytest.raises(AssumptionError):
        sd.federated_optimum(fig1_model.replace(sigma_eps_sq=0.0), 3)


def test_product_form_heterogeneous_monte_carlo():
    # clients with different aspect ratios share Sigma and beta0; the
    # cross-matrix quadratic form converges to the per-ratio product limit
    from spectral_distill import SimConfig

    p = 600
    c_l, c_k = 1.5, 0.75
    model_l = sd.SpikedModel(1.0, c_l, ((4.0, 1.2),), 2.0, 1.0)
    model_k = model_l.replace(c=c_k)
    cfg_l = SimConfig(model_l, n=int(p / c_l), p=p, seed=44)
    cfg_k = SimConfig(model_k, n=int(p / c_k), p=p, seed=44)
    phi, psi = sd.Ridge(0.5), sd.Ridge(2.0)
    limit = product_form_limit(model_l, phi, psi, c_l, c_k)
    vals = []
    for r in range(12):
        Xl, _, beta0, V = sd.gen_data(cfg_l, r, client=0)
        Xk, _, _, _ = sd.gen_data(cfg_k, r, client=1, signal=(beta0, V))
        u = apply_rule_to_vector(sd.decompose(sd.sample_gram(Xl)), phi,
                                    beta0, Xl)
        v = apply_rule_to_vector(sd.decompose(sd.sample_gram(Xk)), psi,
                                    beta0, Xk)
        vals.append(float(u @ v) / float(beta0 @ beta0))
    assert abs(np.mean(vals) - limit) / abs(limit) < 0.05


def test_b0_zero_assumption_error(fig1_model):
    # drive b0 through zero artificially by scaling the Gram matrix is not
    # possible through the public surface; instead check the guard wiring
    # by monkeypatching the solve result.
    import spectral_distill.federated as fed_mod

    orig = fed_mod.federated_b
    try:
        fed_mod.federated_b = lambda model, K: np.zeros(model.s + 1)
        with pytest.raises(AssumptionError):
            fed_mod.federated_optimum(fig1_model, 2)
    finally:
        fed_mod.federated_b = orig


def test_federated_risk_integrates_a_shared_rule_once(fig1_model, monkeypatch):
    from spectral_distill import federated

    calls = []
    validate = federated.validate_rule

    def counting(model, f):
        calls.append(f)
        return validate(model, f)

    monkeypatch.setattr(federated, "validate_rule", counting)
    K = 5
    opt = sd.federated_optimum(fig1_model, K)
    rhos = [opt.rho_star] * K
    shared = sd.federated_risk(fig1_model, K, [opt.local_rule] * K, rhos)
    assert len(calls) == 1
    copies = [dataclasses.replace(opt.local_rule) for _ in range(K)]
    assert sd.federated_risk(fig1_model, K, copies, rhos) == shared
    assert len(calls) == 1 + K
