"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Monte Carlo criteria are seeded and
bit-reproducible; their runtimes are asserted against the stated budgets.
"""

import itertools
import math
import time

import numpy as np
import pytest

import spectral_distill as sd
from spectral_distill import (AssumptionError, NumericalError, SDParams,
                              SimConfig, SpikedModel)
from spectral_distill.federated import federated_b
from spectral_distill.spectra import nu_affine

from conftest import _reference_panels, random_model
from oracles import (apply_rule_to_vector, basis_h, companion_stieltjes_boundary,
                     inner_w, product_form_limit, spiked_stieltjes)

ONE = lambda x: np.ones_like(x)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_isotropic_optimum():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_steps = 0.0
    for _ in range(20):
        model = SpikedModel(
            float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 3.0)), (),
            float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.25, 4.0)),
        )
        lam_star = model.c * model.sigma_eps_sq / model.r**2
        lams = np.geomspace(lam_star * 1e-2, lam_star * 1e2, 2000)
        totals = sd.ridge_risk_curve(model, lams)
        best = lams[int(np.argmin(totals))]
        step = math.log(lams[1] / lams[0])
        worst_steps = max(worst_steps, abs(math.log(best / lam_star)) / step)
    elapsed = time.time() - t0
    report(
        1,
        worst_steps <= 1.0 + 1e-9 and elapsed < 10.0,
        f"argmin within {worst_steps:.3f} grid steps of c*sigma_eps^2/r^2 "
        f"({elapsed:.1f}s)",
    )


def _spiked(s0, c, delta):
    # a model carrying the spike, so its grid integrates against F_delta
    return SpikedModel(s0, c, ((delta, 0.5),), 1.0, 1.0)


def _draw_delta(rng, model):
    # respect the detachment-point exclusion with a numerical margin
    while True:
        delta = float(rng.uniform(0.2, 8.0))
        if abs(delta - model.bbp_threshold) > 0.02 * (1 + model.bbp_threshold):
            return delta


def test_criterion_02_measure_normalization():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_mass = worst_mean = worst_com = 0.0
    for _ in range(50):
        s0 = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.3, 4.0))
        model = _spiked(s0, c, _draw_delta(rng, SpikedModel(s0, c, (), 1.0, 1.0)))
        delta = model.deltas[0]
        grid = sd.get_grid(model)
        x = grid.support_points
        worst_mass = max(worst_mass, abs(grid.integrate(ONE(x)).delta[0] - 1.0))
        worst_mean = max(worst_mean, abs(grid.integrate(x).delta[0] - (delta + s0)))
        p, q = nu_affine(model, delta)
        for phi in (ONE, lambda x: x, lambda x: x * x,
                    lambda x: 1.0 / (x + 1.0)):
            lhs = grid.integrate(phi(x)).mp
            rhs = grid.integrate(phi(x) * (p + q * x)).delta[0]
            worst_com = max(worst_com, abs(lhs - rhs))
    elapsed = time.time() - t0
    report(
        2,
        worst_mass < 1e-8 and worst_mean < 1e-6 and worst_com < 1e-8
        and elapsed < 30.0,
        f"mass err {worst_mass:.1e}, mean err {worst_mean:.1e}, "
        f"change-of-measure err {worst_com:.1e} ({elapsed:.1f}s)",
    )


def test_criterion_03_stieltjes_consistency():
    rng = np.random.default_rng(303)
    worst_mdelta = worst_boundary = 0.0
    for _ in range(12):
        s0 = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.3, 4.0))
        model = _spiked(s0, c, _draw_delta(rng, SpikedModel(s0, c, (), 1.0, 1.0)))
        delta = model.deltas[0]
        grid = sd.get_grid(model)
        for _ in range(20):
            z = complex(
                rng.uniform(-4.0, 2.0 * grid.bulk_hi),
                rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]),
            )
            closed = spiked_stieltjes(model, delta, z)
            quadr = grid.integrate(1.0 / (grid.support_points - z)).delta[0]
            worst_mdelta = max(worst_mdelta, abs(closed - quadr))
        a, b = grid.bulk_lo, grid.bulk_hi
        for x in np.linspace(a + 1e-3 * (b - a), b - 1e-3 * (b - a), 20):
            mb = companion_stieltjes_boundary(model, float(x))
            worst_boundary = max(
                worst_boundary, abs(abs(mb) ** 2 - 1.0 / (s0 * x))
            )
    report(
        3,
        worst_mdelta < 1e-6 and worst_boundary < 1e-8,
        f"m_delta closed-vs-quadrature {worst_mdelta:.1e}, "
        f"boundary identity {worst_boundary:.1e}",
    )


def test_criterion_04_optimal_rule_structure():
    rng = np.random.default_rng(404)
    worst_resid = worst_b0 = 0.0
    for i in range(30):
        model = random_model(rng, s=int(rng.integers(1, 4)))
        rule, coef = sd.optimal_pred_rule(model)
        roots = np.sort(rule.roots_of_p)
        assert len(set(rule.roots_of_p)) == model.s + 1
        assert np.sum(roots < 0) == 1
        xs = np.sort([sd.outlier_location(model, d) for d in model.deltas])
        for j in range(model.s - 1):
            assert xs[j] < roots[1 + j] < xs[j + 1], "interlacing failed"
        assert roots[-1] > xs[-1]
        worst_resid = max(worst_resid, sd.fixed_point_residual(model, rule))
        gamma0 = model.sigma0_sq * model.r**2 * sd.mixture_weights(model).omega0
        worst_b0 = max(worst_b0, abs(coef.b[0] - gamma0))
    report(
        4,
        worst_resid < 1e-8 and worst_b0 < 1e-12,
        f"fixed-point residual {worst_resid:.1e}, b0 err {worst_b0:.1e} "
        f"(30 random s in 1..3 models)",
    )


def test_criterion_05_sd_round_trip(fig1_model, fig4_model):
    rng = np.random.default_rng(505)
    models = [fig1_model, fig4_model] + [
        random_model(rng, s=int(rng.integers(1, 4))) for _ in range(8)
    ]
    worst = 0.0
    for model in models:
        rule, _ = sd.optimal_pred_rule(model)
        params = sd.synthesize_sd_params(rule)
        worst = max(worst, sd.sd_round_trip_error(model, rule, params))
        assert sum(1 for l in params.lambdas if l < 0) == model.s
        est = sd.optimal_est_rule(model)
        params_est = sd.synthesize_sd_params(est)
        worst = max(worst, sd.sd_round_trip_error(model, est, params_est))
        assert sum(1 for l in params_est.lambdas if l < 0) == model.s
        for K in (2, 5):
            fed = sd.federated_optimum(model, K)
            worst = max(
                worst, sd.sd_round_trip_error(model, fed.local_rule, fed.sd_params)
            )
            assert sum(1 for l in fed.sd_params.lambdas if l < 0) == model.s
    report(
        5,
        worst < 1e-9,
        f"sup round-trip error {worst:.1e} over pred/est/federated chains",
    )


def _competitor_risks(model, risk_fn):
    lam_scale = model.c * model.sigma_eps_sq / model.r**2 + model.sigma0_sq
    lams = np.geomspace(1e-4 * lam_scale, 1e3 * lam_scale, 200)
    vals = [
        min(risk_fn(sd.Ridge(float(l))).total for l in lams)
    ]
    if abs(model.c - 1.0) > 1e-12:
        vals.append(risk_fn(sd.min_norm_rule(model)).total)
    for tau in (0.05, 0.1, 0.3):
        if tau < min(1.0, 1.0 / model.c):  # feasible retained fractions only
            vals.append(risk_fn(sd.pcr_rule(model, tau)).total)
    for eta in (0.01, 0.1):
        for T in (10, 100, 1000):
            try:
                vals.append(risk_fn(sd.GDPoly(eta, T)).total)
            except sd.NumericalError:
                vals.append(float("inf"))
    return vals


def test_criterion_06_dominance(fig1_model, fig3_factory, fig4_model):
    rng = np.random.default_rng(606)
    models = [fig1_model, fig3_factory(5.0), fig4_model] + [
        random_model(rng, s=int(rng.integers(1, 3))) for _ in range(5)
    ]
    worst_margin_pred = worst_margin_est = math.inf
    for model in models:
        rule, _ = sd.optimal_pred_rule(model)
        best = sd.limiting_pred_risk(model, rule).total
        comp = _competitor_risks(
            model, lambda f: sd.limiting_pred_risk(model, f)
        )
        comp.append(sd.pcr_component_limit_risk(model).total)
        worst_margin_pred = min(worst_margin_pred, min(comp) - best)

        est_rule = sd.optimal_est_rule(model)
        best_est = sd.limiting_est_risk(model, est_rule).total
        comp_est = _competitor_risks(
            model, lambda f: sd.limiting_est_risk(model, f)
        )
        worst_margin_est = min(worst_margin_est, min(comp_est) - best_est)
    report(
        6,
        worst_margin_pred > 1e-6 and worst_margin_est > 1e-6,
        f"smallest dominance margin: pred {worst_margin_pred:.2e}, "
        f"est {worst_margin_est:.2e}",
    )


def test_criterion_07_federated_closed_forms(fig1_model):
    # K = 1 reduction
    rule, coef = sd.optimal_pred_rule(fig1_model)
    fed1 = sd.federated_optimum(fig1_model, 1)
    k1_err = max(
        np.max(np.abs(np.array(fed1.b) - np.array(coef.b))),
        abs(fed1.rho_star - 1.0),
    )
    # isotropic closed form
    iso = SpikedModel(1.0, 2.0, (), 2.0, 1.0)
    h00 = inner_w(iso, lambda x: basis_h(iso, 0, x),
                     lambda x: basis_h(iso, 0, x))
    s0r2 = iso.sigma0_sq * iso.r**2
    iso_err = max(
        abs(federated_b(iso, K)[0] - s0r2 / (1 + s0r2 * (K - 1) * h00))
        for K in (1, 2, 5, 20, 40)
    )
    # one-spike positivity across K and noise levels
    one = SpikedModel(1.0, 2.0, ((3.0, 1.2),), 2.0, 1.0)
    positive = all(
        federated_b(one.replace(sigma_eps_sq=float(se2)), K)[0] > 0
        for K in range(1, 41)
        for se2 in (0.25, 0.5, 1.0, 2.25, 6.25, 16.0, 49.0, 100.0)
    )
    # high-noise limit within 1e-3 relative across the K sweep
    lim = iso.sigma0_sq * 0.0 + sd.mixture_weights(one).omega0 * one.r**2
    noise_dev = max(
        abs(federated_b(one.replace(sigma_eps_sq=1e6), K)[0] - lim) / lim
        for K in range(1, 41)
    )
    fig1_b0 = federated_b(fig1_model, 1)[0]
    report(
        7,
        k1_err < 1e-10 and iso_err < 1e-10 and positive and noise_dev < 1e-3
        and abs(fig1_b0 - 9.75) < 1e-9,
        f"K=1 err {k1_err:.1e}, isotropic closed-form err {iso_err:.1e}, "
        f"one-spike b0 > 0, noise-limit dev {noise_dev:.1e}, "
        f"b0 = {fig1_b0}",
    )


def test_criterion_08_monte_carlo_convergence(fig4_model):
    t0 = time.time()
    model = fig4_model  # c=2, delta=7, alpha=1.7, r=2, sigma_eps=2, sigma0=1
    n, p = 1000, 2000
    lam, ridge_lim = sd.best_ridge(model)
    rule, _ = sd.optimal_pred_rule(model)
    params = sd.synthesize_sd_params(rule)
    sd_lim = sd.limiting_pred_risk(model, rule).total
    targets = {
        "ridge": ridge_lim,
        "sd": sd_lim,
        "pcr_1": sd.pcr_component_limit_risk(model, 1).total,
        "pcr_600": sd.pcr_sharp_pred_risk(model, 600 / p).total,
        "gd": sd.limiting_pred_risk(model, sd.GDPoly(0.05, 100)).total,
    }
    ests = {
        "ridge": sd.Ridge(lam),
        "sd": params,
        "pcr_1": ("pcr", 1),
        "pcr_600": ("pcr", 600),
        "gd": sd.GDPoly(0.05, 100),
    }
    cfg = SimConfig(model, n=n, p=p, seed=0, n_replicates=24)
    reports = sd.harness_suite(cfg, ests, targets)
    gaps = {k: r.relative_gap for k, r in reports.items()}
    diff = reports["ridge"].empirical_mean - reports["sd"].empirical_mean
    joint_se = math.hypot(reports["ridge"].std_error, reports["sd"].std_error)
    elapsed = time.time() - t0
    report(
        8,
        all(g < 0.05 for g in gaps.values()) and diff > 2 * joint_se
        and elapsed < 600.0,
        "gaps " + ", ".join(f"{k}={v:.2%}" for k, v in gaps.items())
        + f"; SD beats ridge by {diff / joint_se:.1f} joint SEs ({elapsed:.0f}s)",
    )


def test_criterion_09_product_form_monte_carlo():
    # the limit is taken at the simulated c = p/n = 800/533, not at 1.5;
    # gen_data does not read c, so the draws are those drawn at c = 1.5
    p = 800
    n = int(round(p / 1.5))
    c = p / n
    model = SpikedModel(1.0, c, ((4.0, 1.2),), 2.0, 1.0)
    cfg = SimConfig(model, n=n, p=p, seed=909, n_replicates=20)
    rules = [sd.Ridge(0.5), sd.Ridge(2.0)]
    worst = 0.0
    details = []
    for phi in rules:
        for psi in rules:
            limit = product_form_limit(model, phi, psi, c, c)
            vals = []
            for r in range(cfg.n_replicates):
                Xl, _, beta0, _ = sd.gen_data(cfg, r, client=0)
                Xk, _, _, _ = sd.gen_data(cfg, r, client=1)
                spl = sd.decompose(sd.sample_gram(Xl))
                spk = sd.decompose(sd.sample_gram(Xk))
                u = apply_rule_to_vector(spl, phi, beta0, Xl)
                v = apply_rule_to_vector(spk, psi, beta0, Xk)
                vals.append(float(u @ v) / float(beta0 @ beta0))
            gap = abs(np.mean(vals) - limit) / abs(limit)
            worst = max(worst, gap)
            details.append(f"{phi.lam}/{psi.lam}: {gap:.2%}")
    report(9, worst < 0.05, "quadratic-form gaps " + ", ".join(details))


def test_criterion_10_optimal_parameter_phenomenology(fig3_factory):
    deltas = np.linspace(0.01, 19.99, 50)
    lam0, ratios = [], []
    xi_at_small = None
    for d in deltas:
        model = fig3_factory(float(d))
        params = sd.synthesize_sd_params(sd.optimal_pred_rule(model)[0])
        if xi_at_small is None:
            xi_at_small = params.xis[0]
        lam0.append(params.lambdas[0])
        ratios.append(-params.lambdas[0] / sd.outlier_location(model, float(d)))
    lam0 = np.array(lam0)
    ratios = np.array(ratios)
    band = ratios.max() / ratios.min()
    report(
        10,
        abs(xi_at_small) < 0.05 and np.all(lam0 < 0) and band <= 3.0,
        f"xi*(0.01) = {xi_at_small:.4f}, lambda0* < 0 on all 50 deltas, "
        f"-lambda0*/x* band factor {band:.2f}",
    )


def _chain_risk(model, theta, steps):
    """Limiting pred risk of the chain with lambdas theta[:steps + 1] and
    xis theta[steps + 1:]; a refused chain scores a large finite penalty."""
    params = SDParams(tuple(theta[:steps + 1]), tuple(theta[steps + 1:]))
    try:
        return sd.limiting_pred_risk(model, sd.SDChain(params)).total
    except (AssumptionError, NumericalError, ValueError):
        return 1e6


def _best_short_chain(model, params, lam_ridge, k):
    """Best (s - k)-step chain found by Nelder-Mead over (lambda, xi).

    Starts: the optimal chain with each choice of k stages dropped, and
    the ridge chain (every lambda the best ridge one, every xi 0).
    """
    from scipy.optimize import minimize

    s = len(params.xis)
    steps = s - k
    starts = []
    for dropped in itertools.combinations(range(s + 1), k):
        kept = [j for j in range(s + 1) if j not in dropped]
        starts.append([params.lambdas[j] for j in kept]
                      + [params.xis[j - 1] for j in kept[1:]])
    starts.append([lam_ridge] * (steps + 1) + [0.0] * steps)
    results = [minimize(lambda th: _chain_risk(model, th, steps), x0,
                        method="Nelder-Mead",
                        options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000})
               for x0 in starts]
    best = min(results, key=lambda res: res.fun)
    return best.fun, best.x, steps


def test_criterion_11_fewer_steps_are_strictly_worse(fig1_model, fig4_model):
    # PAPER.md: any (s - k)-step chain, 1 <= k <= s, is strictly worse
    # than the optimal s-step one; on the figure models and on seeded
    # random models with every spike detached
    t0 = time.time()
    rng = np.random.default_rng(7)
    models = [("fig1", fig1_model), ("fig4", fig4_model)] + [
        (f"random{i} s={s}", random_model(rng, s, force_above_bbp=True))
        for i, s in enumerate((1, 2, 2, 3))]
    gaps, ref_err = [], 0.0
    for name, model in models:
        rule, _ = sd.optimal_pred_rule(model)
        optimum = sd.limiting_pred_risk(model, rule).total
        params = sd.synthesize_sd_params(rule)
        lam_ridge, _ = sd.best_ridge(model)
        for k in range(1, model.s + 1):
            risk, theta, steps = _best_short_chain(model, params, lam_ridge, k)
            gaps.append((f"{name} k={k}", risk - optimum))
            winner = sd.SDChain(SDParams(tuple(theta[:steps + 1]),
                                         tuple(theta[steps + 1:])))
            with pytest.MonkeyPatch.context() as patch:
                sd.spectra._per_model.clear()
                patch.setattr(sd.spectra, "_theta_panels", _reference_panels)
                ref = sd.limiting_pred_risk(model, winner).total
            sd.spectra._per_model.clear()
            ref_err = max(ref_err, abs(risk - ref) / ref)
    elapsed = time.time() - t0
    report(
        11,
        all(gap >= 1e-3 for _, gap in gaps) and ref_err <= 1e-12
        and elapsed < 60.0,
        "gaps over the optimum " + ", ".join(f"{k}: {g:.3e}" for k, g in gaps)
        + f"; winners match the reference grid to {ref_err:.1e} "
        f"({elapsed:.1f}s)",
    )
