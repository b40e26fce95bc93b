import math
import tracemalloc

import numpy as np
import pytest

import spectral_distill as sd
from spectral_distill import SDParams, SimConfig, SpikedModel, montecarlo

from oracles import (Tabulated, apply_rule_to_vector, isotropic_optimal,
                     monomial_rational_rule)


@pytest.fixture(scope="module")
def small_case():
    model = SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0)
    cfg = SimConfig(model, n=200, p=400, seed=42)
    X, y, beta0, V = sd.gen_data(cfg)
    sp = sd.decompose(sd.sample_gram(X, y, (beta0, V)))
    return model, cfg, X, y, beta0, V, sp


def test_config_validation():
    model = SpikedModel(1.0, 2.0, (), 1.0, 1.0)
    with pytest.raises(ValueError):
        SimConfig(model, n=0, p=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(model, n=10, p=20, seed=1, entry_dist="cauchy")
    with pytest.raises(ValueError):
        SimConfig(model, n=10, p=20, seed=1, entry_dist="student_t", student_df=6.0)
    for df in (float("inf"), float("nan")):
        # an infinite df once passed `df > 8` and made every entry NaN
        with pytest.raises(ValueError, match="finite"):
            SimConfig(model, n=10, p=20, seed=1, entry_dist="student_t",
                      student_df=df)
    # the limits hold at c = p/n: one ulp either way is round-off, another
    # ratio is another model
    with pytest.raises(ValueError, match=r"p/n = 150/100 = 1\.5 .* c = 2\.0"):
        SimConfig(model, n=100, p=150, seed=1)
    for n, p in ((80, 160), (533, 800), (3, 10)):
        c = p / n
        for near in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)):
            SimConfig(model.replace(c=near), n=n, p=p, seed=1)


@pytest.mark.parametrize("entry_dist", ["gaussian", "rademacher"])
def test_replicates_alone_and_in_reverse_give_the_harness_bits(entry_dist):
    # Philox streams are keyed by replicate, so a replicate's risks do not
    # depend on which replicates ran before it
    model = SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0)
    cfg = SimConfig(model, n=30, p=60, seed=11, entry_dist=entry_dist,
                    n_replicates=4)
    ests = {"ridge": sd.Ridge(0.5), "pcr": ("pcr", 3), "minnorm": ("minnorm",),
            "sd": SDParams((1.0, 2.0), (0.5,))}
    reports = sd.harness_suite(cfg, ests, dict.fromkeys(ests, 1.0))
    alone = {r: montecarlo._replicate_risks(cfg, ests, r)
             for r in reversed(range(cfg.n_replicates))}
    for name in ests:
        got = [alone[r][name].hex() for r in range(cfg.n_replicates)]
        assert got == [v.hex() for v in reports[name].values], name


def test_gen_data_signal_exact(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    assert np.linalg.norm(beta0) == pytest.approx(model.r, abs=1e-12)
    assert beta0 @ V[:, 0] == pytest.approx(model.alphas[0], abs=1e-12)
    assert V.T @ V == pytest.approx(np.eye(model.s))


def test_gen_data_deterministic(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    X2, y2, b2, V2 = sd.gen_data(cfg)
    assert np.array_equal(X, X2) and np.array_equal(y, y2)
    assert np.array_equal(beta0, b2) and np.array_equal(V, V2)
    X3, _, _, _ = sd.gen_data(cfg, replicate=1)
    assert not np.array_equal(X, X3)


def test_gen_data_population_covariance():
    # gen_data does not read c, so c = p/n leaves the draws as they were
    model = SpikedModel(1.0, 10 / 100_000, ((3.0, 0.6),), 1.0, 1.0)
    cfg = SimConfig(model, n=100_000, p=10, seed=5)
    X, _, _, V = sd.gen_data(cfg)
    n = X.shape[0]
    Sigma_hat = X.T @ X / n
    Sigma = model.sigma0_sq * np.eye(10) + model.deltas[0] * np.outer(V[:, 0], V[:, 0])
    # entrywise within 3 standard errors of the gaussian sample covariance
    se = np.sqrt((np.outer(np.diag(Sigma), np.diag(Sigma)) + Sigma**2) / n)
    assert np.all(np.abs(Sigma_hat - Sigma) < 3.5 * se)


def test_entry_distributions_unit_variance():
    model = SpikedModel(1.0, 4 / 60_000, (), 1.0, 1.0)
    for dist in ("rademacher", "student_t"):
        cfg = SimConfig(model, n=60_000, p=4, seed=9, entry_dist=dist)
        X, _, _, _ = sd.gen_data(cfg)
        assert np.var(X) == pytest.approx(1.0, rel=0.02)


def test_fit_ridge_matches_direct_solve(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    lam = 0.37
    got = sp.lift(sd.fit_coords(sp, sd.Ridge(lam)), X)
    n, p = X.shape
    direct = np.linalg.solve(X.T @ X / n + lam * np.eye(p), X.T @ y / n)
    assert np.linalg.norm(got - direct) < 1e-8 * np.linalg.norm(direct)


def test_fit_zero_rule(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    zero = Tabulated((0.0, 100.0), (0.0, 0.0))
    assert np.allclose(sp.lift(sd.fit_coords(sp, zero), X), 0.0)


def test_fit_sd_equals_chain(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    rng = np.random.default_rng(1)
    for _ in range(5):
        params = SDParams(
            (float(rng.uniform(0.1, 2)), float(-rng.uniform(12, 20)),
             float(rng.uniform(0.1, 2))),
            tuple(rng.uniform(-1, 1, size=2)),
        )
        via_rec = sp.lift(sd.fit_coords(sp, params), X)
        via_fn = sp.lift(sd.fit_coords(sp, sd.SDChain(params)), X)
        assert np.linalg.norm(via_rec - via_fn) < 1e-8 * max(
            1.0, np.linalg.norm(via_fn)
        )


def test_fit_sd_degenerate_weights(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    # all xi = 0: the chain collapses to ridge at the last stage
    params = SDParams((0.9, 5.0, 0.2), (0.0, 0.0))
    got = sp.lift(sd.fit_coords(sp, params), X)
    ridge = sp.lift(sd.fit_coords(sp, sd.Ridge(0.2)), X)
    assert np.allclose(got, ridge)
    # k = 0 is plain ridge
    got0 = sp.lift(sd.fit_coords(sp, SDParams((0.9,), ())), X)
    assert np.allclose(got0, sp.lift(sd.fit_coords(sp, sd.Ridge(0.9)), X))


def _rank_deficient_design():
    # p <= n Gaussian design whose column 1 repeats column 0: eigh returns
    # the null eigenvalue of X'X/n as round-off (7.5e-17 at this seed)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 20))
    X[:, 1] = X[:, 0]
    return X, rng.standard_normal(50)


def test_pcr_full_rank_is_minnorm(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    for design, response in ((X, y), _rank_deficient_design()):
        spectrum = sd.decompose(sd.sample_gram(design, response))
        k = min(design.shape)
        pcr = spectrum.lift(sd.fit_coords(spectrum, ("pcr", k)), design)
        mn = spectrum.lift(sd.fit_coords(spectrum, ("minnorm",)), design)
        np.testing.assert_array_equal(pcr, mn)
    m = min(X.shape)
    with pytest.raises(ValueError):
        sd.fit_coords(sp, ("pcr", m + 1))
    with pytest.raises(ValueError):
        sd.fit_coords(sp, ("pcr", 0))


def test_minnorm_underparametrized_is_ols():
    model = SpikedModel(1.0, 0.5, ((2.0, 0.5),), 1.0, 1.0)
    cfg = SimConfig(model, n=300, p=150, seed=11)
    X, y, beta0, V = sd.gen_data(cfg)
    sp = sd.decompose(sd.sample_gram(X, y))
    mn = sp.lift(sd.fit_coords(sp, ("minnorm",)), X)
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.linalg.norm(mn - ols) < 1e-8 * np.linalg.norm(ols)


def test_minnorm_surrogate_matches_interpolator(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    f0 = sd.min_norm_rule(model)
    via_rule = sp.lift(sd.fit_coords(sp, f0), X)
    mn = sp.lift(sd.fit_coords(sp, ("minnorm",)), X)
    assert np.linalg.norm(via_rule - mn) < 1e-8 * np.linalg.norm(mn)


def test_gd_first_step(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    n = X.shape[0]
    got = sp.lift(sd.fit_coords(sp, sd.GDPoly(0.05, 1)), X)
    assert np.allclose(got, 0.05 * X.T @ y / n)


def test_sigma_risk_exact_cases(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    assert sd.sigma_risk(beta0, beta0, model, V) == 0.0
    expect = model.sigma0_sq * model.r**2 + float(
        np.sum(model.deltas * model.alphas**2)
    )
    assert sd.sigma_risk(np.zeros_like(beta0), beta0, model, V) == pytest.approx(expect)
    with pytest.raises(ValueError):
        sd.sigma_risk(np.zeros(3), beta0, model, V)


def test_sigma_risk_matches_fresh_sample_oracle():
    model = SpikedModel(1.0, 0.5, ((2.5, 0.8),), 1.5, 1.0)
    cfg = SimConfig(model, n=80, p=40, seed=21)
    X, y, beta0, V = sd.gen_data(cfg)
    sp = sd.decompose(sd.sample_gram(X, y))
    beta_hat = sp.lift(sd.fit_coords(sp, sd.Ridge(0.5)), X)
    exact = sd.sigma_risk(beta_hat, beta0, model, V)
    rng = np.random.default_rng(77)
    n_test = 200_000
    Z = rng.standard_normal((n_test, 40))
    Xt = np.sqrt(model.sigma0_sq) * Z + (
        np.sqrt(model.deltas[0] + model.sigma0_sq) - np.sqrt(model.sigma0_sq)
    ) * np.outer(Z @ V[:, 0], V[:, 0])
    yt = Xt @ beta0 + rng.standard_normal(n_test) * np.sqrt(model.sigma_eps_sq)
    emp = np.mean((yt - Xt @ beta_hat) ** 2) - model.sigma_eps_sq
    assert abs(emp - exact) < 4 * np.std((yt - Xt @ beta_hat) ** 2) / np.sqrt(n_test)


def _explicit_basis(X, y):
    """d, W (p x k) and z = W'X'y/n with W formed explicitly."""
    n, p = X.shape
    if p <= n:
        d, W = np.linalg.eigh(X.T @ X / n)
    else:
        d, U = np.linalg.eigh(X @ X.T / n)
        W = X.T @ U / np.sqrt(n * d)
    return d, W, W.T @ (X.T @ y) / n


@pytest.fixture(scope="module", params=[(2.5, 80, 200), (0.4, 200, 80)],
                ids=["p>n", "p<=n"])
def basis_case(request):
    c, n, p = request.param
    model = SpikedModel(1.0, c, ((6.0, 1.2), (3.5, 0.8)), 2.0, 1.5)
    X, y, beta0, V = sd.gen_data(SimConfig(model, n=n, p=p, seed=8))
    sp = sd.decompose(sd.sample_gram(X, y, (beta0, V)))
    return model, X, y, beta0, V, sp


def _estimator_cases(m_top):
    """(estimator spec, rule values g(d)) for every estimator kind."""
    params = SDParams((0.8, 2.0, 0.5), (0.4, -0.3))
    chain = sd.SDChain(params)
    return {
        "ridge": (sd.Ridge(0.7), lambda d: 1.0 / (d + 0.7)),
        "sd": (params, chain),
        "pcr:1": (("pcr", 1), lambda d: np.where(d == d.max(), 1.0 / d, 0.0)),
        f"pcr:{m_top}": (("pcr", m_top),
                         lambda d: np.where(d >= np.sort(d)[-m_top], 1.0 / d, 0.0)),
        "minnorm": (("minnorm",), lambda d: 1.0 / d),
        "gd": (sd.GDPoly(0.05, 40), lambda d: (1.0 - (1.0 - 0.05 * d) ** 40) / d),
    }


def test_w_free_fits_match_explicit_w(basis_case):
    model, X, y, beta0, V, sp = basis_case
    d, W, z = _explicit_basis(X, y)
    risk = sd.coordinate_risk(sp, beta0, model, V)
    for name, (est, g) in _estimator_cases(10).items():
        coords = sd.fit_coords(sp, est)
        want = W @ (g(d) * z)
        got = sp.lift(coords, X)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        lifted = sd.sigma_risk(got, beta0, model, V)
        assert risk(coords) == pytest.approx(lifted, rel=1e-12, abs=0), name


def test_project_inverts_lift(basis_case):
    model, X, y, beta0, V, sp = basis_case
    c = np.random.default_rng(3).standard_normal(sp.d.size)
    back = sp.project(sp.lift(c, X), X)
    assert np.linalg.norm(back - c) <= 1e-12 * np.linalg.norm(c)
    block = np.column_stack([beta0, V])
    assert np.allclose(sp.project(block, X)[:, 0], sp.project(beta0, X), rtol=0,
                       atol=1e-14)


def test_apply_rule_to_vector_with_nonzero_rule_at_zero(small_case):
    # ridge has f(0) = 1/lam, so the p - n null directions of Sigma_hat count
    model, cfg, X, y, beta0, V, sp = small_case
    n, p = X.shape
    lam = 0.6
    got = apply_rule_to_vector(sp, sd.Ridge(lam), beta0, X)
    direct = np.linalg.solve(X.T @ X / n + lam * np.eye(p), beta0)
    assert np.linalg.norm(got - direct) <= 1e-12 * np.linalg.norm(direct)


def test_rule_pole_at_a_sample_eigenvalue_drops_that_direction(small_case):
    # p > n; the pseudoinverse convention applies where a rule meets the
    # sample spectrum: the direction at the pole contributes nothing
    model, cfg, X, y, beta0, V, sp = small_case
    k = sp.d.size // 2
    pole = sp.d[k]
    got = sd.fit_coords(sp, monomial_rational_rule((pole,), (1.0,)))
    assert got[k] == 0.0
    rest = np.arange(sp.d.size) != k
    np.testing.assert_allclose(got[rest], sp.z[rest] / (sp.d[rest] - pole),
                               rtol=1e-14, atol=0.0)


def test_rule_overflow_at_the_top_sample_eigenvalue_drops_it(small_case):
    # |1 - eta d| > 1 only at the top eigenvalue (the outlier): 5000 steps
    # overflow there, while every other direction keeps its finite value
    model, cfg, X, y, beta0, V, sp = small_case
    top = int(np.argmax(sp.d))
    eta = 4.0 / (sp.d[top] + np.sort(sp.d)[-2])
    rule = sd.GDPoly(eta, 5000)
    assert 5000 * np.log(abs(1.0 - eta * sp.d[top])) > np.log(np.finfo(float).max)
    got = sd.fit_coords(sp, rule)
    assert got[top] == 0.0
    rest = np.arange(sp.d.size) != top
    np.testing.assert_array_equal(got[rest], rule(sp.d[rest]) * sp.z[rest])


def test_ridgeless_rule_applies_the_pseudoinverse(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    n, p = X.shape
    got = apply_rule_to_vector(sp, sd.Ridge(0.0), beta0, X)
    direct = np.linalg.pinv(X.T @ X / n, hermitian=True) @ beta0
    assert np.linalg.norm(got - direct) <= 1e-10 * np.linalg.norm(direct)


def test_decompose_fit_and_risk_allocate_no_n_by_p_array():
    model = SpikedModel(1.0, 3.0, ((7.0, 1.7),), 2.0, 4.0)
    cfg = SimConfig(model, n=200, p=600, seed=2)
    X, y, beta0, V = sd.gen_data(cfg)
    # numpy reports its array buffers to tracemalloc; the spectrum, a fit
    # and its risk need n x n and n-sized arrays, never another n x p one
    tracemalloc.start()
    try:
        sp = sd.decompose(sd.sample_gram(X, y, (beta0, V)))
        coords = sd.fit_coords(sp, sd.Ridge(1.0))
        sd.coordinate_risk(sp, beta0, model, V)(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes, f"traced peak {peak} B >= {X.nbytes} B"


def test_replicate_releases_its_design_before_the_eigensolve(monkeypatch):
    # the spectrum once held the design through eigh, and gen_data's rank-s
    # update allocated a second n x p array
    model = SpikedModel(1.0, 3.0, ((7.0, 1.7),), 2.0, 4.0)
    cfg = SimConfig(model, n=200, p=600, seed=2)
    design, square = cfg.n * cfg.p * 8, cfg.n * cfg.n * 8
    estimators, targets = {"ridge": sd.Ridge(1.0)}, {"ridge": 1.0}
    # numpy imports its random modules on first use: keep them untraced
    sd.harness_suite(cfg, estimators, targets)
    eigh, at_eigh = np.linalg.eigh, []

    def traced_eigh(a):
        at_eigh.append(tracemalloc.get_traced_memory()[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", traced_eigh)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sd.harness_suite(cfg, estimators, targets)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(at_eigh) == 1
    assert at_eigh[0] - base < design, f"{at_eigh[0] - base} B live at eigh"
    assert peak < design + 2 * square, f"traced peak {peak} B"


def test_rademacher_draw_is_one_design_and_keeps_its_stream():
    # the draw once made an int64 n x p array and then a float copy of it
    for shape in [(200, 600), (37, 41), (3, 5), (129, 41)]:
        for seed in range(4):
            rng = sd.montecarlo._rng(seed, 0, "design")
            got = sd.montecarlo._draw_entries(rng, shape, "rademacher", None)
            rng = sd.montecarlo._rng(seed, 0, "design")
            want = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    model = SpikedModel(1.0, 3.0, ((7.0, 1.7),), 2.0, 4.0)
    peaks = {}
    for dist in ("gaussian", "rademacher"):
        cfg = SimConfig(model, n=200, p=600, seed=2, entry_dist=dist)
        sd.gen_data(cfg)  # numpy imports its random modules on first use
        tracemalloc.start()
        try:
            sd.gen_data(cfg)
            peaks[dist] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    block = sd.montecarlo._UPDATE_ROWS * cfg.p * 8
    assert peaks["rademacher"] <= peaks["gaussian"] + block, peaks


def test_aggregated_clients_share_signal(small_case):
    model, cfg, X, y, beta0, V, sp = small_case
    cfg2 = SimConfig(model, cfg.n, cfg.p, seed=555)
    Xa, ya, b_a, V_a = sd.gen_data(cfg, client=0)
    Xb, yb, b_b, V_b = sd.gen_data(cfg2, client=1, signal=(b_a, V_a))
    assert np.array_equal(b_a, beta0) and np.array_equal(V_a, V)
    assert np.array_equal(b_a, b_b) and np.array_equal(V_a, V_b)
    assert not np.array_equal(Xa, Xb)
    assert not np.array_equal(sd.gen_data(cfg2, client=1)[2], b_a)


def test_harness_gap_shrinks_with_size():
    model = SpikedModel(1.0, 2.0, (), 2.0, 1.0)
    lam = isotropic_optimal(model).lam
    target = sd.limiting_pred_risk(model, sd.Ridge(lam)).total
    gaps = []
    for n, p in ((250, 500), (500, 1000), (1000, 2000)):
        cfg = SimConfig(model, n=n, p=p, seed=17, n_replicates=12)
        report = sd.harness_suite(cfg, {"ridge": sd.Ridge(lam)}, {"ridge": target})
        gaps.append(report["ridge"].relative_gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_universality_across_entry_distributions():
    model = SpikedModel(1.0, 2.0, ((4.0, 1.0),), 2.0, 1.0)
    target = sd.limiting_pred_risk(model, sd.Ridge(1.0)).total
    reports = {}
    for dist in ("gaussian", "rademacher"):
        cfg = SimConfig(model, n=400, p=800, seed=29, n_replicates=10,
                        entry_dist=dist)
        reports[dist] = sd.harness_suite(
            cfg, {"ridge": sd.Ridge(1.0)}, {"ridge": target})["ridge"]
    diff = abs(reports["gaussian"].empirical_mean
               - reports["rademacher"].empirical_mean)
    joint = np.hypot(reports["gaussian"].std_error,
                     reports["rademacher"].std_error)
    assert diff < 2.0 * joint


def test_fit_coords_rejects_unknown(small_case):
    sp = small_case[-1]
    with pytest.raises(ValueError):
        sd.fit_coords(sp, ("bogus",))


def test_harness_fig4_size_ridge_and_gd():
    model = SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0)
    cfg = SimConfig(model, n=700, p=1400, seed=6, n_replicates=12)
    targets = {
        "ridge": sd.limiting_pred_risk(model, sd.Ridge(1.0)).total,
        "gd": sd.limiting_pred_risk(model, sd.GDPoly(0.05, 100)).total,
    }
    reports = sd.harness_suite(
        cfg, {"ridge": sd.Ridge(1.0), "gd": sd.GDPoly(0.05, 100)}, targets
    )
    assert reports["ridge"].relative_gap < 0.05
    assert reports["gd"].relative_gap < 0.05


def test_finite_sample_dominance_fig4():
    # optimal SD beats the tuned ridge in finite samples, beyond noise
    model = SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0)
    lam, ridge_lim = sd.best_ridge(model)
    rule = sd.optimal_pred_rule(model)
    params = sd.synthesize_sd_params(rule)
    cfg = SimConfig(model, n=700, p=1400, seed=12, n_replicates=12)
    reports = sd.harness_suite(
        cfg, {"ridge": sd.Ridge(lam), "sd": params},
        {"ridge": ridge_lim,
         "sd": sd.limiting_pred_risk(model, rule).total},
    )
    diff = reports["ridge"].empirical_mean - reports["sd"].empirical_mean
    joint = np.hypot(reports["ridge"].std_error, reports["sd"].std_error)
    assert diff > 2 * joint


def test_aggregated_risk_convergence():
    # three clients with the optimal local rule and weights approach the
    # limiting aggregated risk
    model = SpikedModel(1.0, 2.0, ((4.0, 1.2),), 2.0, 1.0)
    K = 3
    fed = sd.federated_optimum(model, K)
    local = fed.local_rule
    limit = sd.federated_risk(model, K, [local] * K, [fed.rho_star] * K)
    n, p = 500, 1000
    risks = []
    for r in range(6):
        cfgs = [SimConfig(model, n, p, seed=1000 + l) for l in range(K)]
        beta0, V = sd.gen_data(cfgs[0], r, client=0)[2:]
        agg = np.zeros(p)
        for l, cfg in enumerate(cfgs):
            X, y, _, _ = sd.gen_data(cfg, r, client=l, signal=(beta0, V))
            sp = sd.decompose(sd.sample_gram(X, y))
            agg += fed.rho_star * sp.lift(sd.fit_coords(sp, local), X)
        risks.append(sd.sigma_risk(agg, beta0, model, V))
    assert abs(np.mean(risks) - limit) / limit < 0.05
