import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_distill as sd
from spectral_distill import AssumptionError, SDParams, SpikedModel

from conftest import _reference_panels
from oracles import Tabulated, monomial_rational_rule


def sd_recursion_oracle(params, x):
    """Stage-by-stage scalar recursion, independent of the closed form.

    Stage 0 is a ridge fit; stage t blends the data term with the
    previous stage through the per-eigenvalue update
    f_t = ((1 - xi_t) + xi_t x f_{t-1}) / (x + lambda_t).
    """
    x = np.asarray(x, dtype=float)
    f = 1.0 / (x + params.lambdas[0])
    for t in range(1, len(params.lambdas)):
        xi = params.xis[t - 1]
        f = ((1.0 - xi) + xi * x * f) / (x + params.lambdas[t])
    return f


def test_eval_examples():
    assert sd.eval_shrinkage(sd.Ridge(0.5), 1.5) == pytest.approx(0.5)
    x = np.linspace(0.1, 4.0, 17)
    eta, T = 0.07, 9
    direct = eta * sum((1 - eta * x) ** k for k in range(T))
    assert np.allclose(sd.GDPoly(eta, T)(x), direct, atol=1e-13)
    params = SDParams((0.8,), ())
    assert np.allclose(sd.SDChain(params)(x), sd.Ridge(0.8)(x))
    with pytest.raises(ValueError):
        sd.eval_shrinkage(sd.Ridge(0.5), -1.0)


def test_gd_poly_large_steps_stable():
    f = sd.GDPoly(0.01, 1000)
    x = np.array([0.0, 1e-9, 0.5, 3.0, 50.0])
    vals = f(x)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(0.01 * 1000)
    assert vals[3] == pytest.approx((1 - (1 - 0.03) ** 1000) / 3.0)


def test_sd_chain_degenerate_weights():
    # xi_1 = 0 collapses to ridge at the last stage
    p0 = SDParams((5.0, 0.25), (0.0,))
    x = np.linspace(0.05, 6.0, 23)
    assert np.allclose(sd.SDChain(p0)(x), sd.Ridge(0.25)(x))
    # xi_1 = 1 keeps only the teacher: x / ((x + l1)(x + l0))
    p1 = SDParams((0.7, 0.2), (1.0,))
    assert np.allclose(sd.SDChain(p1)(x), x / ((x + 0.2) * (x + 0.7)))


def test_sd_chain_matches_recursion_oracle():
    rng = np.random.default_rng(17)
    x = np.linspace(0.05, 12.0, 50)
    for _ in range(10):
        params = SDParams(
            tuple(rng.uniform(-6, 6, size=3)), tuple(rng.uniform(-1.5, 1.5, size=2))
        )
        assert np.max(np.abs(sd.SDChain(params)(x)
                             - sd_recursion_oracle(params, x))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    lams=st.lists(st.floats(-8, 8), min_size=1, max_size=5),
    xis_seed=st.integers(0, 2**32 - 1),
)
def test_sd_chain_recursion_property(lams, xis_seed):
    rng = np.random.default_rng(xis_seed)
    xis = tuple(rng.uniform(-2, 2, size=len(lams) - 1))
    params = SDParams(tuple(lams), xis)
    x = np.linspace(0.11, 9.7, 31)
    # keep evaluation away from the poles to compare finite values
    for lam in lams:
        x = x[np.abs(x + lam) > 1e-3]
    got = sd.SDChain(params)(x)
    want = sd_recursion_oracle(params, x)
    assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))


def test_zero_rule_risk(fig1_model):
    zero = Tabulated((0.0, 100.0), (0.0, 0.0))
    bk = sd.limiting_pred_risk(fig1_model, zero)
    expected = fig1_model.sigma0_sq * fig1_model.r**2 + float(
        np.sum(fig1_model.deltas * fig1_model.alphas**2)
    )
    assert bk.total == pytest.approx(expected)
    assert bk.variance == 0.0
    est = sd.limiting_est_risk(fig1_model, zero)
    assert est.total == pytest.approx(fig1_model.r**2)


def test_breakdown_sums(fig1_model):
    bk = sd.limiting_pred_risk(fig1_model, sd.Ridge(0.8))
    assert bk.total == bk.bias_bulk + sum(bk.bias_spikes) + bk.variance
    assert bk.bias_bulk >= 0 and bk.variance >= 0
    assert all(v >= 0 for v in bk.bias_spikes)


def test_isotropic_ridge_grid_minimum():
    model = SpikedModel(1.0, 2.0, (), 2.0, 1.0)
    lam_star = model.c * model.sigma_eps_sq / model.r**2
    lams = np.geomspace(lam_star / 30, lam_star * 30, 400)
    totals = sd.ridge_risk_curve(model, lams)
    i = int(np.argmin(totals))
    assert abs(np.log(lams[i] / lam_star)) <= np.log(lams[1] / lams[0]) + 1e-12
    # scalar quadratic identity for the isotropic risk
    grid = sd.get_grid(model)
    lam = 0.7
    f = sd.Ridge(lam)
    direct = sd.limiting_pred_risk(model, f).total
    s0sq, r2, c, se2 = (model.sigma0_sq, model.r**2, model.c,
                        model.sigma_eps_sq)
    integrand = lambda x: x * ((r2 * x + c * se2) * f(x) ** 2 - 2 * r2 * f(x))
    scalar_form = s0sq * r2 + s0sq * grid.integrate(integrand(grid.support_points)).mp
    assert direct == pytest.approx(scalar_form, rel=1e-12)


def test_est_risk_isotropic_minimum():
    model = SpikedModel(1.3, 0.6, (), 1.7, 2.0)
    lam_star = model.c * model.sigma_eps_sq / model.r**2
    lams = np.geomspace(lam_star / 30, lam_star * 30, 400)
    totals = sd.ridge_risk_curve(model, lams, kind="est")
    i = int(np.argmin(totals))
    assert abs(np.log(lams[i] / lam_star)) <= np.log(lams[1] / lams[0]) + 1e-12


def test_ridge_risk_curve_matches_pointwise(fig1_model):
    lams = np.array([0.2, 1.0, 4.0])
    curve = sd.ridge_risk_curve(fig1_model, lams)
    for lam, total in zip(lams, curve):
        assert total == pytest.approx(
            sd.limiting_pred_risk(fig1_model, sd.Ridge(float(lam))).total
        )
    curve_est = sd.ridge_risk_curve(fig1_model, lams, kind="est")
    for lam, total in zip(lams, curve_est):
        assert total == pytest.approx(
            sd.limiting_est_risk(fig1_model, sd.Ridge(float(lam))).total
        )


def test_rule_pole_rejection(fig1_model):
    a, b = sd.mp_support(fig1_model)
    with pytest.raises(AssumptionError):
        sd.limiting_pred_risk(fig1_model, sd.Ridge(-0.5 * (a + b)))
    mid = 0.5 * (a + b)
    with pytest.raises(AssumptionError):
        sd.limiting_est_risk(fig1_model, monomial_rational_rule((mid,), (1.0,)))
    xstar = sd.outlier_location(fig1_model, fig1_model.deltas[0])
    with pytest.raises(AssumptionError):
        sd.limiting_pred_risk(fig1_model, sd.Ridge(-xstar))
    # poles off the support are fine, including inside the spectral gap
    sd.limiting_pred_risk(fig1_model, sd.Ridge(-0.5 * a))


def test_rational_pole_evaluation_flagged():
    # a rule is its formula: at its pole the value is not finite, with no
    # warning; only eval_shrinkage, where a rule meets sample eigenvalues,
    # maps it to 0 by the pseudoinverse convention
    f = monomial_rational_rule((2.0,), (1.0,))  # pole at 2
    x = np.array([1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = f(x)
    assert vals[0] == -1.0 and not np.isfinite(vals[1]) and vals[2] == 1.0
    np.testing.assert_array_equal(sd.eval_shrinkage(f, x), [-1.0, 0.0, 1.0])


def test_pcr_surrogate_tau_range(fig4_model):
    with pytest.raises(ValueError):
        sd.pcr_rule(fig4_model, 0.0)
    with pytest.raises(ValueError):
        sd.pcr_rule(fig4_model, 0.5)  # bulk mass is 1/c = 0.5
    fn = sd.pcr_rule(fig4_model, 0.3)
    a, b = sd.mp_support(fig4_model)
    assert a < fn.cut < b


def test_pcr_component_limit_matches_tau_to_zero(fig4_model):
    # with every spike detached, tau -> 0 approaches the keep-outliers value
    lim = sd.pcr_component_limit_risk(fig4_model).total
    small_tau = sd.pcr_sharp_pred_risk(fig4_model, 1e-4).total
    assert abs(small_tau - lim) < 2e-3
    assert sd.pcr_component_limit_risk(fig4_model).variance == 0.0


PANEL_MODELS = {
    "fig4": SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0),
    "c_below_one": SpikedModel(1.0, 0.5, ((1.5, 0.6),), 2.0, 1.0),
    "c_0.999": SpikedModel(1.0, 1.0 - 1e-3, ((3.0, 0.6),), 2.0, 1.0),
    "c_1.001": SpikedModel(1.0, 1.0 + 1e-3, ((3.0, 0.6),), 2.0, 1.0),
    "c_1.01": SpikedModel(1.0, 1.01, ((3.0, 0.6),), 2.0, 1.0),
    "c_1.05": SpikedModel(1.0, 1.05, ((3.0, 0.6),), 2.0, 1.0),
    "near_detachment": SpikedModel(
        1.0, 2.0, ((1.001 * math.sqrt(2.0), 0.6), (4.0, 0.5)), 2.0, 1.0),
}


def _panel_risks(model, tau):
    sd.spectra._per_model.clear()
    sharp = sd.pcr_sharp_pred_risk(model, tau).total
    kept = [sd.pcr_component_limit_risk(model, m).total for m in (0, 1, None)]
    return np.array([sharp, *kept])


@pytest.mark.parametrize("name", sorted(PANEL_MODELS))
def test_panel_risks_match_converged_reference(name, monkeypatch):
    model = PANEL_MODELS[name]
    bulk = min(1.0, 1.0 / model.c)
    for tau in (1e-3, 0.05, 0.25 * bulk, 0.4, 0.9 * bulk):
        t = sd.mp_quantile_inverse(model, tau)
        assert sd.get_grid(model, breaks=(t,)).x.size < 1024
        got = _panel_risks(model, tau)
        with monkeypatch.context() as patch:
            patch.setattr(sd.spectra, "_theta_panels", _reference_panels)
            ref = _panel_risks(model, tau)
        sd.spectra._per_model.clear()
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


EDGE_MODELS = {
    "c_0.999": SpikedModel(1.0, 1.0 - 1e-3, ((3.0, 0.6),), 2.0, 1.0),
    "c_1.001": SpikedModel(1.0, 1.0 + 1e-3, ((3.0, 0.6),), 2.0, 1.0),
    "c_1+1e-6": SpikedModel(1.0, 1.0 + 1e-6, ((3.0, 0.6),), 2.0, 1.0),
    "above_detachment": SpikedModel(
        1.0, 2.0, (((1.0 + 1e-5) * math.sqrt(2.0), 0.6), (4.0, 0.5)), 2.0, 1.0),
    "below_detachment": SpikedModel(
        1.0, 2.0, (((1.0 - 1e-5) * math.sqrt(2.0), 0.6), (4.0, 0.5)), 2.0, 1.0),
}


def _edge_values(model):
    sd.spectra._per_model.clear()
    rules = {
        "ridge": sd.Ridge(0.3),
        "gd_0.1x1000": sd.GDPoly(0.1, 1000),
        "gd_0.01x10": sd.GDPoly(0.01, 10),
        "optimal_pred": sd.optimal_pred_rule(model),
        "optimal_est": sd.optimal_est_rule(model),
        "min_norm": sd.min_norm_rule(model),
    }
    out = {name: np.array([sd.limiting_pred_risk(model, f).total,
                           sd.limiting_est_risk(model, f).total])
           for name, f in rules.items()}
    out["H"] = sd.gram_system(model).H
    return out


@pytest.mark.parametrize("name", sorted(EDGE_MODELS))
def test_edge_regime_risks_match_converged_reference(name, monkeypatch):
    # c next to 1 puts the lower bulk edge next to zero and a spike next
    # to sigma0^2 sqrt(c) puts its outlier next to the upper edge; the
    # grid of rules without breaks still agrees with the converged
    # reference, min-norm's 1/x next to zero included
    model = EDGE_MODELS[name]
    got = _edge_values(model)
    with monkeypatch.context() as patch:
        patch.setattr(sd.spectra, "_theta_panels", _reference_panels)
        ref = _edge_values(model)
        # the reference reached the grid of rules without breaks
        a, b = sd.mp_support(model)
        assert sd.get_grid(model).x.size == _reference_panels(a, b, ())[0].size
    sd.spectra._per_model.clear()
    for key in got:
        assert np.all(np.abs(got[key] - ref[key]) <= 1e-13 * np.abs(ref[key])), key


def _tabulated_risks(model, rule):
    sd.spectra._per_model.clear()
    return np.array([sd.limiting_pred_risk(model, rule).total,
                     sd.limiting_est_risk(model, rule).total])


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_tabulated_risks_match_converged_reference(c, monkeypatch):
    # a table's kinks are declared as breaks, so no panel straddles one
    model = SpikedModel(1.0, c, ((3.0, 0.6),), 2.0, 1.0)
    a, b = sd.mp_support(model)
    xs = np.linspace(a + 0.1 * (b - a), b - 0.05 * (b - a), 7)
    rule = Tabulated(tuple(xs), tuple((1.0 + 0.3 * np.sin(np.arange(7)))
                                         / (xs + 0.5)))
    assert rule.breakpoints == rule.xs
    got = _tabulated_risks(model, rule)
    with monkeypatch.context() as patch:
        patch.setattr(sd.spectra, "_theta_panels", _reference_panels)
        ref = _tabulated_risks(model, rule)
    sd.spectra._per_model.clear()
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_validate_rule_evaluates_a_rebuilt_grid(fig4_model, monkeypatch):
    # a rule's record is kept in its model's entry with the model's grids,
    # so dropping that entry drops both: a grid rebuilt from other panels
    # is evaluated afresh and never served the older grid's values
    rule = sd.optimal_pred_rule(fig4_model)
    checked = sd.shrinkage.validate_rule(fig4_model, rule)
    grid = checked.grid
    assert not checked.values.flags.writeable
    a, b = sd.mp_support(fig4_model)
    with monkeypatch.context() as patch:
        patch.setattr(sd.spectra, "_theta_panels", _reference_panels)
        del sd.spectra._per_model[fig4_model]
        ref = sd.shrinkage.validate_rule(fig4_model, rule)
    n_ref = _reference_panels(a, b, ())[0].size
    assert ref.grid is not grid and n_ref != grid.x.size
    assert ref.grid.x.size == n_ref
    assert np.array_equal(ref.values, rule(ref.grid.support_points))
    del sd.spectra._per_model[fig4_model]
    assert (sd.shrinkage.validate_rule(fig4_model, rule).values.size
            == grid.support_points.size)


def test_pred_and_est_risk_share_one_moment_pass(fig1_model, monkeypatch):
    rule = sd.optimal_pred_rule(fig1_model)
    moments = sd.shrinkage._rule_moments
    passes = []

    def counting(*args):
        passes.append(args[0])
        return moments(*args)

    monkeypatch.setattr(sd.shrinkage, "_rule_moments", counting)
    sd.spectra._per_model.clear()
    pred = sd.limiting_pred_risk(fig1_model, rule)
    est = sd.limiting_est_risk(fig1_model, rule)
    assert len(passes) == 1
    assert passes[0] is sd.get_grid(fig1_model)
    # a copy of the rule is an equal key and shares the pass
    assert sd.limiting_est_risk(fig1_model, dataclasses.replace(rule)) == est
    assert len(passes) == 1
    assert pred.total > 0 and est.total > 0


def test_limiting_risks_keep_no_record(fig1_model):
    # a scan over many rules holds one record at a time: limiting_risks
    # gives both risks from one evaluation and keeps it nowhere, while a
    # record that is kept already (the optimal rule's) is read, not rebuilt
    sd.spectra._per_model.clear()
    rules = [sd.Ridge(float(lam)) for lam in np.geomspace(0.01, 10.0, 5)]
    got = [sd.shrinkage.limiting_risks(fig1_model, f) for f in rules]
    assert not any(key[0] == "rule" for key in sd.spectra._per_model[fig1_model])
    assert got == [[sd.limiting_pred_risk(fig1_model, f),
                    sd.limiting_est_risk(fig1_model, f)] for f in rules]
    rule = sd.optimal_pred_rule(fig1_model)
    kept = sd.shrinkage.validate_rule(fig1_model, rule)
    assert sd.shrinkage.validate_rule(fig1_model, rule, keep=False) is kept


def test_min_norm_surrogate_requires_spectral_gap():
    with pytest.raises(AssumptionError):
        sd.min_norm_rule(SpikedModel(1.0, 1.0, (), 1.0, 1.0))
    m = SpikedModel(1.0, 2.0, (), 1.0, 1.0)
    fn = sd.min_norm_rule(m)
    a, _ = sd.mp_support(m)
    assert fn(0.0) == 0.0
    xs = np.linspace(a, 4.0, 9)
    assert np.allclose(fn(xs), 1.0 / xs)


def test_dominance_battery(fig1_model, fig4_model):
    for model in (fig1_model, fig4_model):
        if model.s == 0:
            continue
        rule = sd.optimal_pred_rule(model)
        best = sd.limiting_pred_risk(model, rule).total
        competitors = [sd.best_ridge(model)[1]]
        competitors.append(
            sd.limiting_pred_risk(model, sd.min_norm_rule(model)).total
        )
        for tau in (0.05, 0.1, 0.3):
            competitors.append(
                sd.limiting_pred_risk(model, sd.pcr_rule(model, tau)).total
            )
        competitors.append(sd.pcr_component_limit_risk(model).total)
        for eta in (0.01, 0.1):
            for T in (10, 100, 1000):
                try:
                    competitors.append(
                        sd.limiting_pred_risk(model, sd.GDPoly(eta, T)).total
                    )
                except sd.NumericalError:
                    competitors.append(float("inf"))
        assert best < min(competitors) - 1e-6


def test_scale_consistency(fig4_model):
    # scaling sigma0^2 and every delta by kappa (and x by kappa) maps the risk
    # components: bias terms scale by kappa, the variance term is unchanged,
    # for the transformed rule f_k(y) = f(y/kappa)/kappa.
    kappa = 2.7
    model = fig4_model
    scaled = SpikedModel(
        kappa * model.sigma0_sq, model.c,
        tuple((kappa * d, a) for d, a in model.spikes),
        model.r, model.sigma_eps_sq,
    )
    f = sd.Ridge(0.8)
    base = sd.limiting_pred_risk(model, f)

    class ScaledRule(sd.ShrinkageFn):
        def __call__(self, x):
            return f(np.asarray(x) / kappa) / kappa

    got = sd.limiting_pred_risk(scaled, ScaledRule())
    expect_total = kappa * (base.bias_bulk + sum(base.bias_spikes)) + base.variance
    assert got.total == pytest.approx(expect_total, rel=1e-8)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        Tabulated((1.0, 0.5), (0.0, 0.0))
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0), (0.0,))


def test_sd_params_validation():
    with pytest.raises(ValueError):
        SDParams((1.0, 2.0), ())
    p = SDParams((1.0, -2.0), (0.5,))
    assert p.k == 1


def test_rule_is_called_once_on_bulk_and_atoms(fig4_model):
    # c > 1 and a detached spike: the grid holds a zero atom and an
    # outlier, and one call on all its points serves both risks and A_j
    calls = []

    class Counting(sd.ShrinkageFn):
        def __call__(self, x):
            calls.append(np.array(x, copy=True))
            return 1.0 / (np.asarray(x) + 0.5)

    rule = Counting()
    sd.spectra._per_model.clear()
    sd.limiting_pred_risk(fig4_model, rule)
    sd.limiting_est_risk(fig4_model, rule)
    sd.shrinkage.validate_rule(fig4_model, rule).xf
    grid = sd.get_grid(fig4_model)
    assert grid.atom_locs.size == 2
    assert len(calls) == 1
    assert np.array_equal(calls[0], grid.support_points)


@pytest.mark.parametrize("which", ["optimal", "pcr"])
def test_risk_evaluates_rule_once(fig1_model, which):
    # one limiting risk evaluates the rule on no more points than its
    # grid holds: validation and the moments share one evaluation
    if which == "optimal":
        rule = sd.optimal_pred_rule(fig1_model)
    else:
        rule = sd.pcr_rule(fig1_model, 0.1)
    sizes = []

    class Counting(sd.ShrinkageFn):
        breakpoints = rule.breakpoints

        def poles(self):
            return rule.poles()

        def __call__(self, x):
            sizes.append(np.size(x))
            return rule(x)

    got = sd.limiting_pred_risk(fig1_model, Counting())
    assert got == sd.limiting_pred_risk(fig1_model, rule)
    grid = sd.get_grid(fig1_model, breaks=rule.breakpoints)
    assert sum(sizes) <= grid.support_points.size
