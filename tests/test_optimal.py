import json
import math
import pathlib

import numpy as np
import pytest

import spectral_distill as sd
from spectral_distill import NumericalError, SpikedModel, StructuralError
from spectral_distill.cli import parse_model
from conftest import many_spike_model, random_model
from oracles import isotropic_optimal, monomial_rational_rule, nu_products


def test_b0_closed_form(fig1_model):
    rule, coef = sd.optimal_pred_rule(fig1_model)
    assert coef.b[0] == pytest.approx(25.0 * 0.39, abs=1e-12)


def test_inner_products_are_shared_read_only(fig1_model):
    # A_j comes from the rule's cached x f pass, which callers must not alter
    rule, coef = sd.optimal_pred_rule(fig1_model)
    A = sd.optimal.inner_products_with_basis(fig1_model, rule)
    assert tuple(A) == coef.A and A.shape == (fig1_model.s,)
    assert not A.flags.writeable
    with pytest.raises(ValueError):
        A[0] = 0.0


def test_degrees(fig1_model):
    rule, _ = sd.optimal_pred_rule(fig1_model)
    s = fig1_model.s
    # Q/P with monic P of degree s + 1 and Q of degree s whose leading
    # coefficient is 1: s + 1 simple poles whose residues sum to 1, and
    # x f(x) -> 1 as x grows
    assert len(rule.roots_of_p) == len(rule.b) == s + 1
    assert sum(rule.residues()) == pytest.approx(1.0, rel=1e-14)
    assert 1e8 * float(rule(1e8)) == pytest.approx(1.0, rel=1e-7)


def test_fixed_point_residual(fig1_model):
    rule, _ = sd.optimal_pred_rule(fig1_model)
    assert sd.fixed_point_residual(fig1_model, rule) < 1e-8


def test_root_structure_one_spike(fig4_model):
    rule, _ = sd.optimal_pred_rule(fig4_model)
    roots = np.array(rule.roots_of_p)
    assert roots.size == 2
    assert np.sum(roots < 0) == 1
    xstar = sd.outlier_location(fig4_model, fig4_model.deltas[0])
    assert roots.max() > xstar


def test_root_structure_two_spikes(fig1_model):
    rule, _ = sd.optimal_pred_rule(fig1_model)
    roots = np.sort(np.array(rule.roots_of_p))
    xs = np.sort([sd.outlier_location(fig1_model, d) for d in fig1_model.deltas])
    assert roots[0] < 0
    assert xs[0] < roots[1] < xs[1] < roots[2]
    # Vieta: product of roots consistent with P(0) > 0, P from the factored form
    p0 = factored_p(fig1_model, 0.0)
    assert p0 * (-1) ** len(roots) == pytest.approx(np.prod(roots), rel=1e-10)


def factored_p(model, x):
    """Monic P at x from the paper's nu products."""
    rn = sd.rn_polynomials(model)
    w = sd.mixture_weights(model)
    x = np.asarray(x, dtype=float)
    mix = nu_products(rn, (w.omega0, *w.omegas), x)
    nu = nu_products(rn, (1.0,) + (0.0,) * model.s, x)
    p0 = model.r**2 * x * mix + model.c * model.sigma_eps_sq * nu
    return p0 / (model.r**2 * w.omega0 * math.prod(-sc for sc in rn.scales))


def test_roots_polish_residual(fig1_model):
    rule, _ = sd.optimal_pred_rule(fig1_model)
    vals = factored_p(fig1_model, rule.roots_of_p)
    scale = np.max(np.abs(factored_p(fig1_model, np.array([0.0, *rule.roots_of_p]) + 0.5)))
    assert np.max(np.abs(vals)) < 1e-12 * max(1.0, scale)


def test_isotropic_optimal():
    m = SpikedModel(1.0, 2.0, (), 2.0, 1.0)
    ridge = isotropic_optimal(m)
    assert ridge.lam == pytest.approx(0.5)
    # ridgeless limit as the signal grows
    big = SpikedModel(1.0, 2.0, (), 1e6, 1.0)
    assert isotropic_optimal(big).lam < 1e-10
    with pytest.raises(ValueError):
        isotropic_optimal(SpikedModel(1.0, 2.0, ((1.5, 0.5),), 2.0, 1.0))
    # at s = 0 the optimal rule is that ridge: P = x + lambda*, Q = 1
    rule, coef = sd.optimal_pred_rule(m)
    assert rule.roots_of_p == (pytest.approx(-ridge.lam, rel=1e-15),)
    assert coef.A == ()
    pts = sd.get_grid(m).support_points
    assert np.max(np.abs(rule(pts) / ridge(pts) - 1.0)) <= 1e-15


def test_isotropic_grid_convexity():
    m = SpikedModel(1.0, 2.0, (), 2.0, 1.0)
    lam = isotropic_optimal(m).lam
    mid = sd.limiting_pred_risk(m, sd.Ridge(lam)).total
    assert sd.limiting_pred_risk(m, sd.Ridge(lam * 1.1)).total >= mid
    assert sd.limiting_pred_risk(m, sd.Ridge(lam * 0.9)).total >= mid


def test_small_delta_converges_to_isotropic_ridge():
    spiked = SpikedModel(1.0, 2.0, ((1e-6, 0.5),), 2.0, 1.0)
    iso = isotropic_optimal(SpikedModel(1.0, 2.0, (), 2.0, 1.0))
    rule, _ = sd.optimal_pred_rule(spiked)
    grid = sd.get_grid(spiked)
    assert np.max(np.abs(rule(grid.x) - iso(grid.x))) < 1e-6


def test_est_rule_examples(fig1_model):
    m0 = SpikedModel(1.0, 2.0, (), 2.0, 1.0)
    est0 = sd.optimal_est_rule(m0)
    assert est0.roots_of_p == (pytest.approx(-0.5),)
    xs = np.linspace(0.1, 6.0, 13)
    assert np.allclose(est0(xs), 1.0 / (xs + 0.5))
    # shared denominator with the prediction rule up to the sigma0^2 factor
    pred, _ = sd.optimal_pred_rule(fig1_model)
    est = sd.optimal_est_rule(fig1_model)
    assert np.allclose(est.roots_of_p, pred.roots_of_p)
    # estimation risk at the optimum beats the ridge grid
    best = sd.limiting_est_risk(fig1_model, est).total
    assert best <= sd.best_ridge(fig1_model, kind="est")[1] + 1e-12
    # coprime: denominator roots exclude the outliers
    assert sd.coprimality_check(est)


def test_synthesis_round_trip(fig1_model, fig4_model):
    for model in (fig1_model, fig4_model):
        rule, _ = sd.optimal_pred_rule(model)
        params = sd.synthesize_sd_params(rule)
        assert sd.sd_round_trip_error(model, rule, params) < 1e-9
        lams = np.array(params.lambdas)
        assert np.sum(lams < 0) == model.s  # exactly s negative stages
        grid = sd.get_grid(model)
        assert not np.any(grid.on_support(-lams))
        # round-trip risk equality
        r1 = sd.limiting_pred_risk(model, rule).total
        r2 = sd.limiting_pred_risk(model, sd.SDChain(params)).total
        assert abs(r1 - r2) < 1e-9


def test_synthesis_one_spike_closed_system(fig4_model):
    # s = 1: the expansion Q(x) = t0 x + t1 (x - gamma0) closes in two
    # unknowns; check it by hand.
    rule, _ = sd.optimal_pred_rule(fig4_model)
    params = sd.synthesize_sd_params(rule)
    g0 = -params.lambdas[0]
    q_at_0 = float(rule(0.0)) * math.prod(-g for g in rule.roots_of_p)  # Q = f P
    t1 = -q_at_0 / g0
    t0 = 1.0 - t1
    assert params.xis[0] == pytest.approx(t0 / (t0 + t1))


def test_synthesis_est_rule(fig1_model):
    est = sd.optimal_est_rule(fig1_model)
    params = sd.synthesize_sd_params(est)
    assert sd.sd_round_trip_error(fig1_model, est, params) < 1e-9


def test_coprimality_examples(fig1_model):
    rule, _ = sd.optimal_pred_rule(fig1_model)
    assert sd.coprimality_check(rule)
    # a reducible representation: (x + lam) / (x + lam)^2
    lam = 0.7
    shared = monomial_rational_rule((-lam, -lam), (lam, 1.0))
    assert not sd.coprimality_check(shared)


def test_coprimality_high_noise_one_spike():
    # one spike above both sqrt(c) and 2c, large noise
    model = SpikedModel(1.0, 0.5, ((3.0, 1.0),), 2.0, 25.0)
    rule, _ = sd.optimal_pred_rule(model)
    assert sd.coprimality_check(rule)


def test_optimality_over_random_rules(fig1_model):
    model = fig1_model
    rule, _ = sd.optimal_pred_rule(model)
    best = sd.limiting_pred_risk(model, rule).total
    rng = np.random.default_rng(23)
    grid = sd.get_grid(model)
    b = grid.bulk_hi
    for _ in range(25):
        kind = rng.integers(0, 3)
        if kind == 0:
            f = sd.Ridge(float(rng.uniform(0.01, 10)))
        elif kind == 1:
            lams = np.concatenate([
                -rng.uniform(b * 1.5, b * 4, size=2), rng.uniform(0.05, 3, size=1)
            ])
            f = sd.SDChain(sd.SDParams(tuple(lams), tuple(rng.uniform(-1, 1, 2))))
        else:
            poles = np.concatenate([
                rng.uniform(b * 1.5, b * 3, size=1), -rng.uniform(0.2, 3, size=1)
            ])
            num = np.polynomial.polynomial.polyfromroots(
                rng.uniform(-2, b, size=1))
            f = monomial_rational_rule(tuple(poles), tuple(num))
        try:
            total = sd.limiting_pred_risk(model, f).total
        except (sd.AssumptionError, sd.NumericalError):
            continue
        assert total >= best - 1e-9


def test_fig3_phenomenology(fig3_factory):
    params = sd.synthesize_sd_params(sd.optimal_pred_rule(fig3_factory(0.01))[0])
    assert abs(params.xis[0]) < 0.05
    for delta in np.linspace(0.2, 19.8, 12):
        m = fig3_factory(float(delta))
        p = sd.synthesize_sd_params(sd.optimal_pred_rule(m)[0])
        assert p.lambdas[0] < 0
        assert -p.lambdas[0] > sd.outlier_location(m, float(delta))


def test_acceptance_style_random_structure():
    rng = np.random.default_rng(31)
    for _ in range(8):
        model = random_model(rng, s=int(rng.integers(1, 4)))
        rule, coef = sd.optimal_pred_rule(model)
        roots = np.sort(rule.roots_of_p)
        assert np.sum(roots < 0) == 1
        xs = np.sort([sd.outlier_location(model, d) for d in model.deltas])
        for i in range(model.s - 1):
            assert xs[i] < roots[1 + i] < xs[i + 1]
        assert roots[-1] > xs[-1]
        assert sd.fixed_point_residual(model, rule) < 1e-8
        gamma0 = model.sigma0_sq * model.r**2 * sd.mixture_weights(model).omega0
        assert abs(coef.b[0] - gamma0) < 1e-12 * max(1.0, gamma0)
        da2 = model.deltas * model.alphas**2
        assert np.sum(da2 * (1 - np.array(coef.A)) ** 2) <= np.sum(da2) + 1e-10


def test_degeneracy_guard():
    # two deltas whose outliers nearly coincide trip the structural guard
    m = SpikedModel(1.0, 1.0, ((2.0, 0.5), (2.0 + 1e-11, 0.5)), 2.0, 1.0)
    with pytest.raises(StructuralError):
        sd.optimal_pred_rule(m)


def test_noiseless_boundary_rejected():
    # at sigma_eps^2 = 0 the denominator picks up a root at zero and the
    # guaranteed negative stage disappears
    m = SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 0.0)
    with pytest.raises(sd.AssumptionError):
        sd.optimal_pred_rule(m)
    with pytest.raises(sd.AssumptionError):
        sd.optimal_est_rule(m)
    # risks of explicit rules remain well defined without noise
    assert sd.limiting_pred_risk(m, sd.Ridge(1.0)).variance == 0.0


def variational_normal_equations(model, kind="pred"):
    """Normal equations of the discretized risk over tabulated values.

    Assembles the risk as an explicit quadratic form in the rule's values
    at the grid points (diagonal plus one rank-one term per spike), using
    only the raw measure weights and the risk definition, none of the
    density-ratio or Gram machinery. Returns (points, live mask, M, b)
    with the minimizer solving M f = b on the live points; points
    carrying no measure (the zero atom through the x factor, weightless
    edge nodes) do not constrain the minimizer.
    """
    grid = sd.get_grid(model)
    pts = grid.support_points
    x = pts
    a, m = grid.w_alpha, grid.w_mp
    live = (x > 0) & (a * x**2 + m * x > 0)
    xl, al, ml = x[live], a[live], m[live]
    s0sq, r2, c, se2 = model.sigma0_sq, model.r**2, model.c, model.sigma_eps_sq
    if kind == "pred":
        M = np.diag(s0sq * r2 * al * xl**2 + c * s0sq * se2 * ml * xl)
        b = s0sq * r2 * al * xl
        for j, (d, alj) in enumerate(model.spikes):
            dj = grid.w_delta[j][live]
            v = dj * xl
            M += d * alj * alj * np.outer(v, v)
            b += d * alj * alj * v
    else:
        M = np.diag(r2 * al * xl**2 + c * se2 * ml * xl)
        b = r2 * al * xl
    return pts, live, M, b


def test_optimal_rule_solves_variational_oracle(fig1_model, fig4_model):
    # the production rule must satisfy the raw-discretization normal
    # equations at machine precision and attain the dense solver's
    # minimum risk value (pointwise comparison would only measure the
    # dense solve's own conditioning in flat directions)
    for model in (fig1_model, fig4_model):
        for kind, build in (
            ("pred", lambda m: sd.optimal_pred_rule(m)[0]),
            ("est", sd.optimal_est_rule),
        ):
            rule = build(model)
            pts, live, M, b = variational_normal_equations(model, kind)
            fv = rule(pts)[live]
            resid = np.max(np.abs(M @ fv - b)) / np.max(np.abs(b))
            assert resid < 1e-12
            f_dense = np.linalg.solve(M, b)
            risk_dense = f_dense @ M @ f_dense - 2 * b @ f_dense
            risk_prod = fv @ M @ fv - 2 * b @ fv
            assert risk_prod <= risk_dense + 1e-12 * abs(risk_dense)


def test_federated_rule_solves_variational_oracle(fig1_model):
    # K-client variant: with equal weights and a common rule the
    # aggregated risk is a quadratic in the rescaled values
    # ftilde = K rho f, with one extra rank-one term per measure from the
    # cross-client products; K * f_K* must solve its normal equations.
    model = fig1_model
    K = 4
    grid = sd.get_grid(model)
    pts = grid.support_points
    x = pts
    a, m = grid.w_alpha, grid.w_mp
    live = (x > 0) & (a * x**2 + m * x > 0)
    xl, al, ml = x[live], a[live], m[live]
    s0sq, r2, c, se2 = model.sigma0_sq, model.r**2, model.c, model.sigma_eps_sq
    w = sd.mixture_weights(model)
    M = np.diag(s0sq * r2 * al * xl**2 + c * s0sq * se2 * ml * xl)
    v0 = ml * xl
    M += s0sq * r2 * w.omega0 * (K - 1) * np.outer(v0, v0)
    b = K * s0sq * r2 * w.omega0 * v0
    for j, (d, alj) in enumerate(model.spikes):
        dj = grid.w_delta[j][live]
        v = dj * xl
        M += (s0sq * (K - 1) + d * K) * alj * alj * np.outer(v, v)
        b += K * (d + s0sq) * alj * alj * v
    fed = sd.federated_optimum(model, K)
    fv = K * fed.rho_star * fed.local_rule(pts)[live]
    resid = np.max(np.abs(M @ fv - b)) / np.max(np.abs(b))
    assert resid < 1e-12


def test_high_noise_round_trip():
    # roots crowd the outliers as the noise grows; synthesis must stay exact
    for se2 in (1e2, 1e4):
        model = SpikedModel(1.0, 3.0, ((1.0, 1.0), (4.0, 1.0), (9.0, 1.0)),
                            6.0, se2)
        rule, _ = sd.optimal_pred_rule(model)
        params = sd.synthesize_sd_params(rule)
        assert sd.sd_round_trip_error(model, rule, params) < 1e-9
        assert sd.coprimality_check(rule)


# Models with three outliers within about 0.5% of each other at s = 4; with
# Q evaluated from its monomial coefficients their round trips missed the
# 1e-9 acceptance tolerance. Each is listed with the federated K at which
# it failed (None: the single-client rule failed).
CLOSE_OUTLIER_MODELS = [
    (10, {"sigma0_sq": 1.8312193722082466, "c": 3.708738031375723,
          "r": 4.417829349239232, "sigma_eps_sq": 3.2759679756788356,
          "spikes": [(4.158526932998553, -1.1071592837611455),
                     (3.7809473405139618, 1.2380056296672928),
                     (2.47016164005293, -2.0918601176153446),
                     (4.36874334380371, 1.531763962478353)]}),
    (None, {"sigma0_sq": 1.8579316354024016, "c": 2.8688068058170635,
            "r": 2.7360192399804344, "sigma_eps_sq": 0.9510412938357481,
            "spikes": [(3.5322512969520377, -0.9480280223409254),
                       (3.798468265299089, -1.0195407321291488),
                       (2.182887824384041, -1.0543288216722226),
                       (3.3644215495172514, 0.8176441399999743)]}),
    (2, {"sigma0_sq": 1.2542467725704811, "c": 2.082294357012625,
         "r": 3.927518544306996, "sigma_eps_sq": 3.575145324674386,
         "spikes": [(2.1700395634590004, 0.6774151425572433),
                    (2.0147864058192284, 0.5158901422536486),
                    (1.1179880724650126, -1.9146999674511134),
                    (1.4242782457101721, 2.0338100629466536)]}),
]


@pytest.mark.parametrize("K,spec", CLOSE_OUTLIER_MODELS)
def test_close_outlier_round_trip(K, spec):
    model = SpikedModel(spec["sigma0_sq"], spec["c"], tuple(spec["spikes"]),
                        spec["r"], spec["sigma_eps_sq"])
    rules = [sd.optimal_pred_rule(model)[0], sd.optimal_est_rule(model)]
    for rule in rules:
        params = sd.synthesize_sd_params(rule)
        assert sd.sd_round_trip_error(model, rule, params) <= 1e-11
    if K is not None:
        fed = sd.federated_optimum(model, K)
        assert sd.sd_round_trip_error(model, fed.local_rule, fed.sd_params) <= 1e-11


# Roots of P for the close-outlier models of tests/corpus (outliers within
# about 0.5% of each other) and the fig-1 model, computed once with mpmath
# at 60 digits from the models' float inputs, rounded here to 25.
CORPUS = pathlib.Path(__file__).parent / "corpus"
REFERENCE_ROOTS = {
    "optimal__close-s4-1595": (
        "-0.7532234849453557191506798", "15.72045089645547022375067",
        "15.79450201842155997983691", "15.95693224645410216725491",
        "25.64515775603653339746714"),
    "optimal__close-s9-553": (
        "-0.4518429212639879262168916", "13.50607875172494056853587",
        "13.56043910799159491705929", "13.78201657525981426951422",
        "21.9093139085763140048054"),
    "optimal__close-s9-1033": (
        "-1.94467172279046579908225", "15.19499014619822166771725",
        "15.29691720294455933350878", "15.6033864100369625212714",
        "30.57083521361413139389794"),
    "optimal__close-s2003-1219": (
        "-0.8768574944464115141775757", "13.82415491060807749309976",
        "13.86596134384673710240766", "14.16932190203858253842751",
        "27.01705839210718822831078"),
    "optimal__close-s2003-1418": (
        "-0.6138615154093374683555063", "7.509692370949528111679832",
        "7.549080398873651423364487", "7.75571721667975144152672",
        "13.60463675730371119725656"),
    "measure__fig1": (
        "-0.6826400090675952081426417", "7.798799063718920461585582",
        "13.87102043252816192604424"),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_ROOTS))
def test_roots_match_high_precision_reference(name):
    # the roots are found on P's secular form, whose gaps x*_j - x are
    # exact next to each outlier, so they stay exact to round-off even
    # where the outliers, and so the roots, crowd together; the
    # fixed-point residual then drops to round-off too
    model = parse_model(json.loads((CORPUS / f"{name}.json").read_text())["model"])
    rule, _ = sd.optimal_pred_rule(model)
    ref = np.array([float(v) for v in REFERENCE_ROOTS[name]])
    assert np.max(np.abs(np.array(rule.roots_of_p) / ref - 1.0)) <= 2e-15
    assert sd.fixed_point_residual(model, rule) <= 1e-13


@pytest.mark.parametrize("name", ["readme", "s1-006", "close-s9-553", "many-s14-0"])
def test_rule_matches_50_digit_q0_over_p0(name):
    # N/(K F) at every point of the grid, atoms included, against the
    # paper's Q0/P0 from the nu products at 50 digits, with the same float
    # b and the model's floats taken as exact. Q0 evaluated from its nu
    # products in floats erred by up to 2.1e-13 of max|f| on many-s14-0
    mpmath = pytest.importorskip("mpmath")
    model = parse_model(json.loads((CORPUS / f"optimal__{name}.json").read_text())["model"])
    rule, coef = sd.optimal_pred_rule(model)
    x = sd.get_grid(model).support_points
    with mpmath.workdps(50):
        mp = mpmath.mpf
        s0, c, r2 = mp(model.sigma0_sq), mp(model.c), mp(model.r) ** 2
        omegas = [mp(a) ** 2 / r2 for a in model.alphas]
        poles = [((mp(d) + s0) * (mp(d) + c * s0) / mp(d), mp(d) / (c * s0 * (mp(d) + s0)))
                 for d in model.deltas]

        def q0_over_p0(t):
            nus = [scale * (xstar - t) for xstar, scale in poles]
            nu = mpmath.fprod(nus)
            minus = [mpmath.fprod(nus[:j] + nus[j + 1:]) for j in range(len(nus))]
            q0 = coef.b[0] * nu + mpmath.fsum(b * m for b, m in zip(coef.b[1:], minus))
            mix = (1 - mpmath.fsum(omegas)) * nu + mpmath.fsum(
                om * m for om, m in zip(omegas, minus))
            return q0 / (s0 * (r2 * t * mix + c * mp(model.sigma_eps_sq) * nu))

        want = np.array([float(q0_over_p0(mp(t))) for t in x])
    assert np.max(np.abs(rule(x) - want)) <= 1e-14 * np.max(np.abs(want))


# Roots of P for the many-spike corpus models, computed once with mpmath at
# 60 digits from the models' float inputs (bisection on the factored P),
# rounded here to 25.
MANY_SPIKE_ROOTS = {
    "optimal__many-s16-2": (
        "-1.551651012022097691449512", "5.682797838680056628651704",
        "6.729045336006401255744273", "7.543139090138719078848729",
        "10.92990852682440125443305", "15.07919540734555506618542",
        "15.27896868295836626272815", "15.48821722923971643724415",
        "16.35433701102944281512759", "17.29800542513653408817585",
        "17.74206585901108908772809", "18.10565663027147922783668",
        "18.42440390106448023306649", "18.53243610183772321077278",
        "18.73947924947239198493097", "18.81668460484431075150086",
        "24.39747478437885125896348"),
    "optimal__many-s20-1": (
        "-0.8557455273663167882003201", "4.550706545896781786831888",
        "4.717377639085665937858235", "4.911299823489961157742229",
        "5.191095682935143430488659", "5.507830900519693347074833",
        "5.920276103112715744440647", "6.065845691184247710763886",
        "6.646338267675180675769199", "7.090844898077918103712919",
        "7.520201617813738998971634", "7.731582163145162781651518",
        "8.332337479487332159132344", "8.911701525492969441462495",
        "10.2195426963640408573823", "10.84444056864630780701499",
        "11.50941725956483669071258", "12.86775420685980736806732",
        "13.47436655612334114221411", "14.03148988162213205164092",
        "16.05948590542676522132648"),
}


@pytest.mark.parametrize("name", sorted(MANY_SPIKE_ROOTS))
def test_many_spike_roots_within_4_ulp(name):
    # the Newton slope is the secular form's own, exact to round-off: a
    # slope taken from monomial coefficients (8% off at s = 16) once
    # stopped the search early, leaving roots up to 5e-3 relative away
    model = parse_model(json.loads((CORPUS / f"{name}.json").read_text())["model"])
    rule, _ = sd.optimal_pred_rule(model)
    got = np.array(rule.roots_of_p)
    ref = np.array([float(v) for v in MANY_SPIKE_ROOTS[name]])
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


SECULAR_CONFIGS = sorted(p for command in ("optimal", "sd-params", "federated")
                         for p in CORPUS.glob(f"{command}__*.json"))


@pytest.mark.parametrize("path", SECULAR_CONFIGS, ids=lambda p: p.stem)
def test_secular_value_and_slope_match_p_over_nu(path):
    # F = P0 / (r^2 omega0 nu) with P0 = r^2 x (omega0 nu + sum_j omega_j
    # nu_{-j}) + c sigma_eps^2 nu: its value against P0 and nu from their
    # products (`oracles.nu_products`), its slope against a 50-digit
    # derivative of P0 / nu, at random points and next to each pole
    mpmath = pytest.importorskip("mpmath")
    model = parse_model(json.loads(path.read_text())["model"])
    secular, lam0, poles = sd.optimal._secular(model)
    rn, w = sd.rn_polynomials(model), sd.mixture_weights(model)
    r2, noise = model.r**2, model.c * model.sigma_eps_sq
    top = 2.0 * max([model.sigma0_sq, *rn.xstars])
    points = [*np.random.default_rng(0).uniform(-top, top, size=8).tolist(),
              *(xstar * (1.0 + e) for xstar in rn.xstars for e in (-1e-6, 1e-6))]
    for x in points:
        value, slope = secular(x)
        p0 = nu_products(rn, (r2 * w.omega0 * x + noise, *(r2 * om * x for om in w.omegas)),
                         np.float64(x))
        want = p0 / (r2 * w.omega0 * nu_products(rn, (1.0,) + (0.0,) * model.s, np.float64(x)))
        size = abs(x) + lam0 + sum(abs(x * b / (xstar - x)) for xstar, b in poles)
        assert abs(value - want) <= 1e-14 * size, x
        with mpmath.workdps(50):
            def f(t):
                factors = [mpmath.mpf(sc) * (mpmath.mpf(xstar) - t)
                           for sc, xstar in zip(rn.scales, rn.xstars)]
                nu = mpmath.fprod(factors)
                mix = w.omega0 * nu + mpmath.fsum(
                    om * mpmath.fprod(factors[:j] + factors[j + 1:])
                    for j, om in enumerate(w.omegas))
                return (r2 * t * mix + noise * nu) / (r2 * w.omega0 * nu)
            ref = float(mpmath.diff(f, mpmath.mpf(x)))
        assert abs(slope - ref) <= 1e-14 * abs(ref), x


def test_fixed_point_residual_many_spikes():
    # seeded models with s <= 20 whose outliers are at least 0.1% apart
    rng = np.random.default_rng(11)
    for s in (4, 8, 12, 16, 20):
        found = 0
        while found < 5:
            model = many_spike_model(rng, s)
            xs = np.sort([sd.outlier_location(model, d) for d in model.deltas])
            if np.min(np.diff(xs) / xs[1:]) < 1e-3:
                continue
            found += 1
            rule, _ = sd.optimal_pred_rule(model)
            assert sd.fixed_point_residual(model, rule) <= 1e-11, (s, model)


CLOSED_FORM_MODELS = sorted({
    path.stem: json.loads(path.read_text())["model"]
    for path in CORPUS.glob("*.json")
    if path.stem.split("__")[0] not in ("simulate", "sweep")}.items())


def test_scaled_model_gives_exactly_scaled_roots():
    # covariance scale k: sigma0^2 and every delta times k, r and every
    # alpha over sqrt(k); F's lambda0, b_j and poles scale by k, so its
    # roots do too, bit for bit, far past where the nu products of P
    # (which scale like k^s) leave the double range
    seen = set()
    for name, block in CLOSED_FORM_MODELS:
        model = parse_model(block)
        if model in seen or model.sigma_eps_sq == 0.0:
            continue
        seen.add(model)
        roots = sd.denominator_roots(model)
        for k in (2.0**60, 2.0**-60, 2.0**120, 2.0**-120):
            root = math.sqrt(k)
            scaled = SpikedModel(model.sigma0_sq * k, model.c,
                                 tuple((d * k, a / root) for d, a in model.spikes),
                                 model.r / root, model.sigma_eps_sq)
            assert sd.denominator_roots(scaled) == tuple(g * k for g in roots), (name, k)
    assert len(seen) >= 70


def test_root_within_an_ulp_of_the_last_outlier_is_that_outlier():
    # at delta = 2^70 the bracket (x*, x* + b) past the outlier holds no
    # float (b = 5.2, ulp(x*) = 2^18), and F is not evaluated at its pole
    model = SpikedModel(1.0, 2.0, ((2.0**70, 0.5),), 2.0, 1.0)
    xstar = sd.outlier_location(model, 2.0**70)
    _, lam0, [(_, b)] = sd.optimal._secular(model)
    assert xstar + b == xstar
    assert sd.denominator_roots(model) == (-lam0, xstar)


def test_underflowing_pole_weight_is_numerical_failure():
    # b_1 = omega_1 / (omega0 scale_1) = 1e-300 / 1e180 underflows to 0, so
    # F loses its pole at x*_1 and the sign change next to it
    model = SpikedModel(1e-150, 1e-30, ((1.0, 1e-150),), 1.0, 1.0)
    with pytest.raises(NumericalError, match="pole weight underflows to zero"):
        sd.denominator_roots(model)


def test_solve_matches_lapack_on_every_closed_form_corpus_model():
    # the fixed-order elimination gives LAPACK's b to round-off, for the
    # optimum's D and for a federated D_K, on models with up to 20 spikes
    seen = set()
    for name, block in CLOSED_FORM_MODELS:
        model = parse_model(block)
        if model in seen:
            continue
        seen.add(model)
        gs = sd.gram_system(model)
        for dmat in (np.array([0.0, *(d * a * a for d, a in model.spikes)]),
                     sd.federated._dk_diag(model, 3)):
            got = sd.optimal._solve_system(model, dmat)
            want = np.linalg.solve(np.eye(model.s + 1) + dmat[:, None] * gs.H,
                                   gs.gamma)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), name
    assert max(model.s for model in seen) == 20


def test_gauss_solve_swaps_rows_for_the_largest_pivot():
    # without the swap, the 1e-20 pivot gives x_0 = 0; the 3x3 system's
    # first pivot is not the largest in its column either, and its
    # solution (1, -2, 3) is exact in floats
    gauss_solve = sd.optimal._gauss_solve
    assert gauss_solve([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0]) == [1.0, 1.0]
    A = [[1.0, 2.0, 1.0], [4.0, 1.0, -2.0], [-2.0, 8.0, 1.0]]
    assert gauss_solve(A, [0.0, -4.0, -15.0]) == [1.0, -2.0, 3.0]


def test_each_xi_is_the_correctly_rounded_peel():
    # each xi is the 60-digit peel of the rule's float roots and residues,
    # rounded once; the peel order is the chain's stages from the last one
    # back. A forward substitution in double-double arithmetic was off by
    # up to 3.2 ulp (many-s20-1)
    mpmath = pytest.importorskip("mpmath")
    seen = set()
    for name, block in CLOSED_FORM_MODELS:
        model = parse_model(block)
        if model in seen or model.sigma_eps_sq == 0.0 or (
                model.s > 4 and "many-s" not in name):
            continue
        seen.add(model)
        rule = sd.optimal_pred_rule(model)[0]
        params = sd.synthesize_sd_params(rule)
        with mpmath.workdps(60):
            left = dict(zip(map(mpmath.mpf, rule.roots_of_p),
                            map(mpmath.mpf, rule.residues())))
            want = []
            for lam in reversed(params.lambdas[1:]):
                g = mpmath.mpf(-lam)
                del left[g]
                terms = {k: rho * (1 - g / k) for k, rho in left.items()}
                xi = mpmath.fsum(terms.values())
                left = {k: t / xi for k, t in terms.items()}
                want.append(float(xi))
        assert params.xis == tuple(reversed(want)), name
    assert len(seen) >= 50 and max(model.s for model in seen) == 20


def test_root_that_cancels_its_xi_is_passed_over():
    # 1 + gamma f(0) = 0 at gamma = -1, so the last stage cannot sit at the
    # smallest root: the peel takes 2 there, then -1, and leaves 3 for
    # stage 0
    roots, rhos = (-1.0, 2.0, 3.0), (1.0375, 0.3, -0.3375)
    poly = np.polynomial.polynomial
    q = sum(rho * poly.polyfromroots([g for g in roots if g != root])
            for root, rho in zip(roots, rhos))
    rule = monomial_rational_rule(roots, q)
    params = sd.synthesize_sd_params(rule)
    assert params.lambdas == (-3.0, 1.0, -2.0)
    # no point within 0.01 of the poles 2 and 3, next to which both sides
    # lose digits to the cancellation of their own terms
    x = np.linspace(0.1, 10.0, 64)
    assert np.max(np.abs(sd.SDChain(params)(x) - rule(x))) <= 1e-10


def test_root_at_zero_is_numerical_failure():
    # the residue there is nan and the peel would divide by the root
    rule = monomial_rational_rule((0.0, 2.0), [1.0, 1.0])
    with pytest.raises(NumericalError, match="root at 0"):
        sd.synthesize_sd_params(rule)
