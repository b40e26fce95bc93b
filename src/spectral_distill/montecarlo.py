"""Finite-sample simulator and convergence harness.

Generates spiked-model data and fits every estimator with a limiting-risk
formula as a function of the sample spectrum. A replicate is split at the
Gram matrix: `sample_gram` forms, in one step, everything the fits and
risks read from the n x p design (the Gram, the data term of y and the
images of beta0 and V), the design is released, and `decompose`
eigensolves without it. The `SampleSpectrum` so holds only arrays of size
min(n, p); `fit_coords` gives a fit's coordinates in its eigenbasis (no
p x n eigenvector matrix and no p x p covariance is ever materialized),
and a caller that holds the design lifts them to p coefficients.
`decompose` decides the null directions, `shrinkage.eval_shrinkage`
decides a rule's values, and so ("pcr", min(n, p)) equals ("minnorm",).
Exact Sigma-norm risks are computed from those coordinates through the
spike decomposition, and `harness_suite` compares replicate averages
against asymptotic targets.

Randomness uses counter-based Philox streams keyed by
(seed, replicate, role[, client]) so replicates and clients are
independent and bit-reproducible in whatever order they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optimal, shrinkage
from .shrinkage import GDPoly, Ridge, SDParams, ShrinkageFn, eval_shrinkage
from .spectra import SpikedModel

_ROLE_IDS = {"signal": 0, "design": 1, "noise": 2}

_ENTRY_DISTS = ("gaussian", "rademacher", "student_t")

#: rows per block of `gen_data`'s rank-s update and of the Rademacher
#: draw, whose temporaries so stay a small fraction of the design
_UPDATE_ROWS = 64


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo setting.

    Fields
    ------
    model        : the spiked model whose data are drawn
    n, p         : sample size and dimension (p > s; p/n = c within 4 ulps)
    seed         : entropy of every Philox stream (see `_rng`)
    entry_dist   : law of the design entries, one of _ENTRY_DISTS
    n_replicates : independent datasets per harness run
    student_df   : degrees of freedom of student_t entries (> 8)

    The spike directions are drawn afresh per replicate, uniformly
    orthonormal, from the replicate's signal stream.
    """

    model: SpikedModel
    n: int
    p: int
    seed: int
    entry_dist: str = "gaussian"
    n_replicates: int = 1
    student_df: float = 10.0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be positive")
        if self.entry_dist not in _ENTRY_DISTS:
            raise ValueError(f"entry_dist must be one of {_ENTRY_DISTS}")
        if not math.isfinite(self.student_df):
            raise ValueError("student_df must be finite")
        if self.entry_dist == "student_t" and not self.student_df > 8:
            raise ValueError(
                "student_t entries need df > 8 to satisfy the 8+eta moment condition"
            )
        if self.p <= self.model.s:
            raise ValueError(
                "p must exceed the number of spikes: the signal needs a "
                "direction outside their span"
            )
        ratio, c = self.p / self.n, self.model.c
        if abs(ratio - c) > 4 * math.ulp(c):
            raise ValueError(f"p/n = {self.p}/{self.n} = {ratio!r} is not the "
                             f"model's c = {c!r}: its limits hold at c = p/n")


def _rng(seed: int, replicate: int, role: str, client: int | None = None):
    key = (replicate, _ROLE_IDS[role])
    if client is not None:
        key = key + (client,)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _draw_entries(rng, shape, dist, df):
    if dist == "gaussian":
        return rng.standard_normal(shape)
    if dist == "rademacher":
        # the bit generator keeps the unused half of a 64-bit word between
        # calls, so row blocks draw the same entries as one call would
        out = np.empty(shape)
        for i in range(0, shape[0], _UPDATE_ROWS):
            block = out[i:i + _UPDATE_ROWS]
            block[...] = rng.integers(0, 2, size=block.shape)
        out *= 2.0
        out -= 1.0
        return out
    # unit-variance student t
    return rng.standard_t(df, size=shape) / math.sqrt(df / (df - 2.0))


def _signal(cfg: SimConfig, replicate: int):
    """Spike directions V (p x s) and beta0 with exact norm and alignments."""
    model, p, s = cfg.model, cfg.p, cfg.model.s
    rng = _rng(cfg.seed, replicate, "signal")
    if s > 0:
        G = rng.standard_normal((p, s))
        Q, R = np.linalg.qr(G)
        V = Q * np.sign(np.diag(R))  # deterministic sign convention
    else:
        V = np.zeros((p, 0))
    g = rng.standard_normal(p)
    if s > 0:
        g = g - V @ (V.T @ g)
    norm = np.linalg.norm(g)
    if norm == 0:  # pragma: no cover - probability zero
        raise RuntimeError("degenerate residual direction draw")
    resid = math.sqrt(model.r**2 - float(np.sum(model.alphas**2)))
    beta0 = (resid / norm) * g
    if s > 0:
        beta0 = beta0 + V @ model.alphas
    return beta0, V


def gen_data(cfg: SimConfig, replicate: int = 0, client: int | None = None,
             signal: tuple[np.ndarray, np.ndarray] | None = None):
    """One dataset (X, y, beta0, V).

    X = Z Sigma^{1/2} applied through the spike identity
    Sigma^{1/2} = sigma0 I + sum_j (sqrt(delta_j + sigma0^2) - sigma0) v_j v_j',
    as an in-place rank-s update of sigma0 Z, a block of rows at a time;
    beta0 satisfies ||beta0|| = r and beta0'v_j = alpha_j exactly, with the
    remainder drawn uniformly in the orthocomplement of span(v_j).
    The signal (beta0, V) comes from cfg's signal stream unless given:
    clients that share a population pass the first client's signal.
    """
    model = cfg.model
    beta0, V = _signal(cfg, replicate) if signal is None else signal
    rng_x = _rng(cfg.seed, replicate, "design", client)
    X = _draw_entries(rng_x, (cfg.n, cfg.p), cfg.entry_dist, cfg.student_df)
    sigma0 = math.sqrt(model.sigma0_sq)
    ZV = X @ V
    X *= sigma0
    if model.s:
        A = ZV * (np.sqrt(model.deltas + model.sigma0_sq) - sigma0)
        for i in range(0, cfg.n, _UPDATE_ROWS):
            X[i:i + _UPDATE_ROWS] += A[i:i + _UPDATE_ROWS] @ V.T
    rng_e = _rng(cfg.seed, replicate, "noise", client)
    eps = rng_e.standard_normal(cfg.n) * math.sqrt(model.sigma_eps_sq)
    y = X @ beta0 + eps
    return X, y, beta0, V


@dataclass
class SampleGram:
    """What a `SampleSpectrum` reads from a design X (see `sample_gram`)."""

    G: np.ndarray  # X X'/n when p > n, else X'X/n
    data: np.ndarray | None  # y when p > n, else X'y; None without y
    signal: np.ndarray | None  # X [beta0 V] when p > n, else [beta0 V]
    n: int
    p: int


def sample_gram(X: np.ndarray, y: np.ndarray | None = None,
                signal: tuple[np.ndarray, np.ndarray] | None = None
                ) -> SampleGram:
    """Everything `decompose` and the fits and risks read from X.

    With it formed, X can be released before the eigensolve, which then
    works on min(n, p)-sized arrays only. `signal` = (beta0, V) adds the
    images that give their sample-eigenbasis coordinates.
    """
    n, p = X.shape
    block = None if signal is None else np.column_stack(signal)
    if p <= n:
        G = X.T @ X
        G /= n
        return SampleGram(G, None if y is None else X.T @ y, block, n, p)
    G = X @ X.T
    G /= n
    return SampleGram(G, y, None if block is None else X @ block, n, p)


@dataclass
class SampleSpectrum:
    """Thin eigendecomposition of Sigma_hat = X'X/n, without X.

    Only the k <= min(n, p) eigenpairs that `decompose` keeps are held.
    On the other p - k directions Sigma_hat is taken as zero (at least
    p - n of them, when p > n, are the null space of X, which X'y never
    reaches), and no fit has a component there. Fits live in the
    coordinates of the kept eigenvectors W (p x k), which is never formed
    when p > n: there W = X'U / sqrt(n d) for the eigenvectors U of
    X X'/n. Every array is k-sized or min(n, p) x k, so `project` and
    `lift`, the maps between p-space and the coordinates, take X from the
    caller.
    """

    d: np.ndarray
    z: np.ndarray  # W' X'y / n
    n: int
    p: int
    U: np.ndarray  # eigenvectors of X X'/n (p > n) or of X'X/n (p <= n)
    scale: np.ndarray | None = None  # 1/sqrt(n d) when p > n, else None
    signal: np.ndarray | None = None  # W'[beta0 V], if the Gram had them

    def _check_design(self, X: np.ndarray):
        if X.shape != (self.n, self.p):
            raise ValueError(f"X must be the {self.n} x {self.p} design of "
                             "this spectrum")

    def project(self, v: np.ndarray, X: np.ndarray) -> np.ndarray:
        """W'v for a p-vector or a p x m matrix v; X is the design."""
        self._check_design(X)
        if self.scale is None:
            return self.U.T @ v
        scale = self.scale if np.ndim(v) == 1 else self.scale[:, None]
        return (self.U.T @ (X @ v)) * scale

    def lift(self, c: np.ndarray, X: np.ndarray) -> np.ndarray:
        """W c: the p-vector with sample-eigenbasis coordinates c."""
        self._check_design(X)
        if self.scale is None:
            return self.U @ c
        return X.T @ (self.U @ (c * self.scale))


def decompose(gram: SampleGram) -> SampleSpectrum:
    """Eigendecompose the Gram of `sample_gram`; the design is not needed.

    The one place that decides the null directions of Sigma_hat: an
    eigenvalue at or below 1e-12 times the largest is taken as zero and
    its direction dropped, for p > n and p <= n alike.
    """
    n, p = gram.n, gram.p
    d, U = np.linalg.eigh(gram.G)
    # eigh returns a zero eigenvalue of the m x m Gram, m = min(n, p), as
    # round-off of either sign and at most about m eps d_max: below
    # 1e-12 d_max for m up to about 4,500, and far below the smallest
    # eigenvalue of a full-rank design. The eigenvalues ascend, so the
    # kept ones are a suffix and U keeps its columns as a view.
    first = int(np.searchsorted(d, max(d[-1], 0.0) * 1e-12, side="right"))
    d, U = d[first:], U[:, first:]
    data, signal = gram.data, gram.signal
    if p <= n:
        z = U.T @ data / n if data is not None else np.zeros_like(d)
        signal = None if signal is None else U.T @ signal
        return SampleSpectrum(d, z, n, p, U, None, signal)
    # Gram trick: W = X'U / sqrt(n d)
    scale = 1.0 / np.sqrt(n * d)
    z = np.sqrt(d / n) * (U.T @ data) if data is not None else np.zeros_like(d)
    signal = None if signal is None else (U.T @ signal) * scale[:, None]
    return SampleSpectrum(d, z, n, p, U, scale, signal)


def fit_coords(spectrum: SampleSpectrum, est) -> np.ndarray:
    """Coordinates c of a fit in the sample eigenbasis (the fit is
    `spectrum.lift(c, X)`) for a ShrinkageFn f (f(Sigma_hat) X'y/n; gradient
    descent is the rule GDPoly(eta, steps)), SDParams (the self-distillation
    recursion), ("pcr", m) or ("minnorm",). The last two, least squares on
    the top m sample principal components and the min-norm interpolator
    (OLS when n > p), depend on n and so are not limiting-spectrum rules.

    Every kept eigenvalue is nonzero (`decompose` drops the null
    directions) and every rule value comes from `eval_shrinkage`, so PCR
    keeping all min(n, p) components is the min-norm fit.
    """
    d, z = spectrum.d, spectrum.z
    if isinstance(est, ShrinkageFn):
        return eval_shrinkage(est, d) * z
    if isinstance(est, SDParams):
        # stage t applies the ridge rule of lambda_t to the blend of the
        # data term and the last stage's predictions
        coords = eval_shrinkage(Ridge(est.lambdas[0]), d) * z
        for lam, xi in zip(est.lambdas[1:], est.xis):
            coords = eval_shrinkage(Ridge(lam), d) * ((1.0 - xi) * z + xi * d * coords)
        return coords
    kind = est[0] if isinstance(est, tuple) and est else None
    if kind == "pcr":
        m, k = est[1], min(spectrum.n, spectrum.p)
        if not 1 <= m <= k:
            raise ValueError(f"m must be in 1..min(n, p) = {k}")
        order = np.argsort(d)[::-1][:m]
        coords = np.zeros_like(d)
        coords[order] = z[order] / d[order]
        return coords
    if kind == "minnorm":
        return z / d
    raise ValueError(f"unrecognized estimator spec: {est!r}")


def _rule(model: SpikedModel, rule):  # a rule fitted as itself
    return rule, shrinkage.limiting_pred_risk(model, rule).total


def _ridge_tuned(model, n, p):
    lam, total = shrinkage.best_ridge(model)
    return Ridge(lam), total


def _sd_optimal(model, n, p):
    rule, _ = optimal.optimal_pred_rule(model)
    return optimal.synthesize_sd_params(rule), _rule(model, rule)[1]


def _pcr(model, n, p, m):
    if m == min(n, p):  # every nonzero direction: the min-norm fit
        target = _rule(model, shrinkage.min_norm_rule(model))[1]
    elif m <= int(np.sum(model.deltas > model.bbp_threshold)):
        target = shrinkage.pcr_component_limit_risk(model, m).total
    else:
        target = shrinkage.pcr_sharp_pred_risk(model, m / p).total
    return ("pcr", m), target


#: estimator kind -> ((name, type) of each field of its label, function of
#: (model, n, p, *fields) giving the spec that `fit_coords` fits on n x p data
#: of the model and the limit of its prediction risk); only pcr reads n and p
ESTIMATORS = {
    "ridge": ((("lambda", float),), lambda model, n, p, lam: _rule(model, Ridge(lam))),
    "ridge_tuned": ((), _ridge_tuned),
    "sd_optimal": ((), _sd_optimal),
    "pcr": ((("m", int),), _pcr),
    "minnorm": ((), lambda model, n, p: (
        ("minnorm",), _rule(model, shrinkage.min_norm_rule(model))[1])),
    "gd": ((("eta", float), ("steps", int)),
           lambda model, n, p, eta, steps: _rule(model, GDPoly(eta, steps))),
}


def sigma_risk(beta_hat, beta0, model: SpikedModel, V) -> float:
    """Exact ||beta_hat - beta0||_Sigma^2 through the spike decomposition."""
    d = np.asarray(beta_hat, dtype=float) - np.asarray(beta0, dtype=float)
    if d.shape != np.asarray(beta0).shape:
        raise ValueError("beta_hat and beta0 must have matching shapes")
    total = model.sigma0_sq * float(d @ d)
    for j in range(model.s):
        total += model.deltas[j] * float(V[:, j] @ d) ** 2
    return total


def coordinate_risk(spectrum: SampleSpectrum, beta0, model: SpikedModel, V):
    """sigma_risk of fits on `spectrum`, as a function of their coordinates.

    Reads b = W'beta0 and the spike projections W'v_j from the spectrum,
    which must have been formed with the signal (beta0, V): a fit W c has
    risk sigma0^2 (||c - b||^2 + ||beta0||^2 - ||b||^2)
    + sum_j delta_j (c'W'v_j - v_j'beta0)^2, so no p-vector is formed.
    """
    if spectrum.signal is None:
        raise ValueError("the spectrum was formed without the signal (beta0, V)")
    b, WV = spectrum.signal[:, 0], spectrum.signal[:, 1:]
    outside = float(beta0 @ beta0) - float(b @ b)
    alphas = V.T @ beta0

    def risk(coords: np.ndarray) -> float:
        e = coords - b
        spikes = float(model.deltas @ (coords @ WV - alphas) ** 2)
        return model.sigma0_sq * (float(e @ e) + outside) + spikes

    return risk


@dataclass(frozen=True)
class HarnessReport:
    empirical_mean: float
    std_error: float
    target: float
    relative_gap: float
    n_replicates: int
    values: tuple[float, ...]


def _replicate_risks(cfg: SimConfig, estimators: dict, replicate: int) -> dict:
    X, y, beta0, V = gen_data(cfg, replicate)
    gram = sample_gram(X, y, (beta0, V))
    del X  # the eigensolve runs without the design
    sp = decompose(gram)
    risk = coordinate_risk(sp, beta0, cfg.model, V)
    return {name: risk(fit_coords(sp, est)) for name, est in estimators.items()}


def harness_suite(cfg: SimConfig, estimators: dict, targets: dict
                  ) -> dict[str, HarnessReport]:
    """Replicate-averaged empirical risk of each estimator against its
    asymptotic target, keyed like `estimators` and `targets`.

    Every estimator spec that `fit_coords` takes is fitted on each
    replicate's shared data. Replicates run one after another. On 2 cores,
    a 4-replicate simulate run at n = 500 took 218 ms so, and 341 ms with
    two replicates at once, at 2 BLAS threads; at 1 BLAS thread two at
    once took 158 ms, but peak RSS rose from 54 to 68 MB (see the README).
    """
    rows = [_replicate_risks(cfg, estimators, r) for r in range(cfg.n_replicates)]
    out = {}
    for name in estimators:
        vals = np.array([row[name] for row in rows])
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        target = float(targets[name])
        gap = abs(mean - target) / abs(target) if target != 0 else math.inf
        out[name] = HarnessReport(mean, se, target, gap, len(vals), tuple(vals))
    return out
