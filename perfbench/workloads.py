"""Seeded inputs and per-op output checks for the three benchmark workloads.

Every op of every workload runs one `spectral-distill` subcommand on a
config file written here before timing starts. Models are drawn from a
numpy Generator seeded with the benchmark seed, so the same seed gives
byte-identical config files. Nothing here imports the program: the
generator keeps away from the model's excluded degeneracies by itself
(the program would reject an invalid model with exit code 2 or 3, and the
op would count as failed).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("closed_form", "rule_scan", "montecarlo")

# Configs written per run. Ops cycle through the pool when a run outlasts
# it; every pool is larger than the program's 128-entry grid cache, so a
# wrap-around still misses that cache.
POOL_SIZE = {"closed_form": 2000, "rule_scan": 1200, "montecarlo": 400}

CLOSED_FORM_COMMANDS = ("optimal", "sd-params", "federated")
FEDERATED_K = (2, 5, 10)

# rule_scan: one fixed family of smooth rules (no PCR taus: their panel
# grid build would hide the risk kernel this workload is about).
RIDGE_LAMBDAS = {"min": 1e-3, "max": 1e3, "num": 100, "spacing": "log"}
GD_ETAS = (0.01, 0.1)
GD_STEPS = (10, 100, 1000)
RULE_FAMILY = (
    {"kind": "ridge", "lambdas": RIDGE_LAMBDAS},
    {"kind": "gd", "etas": list(GD_ETAS), "steps": list(GD_STEPS)},
    {"kind": "optimal_pred"},
    {"kind": "optimal_est"},
    {"kind": "min_norm"},
)
RULE_ROWS = RIDGE_LAMBDAS["num"] + len(GD_ETAS) * len(GD_STEPS) + 3

MC_N = 500
MC_REPLICATES = 4
MC_WARMUP_N = 100
# c = p/n is stratified over MC_STRATA bins of MC_C_RANGE, taken from the
# top down (op 0 has the largest c), so every run, however few ops it
# completes, sees the same spread of problem sizes (an op's cost grows
# with p = n c).
MC_C_RANGE = (1.5, 3.0)
MC_STRATA = 8


def mc_estimators(n: int) -> list[str]:
    return ["ridge_tuned", "sd_optimal", "pcr:1", f"pcr:{n // 2}", "minnorm",
            "gd:0.05:100"]


# Smallest relative spacing of the outlier locations x*(delta_j): a little
# wider than the 1e-9 at which the program refuses coinciding outliers as
# a degeneracy, and no more, so that close outliers are drawn. At s = 4
# and spacings below about 0.5%, the chain synthesis (monomial-basis P and
# Q) can miss the 1e-9 round-trip tolerance; such an op fails its check.
OUTLIER_GAP = 1e-6

# Peak RSS is read in the timed process once it has run this many ops (or
# at the end of the loop if it runs fewer), so that the figure does not
# grow with the op rate: the program's grid cache keeps up to 128 grids.
# On montecarlo that is one round of the c strata; on the second round
# glibc's heap sometimes grows by another 10 MB and sometimes not.
RSS_OPS = {"closed_form": 400, "rule_scan": 200, "montecarlo": 8}

# A traced run repeats each block of this many ops untraced and traced,
# with the grid cache cleared before each pass, to measure the overhead
# of tracing on the same ops.
TRACE_BLOCK = {"closed_form": 12, "rule_scan": 2, "montecarlo": 1}

# Acceptance tolerances of the closed-form self checks.
ROUND_TRIP_TOL = 1e-9
FIXED_POINT_TOL = 1e-8


# ---------------------------------------------------------------------------
# model generator


@dataclass
class Draws:
    """Seeded model stream; counts the candidate draws it rejected."""

    rng: np.random.Generator
    rejected: int = 0

    def model(self, s_range, c_range, *, above_bbp=False,
              top_eig_max=None) -> dict:
        """One valid spiked model as a config `model` block.

        Kept away from: c near 1 (bulk edge at zero), spikes near the
        detachment point sqrt(c) sigma0^2, nearly equal spikes, spike
        pairs whose outliers coincide (delta_i delta_j = c sigma0^4) or
        sit within OUTLIER_GAP of each other, and signal inside the
        spike span. `top_eig_max` bounds the largest point of the limiting
        spectrum (bulk edge or outlier).
        """
        rng = self.rng
        while True:
            s = int(rng.integers(s_range[0], s_range[1] + 1))
            sigma0_sq = float(rng.uniform(0.5, 2.0))
            c = float(rng.uniform(*c_range))
            thr = math.sqrt(c) * sigma0_sq
            prod = c * sigma0_sq**2
            lo = 1.3 * thr if above_bbp else 0.3
            deltas = [float(rng.uniform(lo, max(8.0, 2.5 * thr)))
                      for _ in range(s)]
            r = float(rng.uniform(1.0, 5.0))
            share = float(rng.uniform(0.3, 0.8))
            weights = rng.uniform(0.2, 1.0, size=s)
            signs = rng.choice([-1.0, 1.0], size=s)
            sigma_eps_sq = float(rng.uniform(0.25, 4.0))
            if not self._valid(c, thr, prod, deltas, sigma0_sq, top_eig_max):
                self.rejected += 1
                continue
            alphas = weights * math.sqrt(share) * r / float(np.linalg.norm(weights)) \
                if s else weights
            return {
                "sigma0_sq": sigma0_sq, "c": c, "r": r,
                "sigma_eps_sq": sigma_eps_sq,
                "spikes": [{"delta": deltas[j], "alpha": float(alphas[j] * signs[j])}
                           for j in range(s)],
            }

    @staticmethod
    def _valid(c, thr, prod, deltas, sigma0_sq, top_eig_max) -> bool:
        if abs(c - 1.0) < 0.05:
            return False
        for i, di in enumerate(deltas):
            if abs(di - thr) < 0.05 * max(1.0, thr):
                return False
            for dj in deltas[i:]:
                if abs(di * dj - prod) < 0.05 * max(1.0, prod):
                    return False
            for dj in deltas[i + 1:]:
                if abs(di - dj) < 0.15:
                    return False
        xstar = {d: (d + sigma0_sq) * (d + c * sigma0_sq) / d for d in deltas}
        xs = sorted(xstar.values())
        for lo, hi in zip(xs[:-1], xs[1:]):
            if hi - lo < OUTLIER_GAP * hi:
                return False
        if top_eig_max is not None:
            bulk_edge = sigma0_sq * (1.0 + math.sqrt(c)) ** 2
            if max([bulk_edge] + [xstar[d] for d in deltas if d > thr]) >= top_eig_max:
                return False
        return True


# ---------------------------------------------------------------------------
# per-workload ops


@dataclass
class Op:
    """One CLI invocation: argv without --config/--out, and its config."""

    command: str
    config: dict
    meta: dict = field(default_factory=dict)


def closed_form_op(draws: Draws, i: int) -> Op:
    model = draws.model((1, 4), (0.3, 4.0))
    command = CLOSED_FORM_COMMANDS[i % len(CLOSED_FORM_COMMANDS)]
    block = {"optimal": ("optimal", {}), "sd-params": ("sd_params", {}),
             "federated": ("federated",
                           {"K": int(draws.rng.choice(FEDERATED_K))})}[command]
    return Op(command, {"model": model, block[0]: block[1]})


def rule_scan_op(draws: Draws, i: int) -> Op:
    # gd with eta = 0.1 stays convergent only while eta * x_max < 2.
    model = draws.model((1, 3), (0.3, 4.0),
                        top_eig_max=1.8 / max(GD_ETAS))
    return Op("risk", {"model": model, "risk": {"rules": list(RULE_FAMILY)}})


def montecarlo_op(draws: Draws, i: int, n: int = MC_N) -> Op:
    width = (MC_C_RANGE[1] - MC_C_RANGE[0]) / MC_STRATA
    lo = MC_C_RANGE[1] - width * (1 + i % MC_STRATA)
    model = draws.model((1, 2), (lo, lo + width), above_bbp=True)
    p = round(n * model["c"])
    model["c"] = p / n  # the simulator wants p/n = c exactly
    sim = {"n": n, "p": p, "seed": int(draws.rng.integers(0, 2**31)),
           "n_replicates": MC_REPLICATES, "estimators": mc_estimators(n)}
    return Op("simulate", {"model": model, "simulate": sim},
              {"n": n, "p": p, "replicates": MC_REPLICATES})


def make_ops(workload: str, seed: int, count: int | None = None):
    """(warm-up op, pool of ops, rejected draws) for one workload and seed.

    The warm-up op comes from its own stream so it never repeats a timed
    model; the montecarlo warm-up is a smaller problem on the same paths.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    count = POOL_SIZE[workload] if count is None else count
    make = {"closed_form": closed_form_op, "rule_scan": rule_scan_op,
            "montecarlo": montecarlo_op}[workload]
    draws = Draws(np.random.default_rng([seed, 0]))
    ops = [make(draws, i) for i in range(count)]
    warm_draws = Draws(np.random.default_rng([seed, 1]))
    warm = (montecarlo_op(warm_draws, 0, MC_WARMUP_N)
            if workload == "montecarlo" else make(warm_draws, 0))
    return warm, ops, draws.rejected + warm_draws.rejected


def write_config(path: str, op: Op):
    with open(path, "w") as fh:
        json.dump(op.config, fh)


# ---------------------------------------------------------------------------
# output checks


def config_hash(config: dict) -> str:
    """sha256 of the resolved config, as the CLI writes it into outputs."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class CheckError(ValueError):
    """A failed output check; `diag` keeps the diagnostics read before it failed."""

    def __init__(self, msg: str, diag: dict | None = None):
        super().__init__(msg)
        self.diag = diag


def _finite_positive(v, what):
    if not (math.isfinite(v) and v > 0):
        raise CheckError(f"{what} = {v} is not finite and positive")


def _read_csv(text: str):
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return comments, rows


def check_output(op: Op, text: str) -> dict:
    """Validate one op's output; return its diagnostics or raise CheckError.

    Closed-form outputs must pass their self checks at the acceptance
    tolerances; risk outputs must show the optimal rules dominating the
    rest of the family; simulate outputs must have finite, positive limits
    and empirical means. The Monte Carlo gap itself is not checked: at
    n = 500 one replicate can land near a pole of the optimal rule.
    """
    try:
        return _check(op, text)
    except CheckError:
        raise
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None


def _check(op: Op, text: str) -> dict:
    want = config_hash(op.config)
    if op.command in CLOSED_FORM_COMMANDS:
        payload = json.loads(text)
        if payload.get("config") != want:
            raise CheckError("config hash does not match the config")
        return _check_closed_form(op, payload)
    comments, rows = _read_csv(text)
    if not comments or comments[0] != f"# config={want}":
        raise CheckError("config hash does not match the config")
    if op.command == "risk":
        return _check_risk(rows)
    return _check_simulate(op, rows)


def _check_closed_form(op: Op, payload: dict) -> dict:
    s = len(op.config["model"]["spikes"])
    fixed_point = None
    if op.command == "sd-params":
        round_trip = payload["round_trip_sup_error"]
        lambdas, xis = payload["lambdas"], payload["xis"]
    else:
        round_trip = payload["self_check"]["round_trip_sup_error"]
        lambdas = payload["sd_params"]["lambdas"]
        xis = payload["sd_params"]["xis"]
        for name, v in payload["risks"].items():
            _finite_positive(v, f"risks.{name}")
    if op.command == "optimal":
        fixed_point = payload["self_check"]["fixed_point_residual"]
    diag = {"round_trip": round_trip, "fixed_point": fixed_point}
    if fixed_point is not None and not fixed_point <= FIXED_POINT_TOL:
        raise CheckError(f"fixed-point residual {fixed_point} > {FIXED_POINT_TOL}",
                         diag)
    if len(lambdas) != s + 1 or len(xis) != s:
        raise CheckError(f"chain length does not match s = {s}")
    if not round_trip <= ROUND_TRIP_TOL:
        raise CheckError(f"round-trip error {round_trip} > {ROUND_TRIP_TOL}", diag)
    return diag


def _check_risk(rows) -> dict:
    if len(rows) != RULE_ROWS:
        raise CheckError(f"expected {RULE_ROWS} rule rows, got {len(rows)}")
    pred = [float(r["pred_total"]) for r in rows]
    est = [float(r["est_total"]) for r in rows]
    for v in pred + est:
        _finite_positive(v, "risk total")
    labels = [r["rule"] for r in rows]
    for label, totals in (("optimal_pred", pred), ("optimal_est", est)):
        i = labels.index(label)
        others = totals[:i] + totals[i + 1:]
        if not totals[i] < min(others):
            raise CheckError(f"{label} ({totals[i]}) does not have the lowest "
                             f"total (min of the rest {min(others)})")
    return {}


def _check_simulate(op: Op, rows) -> dict:
    labels = [r["estimator"] for r in rows]
    if labels != op.config["simulate"]["estimators"]:
        raise CheckError(f"estimator rows {labels} do not match the config")
    for r in rows:
        _finite_positive(float(r["limit"]), f"{r['estimator']} limit")
        _finite_positive(float(r["empirical_mean"]),
                         f"{r['estimator']} empirical_mean")
    gap = next(float(r["relative_gap"]) for r in rows
               if r["estimator"] == "sd_optimal")
    return {"sd_gap": gap}
