"""Optimal local shrinkage and aggregation for K clients.

With K independent clients sharing the same population, the optimal
aggregation weights are all equal to rho* = b0^(K) / (sigma0^2 r^2 omega0),
every client uses the same local rule, and the product rho* * (local rule)
solves the K-client system (I + D_K H) b = gamma with

    D_K = diag(sigma0^2 r^2 omega0 (K-1),
               ((K-1) sigma0^2 + K delta_j) alpha_j^2, ...).

The limiting aggregated risk of arbitrary (rule, weight) choices expands
in the same weighted inner products, with cross-client product terms.
The high-noise limit of b0^(K) and the product-form limit of cross-matrix
quadratic forms, which the tests check this against, are in
`tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures, optimal
from .errors import AssumptionError
from .shrinkage import RationalRule, SDParams, ShrinkageFn, validate_rule
from .spectra import SpikedModel, fsum


@dataclass(frozen=True)
class FederatedOptimum:
    K: int
    b: tuple[float, ...]
    rho_star: float
    local_rule: RationalRule
    sd_params: SDParams


def _dk_diag(model: SpikedModel, K: int) -> np.ndarray:
    w = measures.mixture_weights(model)
    s0sq = model.sigma0_sq
    head = s0sq * model.r**2 * w.omega0 * (K - 1)
    tail = [
        ((K - 1) * s0sq + K * d) * a * a for d, a in model.spikes
    ]
    return np.array([head, *tail])


def federated_b(model: SpikedModel, K: int) -> np.ndarray:
    """Coefficient vector b^(K) of the K-client optimality system."""
    if K < 1 or int(K) != K:
        raise ValueError("K must be a positive integer")
    return optimal._solve_system(model, _dk_diag(model, int(K)))


def federated_optimum(model: SpikedModel, K: int) -> FederatedOptimum:
    """Solve the K-client system and synthesize the local rule's chain."""
    K = int(K)
    optimal._require_noise(model)
    b = federated_b(model, K)
    if abs(b[0]) < 1e-10 * math.hypot(*measures._gram_rhs(model)):
        raise AssumptionError(
            "aggregate leading coefficient b0^(K) must be nonzero; this model "
            "and K sit on the degenerate set where the weight/rule split fails"
        )
    rho = float(b[0] / (model.sigma0_sq * model.r**2
                        * measures.mixture_weights(model).omega0))
    local = optimal._rational_rule(model, b, model.sigma0_sq, rho)
    params = optimal.synthesize_sd_params(local)
    return FederatedOptimum(K, tuple(b), rho, local, params)


def _rule_integrals(model: SpikedModel, f: ShrinkageFn):
    """(||f||_w^2, <g,f>_w, [<h_0,f>_w, ..., <h_s,f>_w]) for one rule."""
    checked = validate_rule(model, f)
    x, values = checked.grid.support_points, checked.values
    s0sq = model.sigma0_sq
    # ||f||_w^2 = sigma0^2 r^2 int x^2 f^2 dF_alpha + c sigma0^2 se^2 int x f^2 dF_MP,
    # the latter being the variance moment of the risks
    norm2 = s0sq * model.r**2 * checked.grid.integrate(x**2 * values**2).alpha \
        + model.c * s0sq * model.sigma_eps_sq * checked.moments[2]
    t = checked.xf  # <h_0,f>_w = int x f dF_MP, <h_j,f>_w = A_j
    gdot = s0sq * model.r**2 * measures.mixture_weights(model).omega0 * t[0]
    for j, (d, a) in enumerate(model.spikes):
        gdot += (d + s0sq) * a * a * t[j + 1]
    return float(norm2), float(gdot), t


def federated_risk(model: SpikedModel, K: int, rules, rhos) -> float:
    """Limiting prediction risk of the aggregate sum_l rho_l beta_l.

    Evaluated through the inner-product expansion of the rescaled rules
    ftilde_l = K rho_l f_l; with identical rules the mean/centered split
    makes the cross terms collapse to the single-client form.
    """
    K = int(K)
    rules = list(rules)
    rhos = [float(v) for v in rhos]
    if len(rules) != K or len(rhos) != K:
        raise ValueError(f"need exactly K={K} rules and K weights")
    s0sq = model.sigma0_sq
    norm2 = np.empty(K)
    gdot = np.empty(K)
    t = np.empty((K, model.s + 1))
    integrals = {}  # by rule identity: clients often share one rule object
    for l, (f, rho) in enumerate(zip(rules, rhos)):
        if id(f) not in integrals:
            integrals[id(f)] = _rule_integrals(model, f)
        n2, gd, tv = integrals[id(f)]
        scale = K * rho
        norm2[l] = scale**2 * n2
        gdot[l] = scale * gd
        t[l] = scale * tv

    total = float(np.sum(norm2)) - 2.0 * K * float(np.sum(gdot))
    sums = t.sum(axis=0)
    cross = 0.5 * (sums**2 - (t**2).sum(axis=0))  # sum_{l<l'} t_l t_l'
    w = measures.mixture_weights(model)
    total += 2.0 * s0sq * model.r**2 * w.omega0 * cross[0]
    for j, (d, a) in enumerate(model.spikes):
        total += 2.0 * s0sq * a * a * cross[j + 1]
        total += d * a * a * sums[j + 1] ** 2
    spike_const = fsum(d * a * a for d, a in model.spikes)
    total += K**2 * (s0sq * model.r**2 + spike_const)
    return total / K**2
