"""Span tracing from outside the program.

`Tracer.install()` replaces each public function listed in `LAYERS` by a
recording wrapper, in every `spectral_distill` module namespace that binds
it (modules bind names at import time, e.g. `from .spectra import
get_grid`), and swaps `SpectralGrid.__init__` for a wrapper that records
plain and panel grid builds as separate spans. Spans stay in memory until
`uninstall()`; each records its name, start, end, parent span and op id.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ("main",),
    "spectra": ("get_grid", "mp_quantile_inverse"),
    "measures": ("gram_system", "rn_polynomials"),
    "optimal": ("optimal_pred_rule", "optimal_est_rule", "denominator_roots",
                "synthesize_sd_params", "fixed_point_residual",
                "sd_round_trip_error"),
    "shrinkage": ("validate_rule", "limiting_pred_risk", "limiting_est_risk",
                  "ridge_risk_curve", "pcr_sharp_pred_risk",
                  "pcr_component_limit_risk"),
    "federated": ("federated_optimum", "federated_risk"),
    "montecarlo": ("harness_suite", "gen_data", "decompose", "sigma_risk"),
}
GRID_PLAIN = "spectra.SpectralGrid.plain"
GRID_PANEL = "spectra.SpectralGrid.panel"
MC_FIT = "montecarlo.fit"  # every montecarlo.fit_* function

SPAN_NAMES = tuple(
    [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    + [GRID_PLAIN, GRID_PANEL, MC_FIT]
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, op)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name_of, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                name = name_of(args, kwargs) if callable(name_of) else name_of
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def install(self):
        from spectral_distill import montecarlo, spectra  # loads every submodule

        modules = [m for k, m in sys.modules.items()
                   if k == "spectral_distill" or k.startswith("spectral_distill.")]
        targets = {}
        for mod, fns in LAYERS.items():
            home = sys.modules[f"spectral_distill.{mod}"]
            for fn in fns:
                targets[id(getattr(home, fn))] = (getattr(home, fn), f"{mod}.{fn}")
        for attr, fn in vars(montecarlo).items():
            if attr.startswith("fit_") and callable(fn):
                targets[id(fn)] = (fn, MC_FIT)
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and value is targets[id(value)][0]:
                    setattr(mod, attr, wrappers[id(value)])
                    self._undo.append((mod, attr, value))

        init = spectra.SpectralGrid.__init__

        def grid_name(args, kwargs):
            breaks = args[3] if len(args) > 3 else kwargs.get("breaks", ())
            return GRID_PANEL if breaks else GRID_PLAIN

        spectra.SpectralGrid.__init__ = self._wrap(grid_name, init)
        self._undo.append((spectra.SpectralGrid, "__init__", init))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, path: str):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op}) + "\n")

    def per_op(self, n_ops: int) -> dict:
        """{span name: (calls per op, self ms per op)} for every span name.

        Self time is a span's duration minus the time covered by its
        direct children; spans nest strictly because ops run on one thread.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_ns = defaultdict(int), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[i]
        return {name: (calls[name] / n_ops, self_ns[name] / 1e6 / n_ops)
                for name in SPAN_NAMES}
