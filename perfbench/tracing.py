"""Boundary tracing from outside the program.

Each traced layer boundary is a public name looked up in the *caller's*
module namespace (cli calls ``montecarlo.mc_rate``, analytic calls its own
imported ``genhyp`` and so on).  ``Tracer.installed()`` replaces those names
with timing wrappers and puts every original object back on exit, so no
file of the program changes and an untraced run executes the original code.

Spans nest on one stack: a span's self time is its duration minus the
durations of the spans it directly encloses.  Process pools built inside
``montecarlo`` run chunk work in child processes, which this tracer cannot
see; there only the parent-side spans (estimator calls, pool start/stop)
are recorded.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module whose namespace holds the name, attribute, span name)
BOUNDARIES = (
    ("cli", "load_spec", "cli.load_spec"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "_write_csv", "cli.write_csv"),
    # cli -> montecarlo / analytic: cli calls these through its module references
    ("montecarlo", "mc_outage", "montecarlo.mc_outage"),
    ("montecarlo", "mc_rate", "montecarlo.mc_rate"),
    ("analytic", "outage_pow", "analytic.outage"),
    ("analytic", "outage_exp", "analytic.outage"),
    ("analytic", "outage_pow_fb", "analytic.outage"),
    ("analytic", "outage_exp_fb", "analytic.outage"),
    ("analytic", "rate_pow", "analytic.rate_pow"),
    ("analytic", "rate_exp", "analytic.rate_exp"),
    # inside analytic: the per-node rate and the product-score density
    ("analytic", "rate_fading_closed", "analytic.rate_fading_closed"),
    ("analytic", "rate_fading_quad", "analytic.rate_fading_quad"),
    ("analytic", "pdf_upsilon_opt", "analytic.pdf_upsilon_opt"),
    # analytic / montecarlo -> geometry
    ("analytic", "critical_score", "geometry.critical_score"),
    ("montecarlo", "critical_score", "geometry.critical_score"),
    ("analytic", "min_product_region_area", "geometry.region_area"),
    ("analytic", "min_sum_region_area", "geometry.region_area"),
    ("montecarlo", "enclosing_radius", "geometry.region_area"),
    # analytic / geometry -> specfun
    ("analytic", "genhyp", "specfun.genhyp"),
    ("analytic", "ellip_k", "specfun.ellip"),
    ("analytic", "ellip_e", "specfun.ellip"),
    ("geometry", "ellip_k", "specfun.ellip"),
    ("geometry", "ellip_e", "specfun.ellip"),
    ("analytic", "digamma", "specfun.gamma"),
    ("analytic", "log_gamma", "specfun.gamma"),
)
POOL = ("montecarlo", "ProcessPoolExecutor")

# spans kept one by one (few per sweep); all others only in aggregate
RECORDED = {
    "cli.load_spec", "cli.run_experiment", "cli.write_csv",
    "montecarlo.mc_outage", "montecarlo.mc_rate", "montecarlo.pool",
    "analytic.outage", "analytic.rate_pow", "analytic.rate_exp",
}


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Spans and per-name aggregates of one or more traced sweeps."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.mc_calls: list[dict] = []
        self._stack: list[list] = []  # [span id or None, child seconds]
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str):
        recorded = name in RECORDED
        span_id = len(self.spans) if recorded else None
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        if recorded:
            self.spans.append({"id": span_id, "name": name, "parent": parent})
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            stat = self.stats.setdefault(name, Stat())
            stat.calls += 1
            stat.busy_s += duration
            stat.self_s += duration - frame[1]
            if recorded:
                self.spans[span_id].update(start=start - self._t0, end=end - self._t0)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_estimator(self, name: str, fn):
        """Wrap mc_outage / mc_rate and keep each call's inputs for derived metrics."""

        @functools.wraps(fn)
        def traced(cfg, policy, n_trials, *args, **kwargs):
            start = perf_counter()
            with self.span(name):
                result = fn(cfg, policy, n_trials, *args, **kwargs)
            draws = None
            if name == "montecarlo.mc_rate":
                draws = args[0] if args else kwargs["fading_draws_per_trial"]
            self.mc_calls.append(
                {"name": name, "cfg": cfg, "policy": policy, "trials": result.n_trials,
                 "draws": draws, "seconds": perf_counter() - start}
            )
            return result

        return traced

    def pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Times pool construction, task submission (which starts the
            worker processes) and shutdown; waiting for results is excluded."""

            def __init__(self, *args, **kwargs):
                with tracer.span("montecarlo.pool"):
                    super().__init__(*args, **kwargs)

            def map(self, *args, **kwargs):
                with tracer.span("montecarlo.pool_startstop"):
                    return super().map(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                with tracer.span("montecarlo.pool_startstop"):
                    super().shutdown(*args, **kwargs)

        TracedPool.__name__ = base.__name__
        return TracedPool

    @contextmanager
    def installed(self):
        """Replace every boundary name by its wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, span_name in BOUNDARIES:
                module = importlib.import_module(f"ris_select.{mod_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if span_name.startswith("montecarlo.mc_"):
                    setattr(module, attr, self.wrap_estimator(span_name, original))
                else:
                    setattr(module, attr, self.wrap(span_name, original))
            module = importlib.import_module(f"ris_select.{POOL[0]}")
            original = getattr(module, POOL[1])
            saved.append((module, POOL[1], original))
            setattr(module, POOL[1], self.pool_class(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
