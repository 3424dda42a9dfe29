"""Command-line driver: sweeps, side-by-side analytic/Monte Carlo columns,
CSV output, and an invariant checker.

dB-valued inputs are converted to linear scale here and nowhere else
(value_linear = 10^(dB/10)).  Subcommands:

    run            sweep experiment from an INI spec file
    outage         analytic + Monte Carlo outage at one operating point
    rate           analytic + Monte Carlo average rate at one operating point
    distance-dist  optimum-score CDF, analytic vs empirical with DKW band
    feedback       feedback-count mean, analytic vs Monte Carlo
    validate       run the cross-validation invariant suite

Exit codes: 0 success, 2 spec/argument errors, 3 numerical failure or a
failed validation check.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, montecarlo
from .channel import NetworkConfig, PathLossModel
from .geometry import ScoreKind
from .montecarlo import default_workers
from .policies import OPTIMUM, PolicyKind, SelectionPolicy, check_feedback_policy

_POLICY_NAMES = {p.value: p for p in PolicyKind}
_MODEL_NAMES = {"power": PathLossModel.POWER_LAW, "exp": PathLossModel.EXP_LAW}
_SWEEP_VARS = ("avg_snr_db", "intensity", "n_elements", "threshold")
_OPTIMA = {optimum for _, optimum in OPTIMUM.values()}


class SpecError(ValueError):
    """Experiment spec file is missing or malformed."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass
class ExperimentSpec:
    """Parsed sweep experiment: scenario, one sweep variable, run options."""

    d: float
    intensity: float
    n_elements: int
    model: PathLossModel
    eta: float
    alpha: float
    avg_snr_db: float
    target_snr_db: float
    threshold: float | None
    sweep_variable: str
    sweep_min: float
    sweep_max: float
    sweep_steps: int
    policies: list[PolicyKind]
    methods: list[str]
    metrics: list[str]
    trials: int
    fading_draws: int
    seed: int
    output: str

    def sweep_values(self) -> list[float]:
        return list(np.linspace(self.sweep_min, self.sweep_max, self.sweep_steps))

    def config_at(self, value: float) -> tuple[NetworkConfig, float | None]:
        """NetworkConfig plus feedback threshold at one sweep point."""
        params = dict(
            d=self.d,
            intensity=self.intensity,
            n_elements=self.n_elements,
            model=self.model,
            eta=self.eta,
            alpha=self.alpha,
            avg_snr=db_to_linear(self.avg_snr_db),
            target_snr=db_to_linear(self.target_snr_db),
        )
        threshold = self.threshold
        if self.sweep_variable == "avg_snr_db":
            params["avg_snr"] = db_to_linear(value)
        elif self.sweep_variable == "intensity":
            params["intensity"] = value
        elif self.sweep_variable == "n_elements":
            params["n_elements"] = int(round(value))
        else:
            threshold = value
        return NetworkConfig(**params), threshold


def _get(section, key, cast, *, required=True, default=None):
    if key not in section or section[key].strip() == "":
        if required:
            raise SpecError(f"missing required field '{key}' in section [{section.name}]")
        return default
    try:
        return cast(section[key].strip())
    except ValueError as exc:
        raise SpecError(f"field '{key}' in [{section.name}]: {exc}") from exc


def _parse_model(text: str) -> PathLossModel:
    if text not in _MODEL_NAMES:
        raise ValueError(f"unknown model '{text}' (expected power|exp)")
    return _MODEL_NAMES[text]


def _count(name: str, value: int) -> int:
    if value < 1:
        raise SpecError(f"{name} must be >= 1, got {value}")
    return value


def _parse_policy(text: str) -> PolicyKind:
    if text not in _POLICY_NAMES:
        raise ValueError(f"unknown policy '{text}' (expected one of {sorted(_POLICY_NAMES)})")
    return _POLICY_NAMES[text]


def load_spec(path: str) -> ExperimentSpec:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise SpecError(f"cannot read spec file '{path}'")
    for name in ("scenario", "sweep", "run"):
        if name not in parser:
            raise SpecError(f"missing required section [{name}]")
    sc, sw, run = parser["scenario"], parser["sweep"], parser["run"]

    variable = _get(sw, "variable", str)
    if variable not in _SWEEP_VARS:
        raise SpecError(f"sweep variable must be one of {_SWEEP_VARS}, got '{variable}'")
    steps = _get(sw, "steps", int)
    if steps < 2:
        raise SpecError(f"sweep steps must be >= 2, got {steps}")
    lo, hi = _get(sw, "min", float), _get(sw, "max", float)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpecError("sweep bounds must be finite")

    policies = [_parse_policy(p.strip()) for p in _get(run, "policies", str).split(",") if p.strip()]
    if not policies:
        raise SpecError("at least one policy is required")
    methods = [m.strip() for m in _get(run, "methods", str, required=False, default="analytic, montecarlo").split(",") if m.strip()]
    for m in methods:
        if m not in ("analytic", "montecarlo"):
            raise SpecError(f"unknown method '{m}'")
    metrics = [m.strip() for m in _get(run, "metrics", str, required=False, default="outage, rate").split(",") if m.strip()]
    for m in metrics:
        if m not in ("outage", "rate"):
            raise SpecError(f"unknown metric '{m}'")
    spec = ExperimentSpec(
        d=_get(sc, "d", float),
        intensity=_get(sc, "intensity", float),
        n_elements=_get(sc, "n_elements", int),
        model=_get(sc, "model", _parse_model),
        eta=_get(sc, "eta", float, required=False, default=4.0),
        alpha=_get(sc, "alpha", float, required=False, default=1.037),
        avg_snr_db=_get(sc, "avg_snr_db", float, required=False, default=0.0),
        target_snr_db=_get(sc, "target_snr_db", float, required=False, default=5.0),
        threshold=_get(sc, "threshold", float, required=False, default=None),
        sweep_variable=variable,
        sweep_min=lo,
        sweep_max=hi,
        sweep_steps=steps,
        policies=policies,
        methods=methods,
        metrics=metrics,
        trials=_count("trials", _get(run, "trials", int, required=False, default=10_000)),
        fading_draws=_count("fading_draws", _get(run, "fading_draws", int, required=False, default=8)),
        seed=_get(run, "seed", int, required=False, default=1),
        output=_get(run, "output", str, required=False, default="out.csv"),
    )
    for value in spec.sweep_values():
        try:
            cfg, point_threshold = spec.config_at(value)
            for kind in policies:
                check_feedback_policy(_policy_obj(kind, point_threshold), cfg.model)
        except ValueError as exc:
            raise SpecError(f"invalid scenario at {variable} = {_fmt(value)}: {exc}") from exc
    return spec


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _policy_obj(kind: PolicyKind, threshold: float | None) -> SelectionPolicy:
    """The policy, with the threshold when it is an optimum policy (baselines ignore it)."""
    if threshold is not None and kind in _OPTIMA:
        return SelectionPolicy(kind, feedback_threshold=threshold)
    return SelectionPolicy(kind)


def _analytic_metric(metric: str, cfg: NetworkConfig, kind: PolicyKind, threshold: float | None):
    """Closed-form value for the optimum policy of the model, else None."""
    if kind is not OPTIMUM[cfg.model][1]:
        return None
    power = cfg.model is PathLossModel.POWER_LAW
    if metric == "rate":
        return (analytic.rate_pow if power else analytic.rate_exp)(cfg, t_threshold=threshold)
    if threshold is None:
        return (analytic.outage_pow if power else analytic.outage_exp)(cfg)
    return (analytic.outage_pow_fb if power else analytic.outage_exp_fb)(cfg, threshold)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[list[str]]:
    """All CSV rows (header included) for a sweep experiment."""
    rows = [["sweep_var", "policy", "method", "metric", "value", "std_error"]]
    points = [(value, *spec.config_at(value)) for value in spec.sweep_values()]
    mc = _monte_carlo_cells(spec, points, workers) if "montecarlo" in spec.methods else {}
    for idx, (value, cfg, threshold) in enumerate(points):
        for kind in spec.policies:
            policy = _policy_obj(kind, threshold)
            for metric in spec.metrics:
                if "analytic" in spec.methods:
                    closed = _analytic_metric(metric, cfg, kind, policy.feedback_threshold)
                    if closed is not None:
                        rows.append([_fmt(value), kind.value, "analytic", metric, _fmt(closed), ""])
                if mc:
                    est = mc[idx, kind][metric]
                    rows.append(
                        [_fmt(value), kind.value, "montecarlo", metric, _fmt(est.mean), _fmt(est.std_error)]
                    )
    return rows


def _monte_carlo_cells(spec: ExperimentSpec, points, workers: int) -> dict:
    """(point index, policy) -> {metric: Estimate}, one kernel pass per geometry group.

    Only an intensity sweep moves the geometry, so it has one group per
    point; any other sweep is one group.  Group g is seeded by
    SeedSequence([seed, g]), so every policy and point of a group reads the
    same realizations.
    """
    draws = spec.fading_draws if "rate" in spec.metrics else None
    indices = range(len(points))
    groups = [[i] for i in indices] if spec.sweep_variable == "intensity" else [list(indices)]
    out = {}
    with montecarlo.shared_pool(workers, spec.trials) as pool:
        for group_idx, members in enumerate(groups):
            keys = [(i, kind) for i in members for kind in spec.policies]
            cells = [(points[i][1], _policy_obj(kind, points[i][2])) for i, kind in keys]
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, group_idx]))
            estimates = montecarlo.mc_sweep(cells, spec.trials, draws, rng, pool=pool)
            for key, (outage, rate) in zip(keys, estimates):
                out[key] = {"outage": outage, "rate": rate}
    return out


def _write_csv(rows: list[list[str]], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scenario_config(args) -> NetworkConfig:
    if args.threshold is not None and not args.threshold > 0.0:
        raise SpecError(f"--threshold must be > 0, got {args.threshold}")
    try:
        return NetworkConfig(
            d=args.d,
            intensity=args.intensity,
            n_elements=args.n_elements,
            model=_MODEL_NAMES[args.model],
            eta=args.eta,
            alpha=args.alpha,
            avg_snr=db_to_linear(args.snr_db),
            target_snr=db_to_linear(args.target_snr_db),
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), default="power")
    p.add_argument("--d", type=float, default=1.2, help="half TX-RX separation")
    p.add_argument("--intensity", type=float, default=0.5, help="node density")
    p.add_argument("--n-elements", type=int, default=16)
    p.add_argument("--eta", type=float, default=4.0)
    p.add_argument("--alpha", type=float, default=1.037)
    p.add_argument("--snr-db", type=float, default=0.0, help="average SNR in dB")
    p.add_argument("--target-snr-db", type=float, default=5.0, help="outage target in dB")
    p.add_argument("--threshold", type=float, default=None, help="feedback threshold (linear score)")
    p.add_argument("--policy", choices=sorted(_POLICY_NAMES), default=None)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout summary only)")


def _cmd_point_metric(args, metric: str, workers: int) -> int:
    cfg = _scenario_config(args)
    kind = OPTIMUM[cfg.model][1] if args.policy is None else _POLICY_NAMES[args.policy]
    policy = _policy_obj(kind, args.threshold)
    try:
        check_feedback_policy(policy, cfg.model)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    closed = _analytic_metric(metric, cfg, kind, policy.feedback_threshold)
    if metric == "outage":
        est = montecarlo.mc_outage(cfg, policy, args.trials, rng, workers=workers)
    else:
        est = montecarlo.mc_rate(cfg, policy, args.trials, args.fading_draws, rng, workers=workers)
    rows = [["sweep_var", "policy", "method", "metric", "value", "std_error"]]
    if closed is not None:
        print(f"analytic   {metric} = {_fmt(closed)}")
        rows.append([_fmt(args.snr_db), kind.value, "analytic", metric, _fmt(closed), ""])
    print(f"montecarlo {metric} = {_fmt(est.mean)} +/- {_fmt(est.std_error)} ({est.n_trials} trials)")
    rows.append([_fmt(args.snr_db), kind.value, "montecarlo", metric, _fmt(est.mean), _fmt(est.std_error)])
    if args.out:
        _write_csv(rows, args.out)
    return 0


def _cmd_distance_dist(args, workers: int) -> int:
    cfg = _scenario_config(args)
    score_kind = OPTIMUM[cfg.model][0]
    dist = analytic.DistCdf.from_config(cfg, score_kind)
    emp = montecarlo.mc_distance_dist(cfg, args.trials, np.random.default_rng(args.seed), workers=workers)
    eps = emp.dkw_epsilon(0.99)
    cdf = analytic.cdf_upsilon_opt if score_kind is ScoreKind.MIN_PRODUCT else analytic.cdf_lambda_opt
    grid = _quantile_grid(cdf, dist, args.grid_points)
    rows = [["gamma", "analytic_cdf", "empirical_cdf", "dkw_lo", "dkw_hi"]]
    worst = 0.0
    for g in grid:
        a = cdf(g, dist)
        e = emp.cdf(g)
        worst = max(worst, abs(a - e))
        rows.append([_fmt(g), _fmt(a), _fmt(e), _fmt(max(0.0, e - eps)), _fmt(min(1.0, e + eps))])
    print(f"max |analytic - empirical| = {_fmt(worst)} vs 99% DKW half-width {_fmt(eps)}")
    if args.out:
        _write_csv(rows, args.out)
    return 0


def _quantile_grid(cdf, dist, n_points: int) -> list[float]:
    """Score levels at evenly spaced analytic quantiles (2.5%..97.5%)."""
    levels = np.linspace(0.025, 0.975, n_points)
    out = []
    lo, hi = 0.0, max(4.0 * dist.d * dist.d, 4.0 * dist.d)
    while cdf(hi, dist) < levels[-1]:
        hi *= 2.0
    for p in levels:
        a, b = lo, hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            if cdf(mid, dist) < p:
                a = mid
            else:
                b = mid
        out.append(0.5 * (a + b))
    return out


def _cmd_feedback(args, workers: int) -> int:
    cfg = _scenario_config(args)
    if args.threshold is None:
        print("feedback requires --threshold", file=sys.stderr)
        return 2
    score_kind, _ = OPTIMUM[cfg.model]
    dist = analytic.DistCdf.from_config(cfg, score_kind)
    xi = (analytic.xi_pow if score_kind is ScoreKind.MIN_PRODUCT else analytic.xi_exp)(args.threshold, dist)
    rng = np.random.default_rng(args.seed)
    emp = montecarlo.mc_feedback_dist(cfg, args.threshold, args.trials, rng, workers=workers)
    try:
        stat, dof, p = montecarlo.poisson_gof(emp, xi)
    except ValueError:  # no chi-square test: xi = 0, or too few bins with enough expected count
        stat, dof, p = float("nan"), 0, float("nan")
    print(f"analytic mean feedback = {_fmt(xi)}")
    print(f"simulated mean         = {_fmt(emp.mean())} +/- {_fmt(emp.std_error())}")
    print(f"poisson chi-square     = {_fmt(stat)} (dof {dof}), p = {_fmt(p)}")
    if args.out:
        rows = [["threshold", "analytic_mean", "mc_mean", "mc_std_error", "gof_p"]]
        rows.append([_fmt(args.threshold), _fmt(xi), _fmt(emp.mean()), _fmt(emp.std_error()), _fmt(p)])
        _write_csv(rows, args.out)
    return 0


def _cmd_validate(args, workers: int) -> int:
    from .validate import run_validation

    results = run_validation(seed=args.seed, trials=args.trials, workers=workers)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ris-select",
        description="Location-based surface-selection analysis: analytic formulas with Monte Carlo cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep experiment from an INI spec file")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_run.add_argument("--trials", type=int, default=None, help="override the spec trial count")
    p_run.add_argument("--out", default=None, help="override the spec output path")

    for name, help_text in (
        ("outage", "outage probability at one operating point"),
        ("rate", "average rate at one operating point"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_scenario_args(p)
        p.add_argument("--fading-draws", type=int, default=8)

    p_dd = sub.add_parser("distance-dist", help="optimum-score CDF, analytic vs empirical")
    _add_scenario_args(p_dd)
    p_dd.add_argument("--grid-points", type=int, default=20)

    p_fb = sub.add_parser("feedback", help="feedback-count statistics at a threshold")
    _add_scenario_args(p_fb)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--seed", type=int, default=1)
    p_val.add_argument("--trials", type=int, default=4000)

    args = parser.parse_args(argv)
    workers = default_workers()
    try:
        for name in ("trials", "fading_draws", "grid_points"):
            if getattr(args, name, None) is not None:
                _count("--" + name.replace("_", "-"), getattr(args, name))
        if args.command == "run":
            spec = load_spec(args.spec)
            if args.seed is not None:
                spec.seed = args.seed
            if args.trials is not None:
                spec.trials = args.trials
            if args.out is not None:
                spec.output = args.out
            rows = run_experiment(spec, workers=workers)
            _write_csv(rows, spec.output)
            print(f"wrote {len(rows) - 1} rows to {spec.output}")
            return 0
        if args.command == "outage":
            return _cmd_point_metric(args, "outage", workers)
        if args.command == "rate":
            return _cmd_point_metric(args, "rate", workers)
        if args.command == "distance-dist":
            return _cmd_distance_dist(args, workers)
        if args.command == "feedback":
            return _cmd_feedback(args, workers)
        return _cmd_validate(args, workers)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
