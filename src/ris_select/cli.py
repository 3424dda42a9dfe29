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
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import analytic, montecarlo
from .channel import NetworkConfig, PathLossModel
from .geometry import ScoreKind, critical_score
from .montecarlo import default_workers
from .policies import OPTIMUM, OPTIMUM_SCORE, PolicyKind, SelectionPolicy, check_feedback_policy

_POLICY_NAMES = {p.value: p for p in PolicyKind}
_MODEL_NAMES = {"power": PathLossModel.POWER_LAW, "exp": PathLossModel.EXP_LAW}
_SWEEP_VARS = ("avg_snr_db", "intensity", "n_elements", "threshold")
_METHODS = ("analytic", "montecarlo")
_METRICS = ("outage", "rate")
_HEADER = ("sweep_var", "policy", "method", "metric", "value", "std_error")


class SpecError(ValueError):
    """Experiment spec file is missing or malformed."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass
class ExperimentSpec:
    """Parsed sweep experiment: scenario, one sweep variable, run options."""

    scenario: dict  # NetworkConfig keyword arguments; an unset optional key is absent
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
        """NetworkConfig plus feedback threshold at one sweep point.

        An n_elements point runs at the nearest integer N (half to even),
        while its CSV row keeps the requested value as its label.
        """
        if self.sweep_variable == "threshold":
            return NetworkConfig(**self.scenario), value
        if self.sweep_variable == "n_elements":
            value = int(round(value))
        swept = _config_kwargs({self.sweep_variable: value})
        return NetworkConfig(**{**self.scenario, **swept}), self.threshold


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


# [scenario] key -> (NetworkConfig field, parser, given in dB).  The point
# commands' flags store their values under the same keys (--snr-db under
# avg_snr_db).  A key is required exactly when its NetworkConfig field has no
# default; an unset optional key or flag is left out, so that default applies.
_SCENARIO = {
    "d": ("d", float, False),
    "intensity": ("intensity", float, False),
    "n_elements": ("n_elements", int, False),
    "model": ("model", _parse_model, False),
    "eta": ("eta", float, False),
    "alpha": ("alpha", float, False),
    "avg_snr_db": ("avg_snr", float, True),
    "target_snr_db": ("target_snr", float, True),
}
_REQUIRED = {f.name for f in fields(NetworkConfig) if f.default is MISSING}


def _config_kwargs(values: dict) -> dict:
    """NetworkConfig keyword arguments from [scenario] values; None is unset."""
    kwargs = {}
    for key, value in values.items():
        field, _, in_db = _SCENARIO[key]
        if value is not None:
            kwargs[field] = db_to_linear(value) if in_db else value
    return kwargs


def _count(name: str, value: int, least: int = 1) -> int:
    if value < least:
        raise SpecError(f"{name} must be >= {least}, got {value}")
    return value


def _names(section, key: str, allowed, required: bool = False) -> list[str]:
    """A [run] comma list of at least one name, each in allowed and none twice (unset: all of allowed)."""
    text = _get(section, key, str, required=required, default=", ".join(allowed))
    names = [name.strip() for name in text.split(",") if name.strip()]
    for name in names:
        if name not in allowed:
            raise SpecError(f"unknown name '{name}' in {key} (expected {', '.join(allowed)})")
    if not names or len(set(names)) < len(names):
        raise SpecError(f"{key} must name at least one of {', '.join(allowed)}, each once; got '{text}'")
    return names


def load_spec(path: str) -> ExperimentSpec:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise SpecError(f"malformed spec file '{path}': {exc}") from exc
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

    policies = [_POLICY_NAMES[name] for name in _names(run, "policies", tuple(_POLICY_NAMES), required=True)]
    values = {key: _get(sc, key, parse, required=field in _REQUIRED)
              for key, (field, parse, _) in _SCENARIO.items()}
    spec = ExperimentSpec(
        scenario=_config_kwargs(values),
        threshold=_get(sc, "threshold", float, required=False, default=None),
        sweep_variable=variable,
        sweep_min=lo,
        sweep_max=hi,
        sweep_steps=steps,
        policies=policies,
        methods=_names(run, "methods", _METHODS),
        metrics=_names(run, "metrics", _METRICS),
        trials=_count("trials", _get(run, "trials", int, required=False, default=10_000)),
        fading_draws=_count("fading_draws", _get(run, "fading_draws", int, required=False, default=8)),
        seed=_count("seed", _get(run, "seed", int, required=False, default=1), 0),
        output=_get(run, "output", str, required=False, default="out.csv"),
    )
    optimum = OPTIMUM[spec.scenario["model"]][1]
    if "montecarlo" not in spec.methods and optimum not in policies:
        raise SpecError(f"methods = analytic has rows for the model's optimum '{optimum.value}' only, "
                        "and policies does not name it")
    for value in spec.sweep_values():
        try:
            cfg, point_threshold = spec.config_at(value)
            # the optimum too, so that a threshold no policy of the spec reads is checked
            for kind in dict.fromkeys((OPTIMUM[cfg.model][1], *policies)):
                check_feedback_policy(_policy_obj(kind, point_threshold), cfg.model)
        except ValueError as exc:
            raise SpecError(f"invalid scenario at {variable} = {_fmt(value)}: {exc}") from exc
    return spec


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _policy_obj(kind: PolicyKind, threshold: float | None) -> SelectionPolicy:
    """The policy, with the threshold when it is an optimum policy (baselines ignore it)."""
    if threshold is not None and kind in OPTIMUM_SCORE:
        return SelectionPolicy(kind, feedback_threshold=threshold)
    return SelectionPolicy(kind)


def _analytic_metric(metric: str, cfg: NetworkConfig, kind: PolicyKind, threshold: float | None):
    """Closed-form value for the optimum policy of the model, else None.

    One cell: the point commands' rate, and run's outage.  run takes its
    rates from one analytic.rate_sweep call per spec (_analytic_cells).
    """
    if kind is not OPTIMUM[cfg.model][1]:
        return None
    power = cfg.model is PathLossModel.POWER_LAW
    if metric == "rate":
        return (analytic.rate_pow if power else analytic.rate_exp)(cfg, t_threshold=threshold)
    if threshold is None:
        return (analytic.outage_pow if power else analytic.outage_exp)(cfg)
    return (analytic.outage_pow_fb if power else analytic.outage_exp_fb)(cfg, threshold)


def _rows(label: float, kind: PolicyKind, metric: str, closed, est) -> list[list[str]]:
    """The CSV rows of one cell and metric: the closed form, then the estimate, each if not None."""
    rows = []
    if closed is not None:
        rows.append([_fmt(label), kind.value, "analytic", metric, _fmt(closed), ""])
    if est is not None:
        rows.append([_fmt(label), kind.value, "montecarlo", metric, _fmt(est.mean), _fmt(est.std_error)])
    return rows


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[list[str]]:
    """All CSV rows (header included) for a sweep experiment.

    The closed forms come from _analytic_cells (all rates in one
    analytic.rate_sweep call) and the estimates from _monte_carlo_cells
    (one montecarlo.mc_sweep call per sample group).
    """
    rows = [list(_HEADER)]
    points = [(value, *spec.config_at(value)) for value in spec.sweep_values()]
    mc = _monte_carlo_cells(spec, points, workers) if "montecarlo" in spec.methods else {}
    closed = _analytic_cells(spec, points) if "analytic" in spec.methods else {}
    for idx, (value, _, _) in enumerate(points):
        for kind in spec.policies:
            for metric in spec.metrics:
                rows += _rows(value, kind, metric, closed.get((idx, kind), {}).get(metric),
                              mc[idx, kind][metric] if mc else None)
    return rows


def _analytic_cells(spec: ExperimentSpec, points) -> dict:
    """(point index, optimum policy) -> {metric: closed form}.

    Only the optimum policy of each point's law has closed forms.  All
    rates come from one analytic.rate_sweep call, which reads the fading
    table once for the points that differ only in avg_snr.
    """
    keys = [(i, kind) for i, (_, cfg, _) in enumerate(points) for kind in spec.policies
            if kind is OPTIMUM[cfg.model][1]]
    out = {key: {} for key in keys}
    if "rate" in spec.metrics:
        rates = analytic.rate_sweep([(points[i][1], points[i][2]) for i, _ in keys])
        for key, rate in zip(keys, rates):
            out[key]["rate"] = rate
    if "outage" in spec.metrics:
        for i, kind in keys:
            out[i, kind]["outage"] = _analytic_metric("outage", points[i][1], kind, points[i][2])
    return out


def _monte_carlo_cells(spec: ExperimentSpec, points, workers: int) -> dict:
    """(point index, policy) -> {metric: Estimate}, one kernel pass per sample group.

    Points with equal montecarlo.sample_key form a group; groups are
    numbered in order of first appearance.  Group g is seeded by
    SeedSequence([seed, g]), so every policy and point of a group reads the
    same realizations.
    """
    draws = spec.fading_draws if "rate" in spec.metrics else None
    groups = {}
    for i, (_, cfg, _) in enumerate(points):
        groups.setdefault(montecarlo.sample_key(cfg), []).append(i)
    out = {}
    with montecarlo.shared_pool(workers, spec.trials) as pool:
        for group_idx, members in enumerate(groups.values()):
            keys = [(i, kind) for i in members for kind in spec.policies]
            cells = [(points[i][1], _policy_obj(kind, points[i][2])) for i, kind in keys]
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, group_idx]))
            estimates = montecarlo.mc_sweep(cells, spec.trials, draws, rng, workers=workers, pool=pool)
            for key, (outage, rate) in zip(keys, estimates):
                out[key] = {"outage": outage, "rate": rate}
    return out


def _write_csv(rows: list[list[str]], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scenario_config(args) -> NetworkConfig:
    values = {key: getattr(args, key) for key in _SCENARIO}
    values["model"] = _MODEL_NAMES[args.model]  # argparse has checked the name
    try:
        return NetworkConfig(**_config_kwargs(values))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    # each dest is a [scenario] key; a flag with no default takes NetworkConfig's
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), default="power")
    p.add_argument("--d", type=float, default=1.2, help="half TX-RX separation")
    p.add_argument("--intensity", type=float, default=0.5, help="node density")
    p.add_argument("--n-elements", type=int, default=16)
    p.add_argument("--eta", type=float)
    p.add_argument("--alpha", type=float)
    # the point commands print the SNR in their CSV, so it has a value of its own
    p.add_argument("--snr-db", dest="avg_snr_db", type=float, default=0.0, help="average SNR in dB")
    p.add_argument("--target-snr-db", type=float, help="outage target in dB")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout summary only)")


def _cmd_point_metric(args, metric: str, workers: int) -> list:
    cfg = _scenario_config(args)
    kind = OPTIMUM[cfg.model][1] if args.policy is None else _POLICY_NAMES[args.policy]
    try:
        policy = SelectionPolicy(kind, feedback_threshold=args.threshold)
        check_feedback_policy(policy, cfg.model)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    closed = _analytic_metric(metric, cfg, kind, policy.feedback_threshold)
    if metric == "outage":
        est = montecarlo.mc_outage(cfg, policy, args.trials, rng, workers=workers)
    else:
        est = montecarlo.mc_rate(cfg, policy, args.trials, args.fading_draws, rng, workers=workers)
    if closed is not None:
        print(f"analytic   {metric} = {_fmt(closed)}")
    print(f"montecarlo {metric} = {_fmt(est.mean)} +/- {_fmt(est.std_error)} ({est.n_trials} trials)")
    return [_HEADER, *_rows(args.avg_snr_db, kind, metric, closed, est)]


def _cmd_distance_dist(args, workers: int) -> list:
    cfg = _scenario_config(args)
    score_kind = OPTIMUM[cfg.model][0]
    dist = analytic.DistCdf.from_config(cfg, score_kind)
    emp = montecarlo.mc_distance_dist(cfg, args.trials, np.random.default_rng(args.seed), workers=workers)
    eps = emp.dkw_epsilon(0.99)
    cdf = analytic.cdf_upsilon_opt if score_kind is ScoreKind.MIN_PRODUCT else analytic.cdf_lambda_opt
    rows = [["gamma", "analytic_cdf", "empirical_cdf", "dkw_lo", "dkw_hi"]]
    worst = 0.0
    # score levels at evenly spaced analytic quantiles (2.5%..97.5%)
    for p in np.linspace(0.025, 0.975, args.grid_points):
        g = critical_score(score_kind, cfg.intensity, cfg.d, 1.0 - p)
        a = cdf(g, dist)
        e = emp.cdf(g)
        worst = max(worst, abs(a - e))
        rows.append([_fmt(g), _fmt(a), _fmt(e), _fmt(max(0.0, e - eps)), _fmt(min(1.0, e + eps))])
    print(f"max |analytic - empirical| = {_fmt(worst)} vs 99% DKW half-width {_fmt(eps)}")
    return rows


def _cmd_feedback(args, workers: int) -> list:
    cfg = _scenario_config(args)
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
    return [["threshold", "analytic_mean", "mc_mean", "mc_std_error", "gof_p"],
            [_fmt(args.threshold), _fmt(xi), _fmt(emp.mean()), _fmt(emp.std_error()), _fmt(p)]]


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

    p_out = sub.add_parser("outage", help="outage probability at one operating point")
    p_rate = sub.add_parser("rate", help="average rate at one operating point")
    p_dd = sub.add_parser("distance-dist", help="optimum-score CDF, analytic vs empirical")
    p_fb = sub.add_parser("feedback", help="feedback-count statistics at a threshold")
    # a flag goes only to the commands that read it, so argparse refuses it elsewhere
    for p in (p_out, p_rate, p_dd, p_fb):
        _add_scenario_args(p)
    for p in (p_out, p_rate):
        p.add_argument("--policy", choices=sorted(_POLICY_NAMES), default=None)
    for p in (p_out, p_rate, p_fb):
        p.add_argument("--threshold", type=float, required=p is p_fb, help="feedback threshold (linear score)")
    p_rate.add_argument("--fading-draws", type=int, default=8)
    p_dd.add_argument("--grid-points", type=int, default=20)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--seed", type=int, default=1)
    p_val.add_argument("--trials", type=int, default=4000)

    args = parser.parse_args(argv)
    workers = default_workers()
    try:
        for name, least in (("trials", 1), ("fading_draws", 1), ("grid_points", 1), ("seed", 0)):
            if getattr(args, name, None) is not None:
                _count("--" + name.replace("_", "-"), getattr(args, name), least)
        threshold = getattr(args, "threshold", None)
        if threshold is not None and not threshold > 0.0:
            raise SpecError(f"--threshold must be > 0, got {threshold}")
        if args.command == "run":
            spec = load_spec(args.spec)
            spec.seed = spec.seed if args.seed is None else args.seed
            spec.trials = spec.trials if args.trials is None else args.trials
            args.out = spec.output if args.out is None else args.out
            rows = run_experiment(spec, workers=workers)
        elif args.command in _METRICS:
            rows = _cmd_point_metric(args, args.command, workers)
        elif args.command == "distance-dist":
            rows = _cmd_distance_dist(args, workers)
        elif args.command == "feedback":
            rows = _cmd_feedback(args, workers)
        else:
            return _cmd_validate(args, workers)
        if args.out is not None:
            try:
                _write_csv(rows, args.out)
            except OSError as exc:
                raise SpecError(f"cannot write '{args.out}': {exc.strerror or exc}") from exc
        if args.command == "run":
            print(f"wrote {len(rows) - 1} rows to {args.out}")
        return 0
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
