"""CLI: spec parsing, exit codes, CSV determinism, dB conversion."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ris_select
from ris_select import analytic, montecarlo
from ris_select.channel import NetworkConfig, PathLossModel
from ris_select.cli import (
    ExperimentSpec,
    SpecError,
    _policy_obj,
    db_to_linear,
    load_spec,
    main,
    run_experiment,
)
from ris_select.policies import PolicyKind

GOOD_SPEC = """\
[scenario]
d = 1.2
intensity = 0.5
n_elements = 8
model = power
eta = 4
target_snr_db = 5

[sweep]
variable = avg_snr_db
min = -10
max = 30
steps = 3

[run]
policies = opt-product, min-min
metrics = outage
trials = 3000
seed = 42
output = {out}
"""


def write_spec(tmp_path, text, name="spec.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSpecParsing:
    def test_good_spec_loads(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv")))
        assert isinstance(spec, ExperimentSpec)
        assert spec.sweep_steps == 3
        assert len(spec.policies) == 2

    def test_missing_field_names_it(self, tmp_path):
        bad = GOOD_SPEC.format(out="o.csv").replace("intensity = 0.5\n", "")
        with pytest.raises(SpecError, match="intensity"):
            load_spec(write_spec(tmp_path, bad))

    def test_missing_file_is_spec_error(self):
        with pytest.raises(SpecError):
            load_spec("/nonexistent/path.ini")

    def test_bad_sweep_variable(self, tmp_path):
        bad = GOOD_SPEC.format(out="o.csv").replace("variable = avg_snr_db", "variable = bogus")
        with pytest.raises(SpecError, match="sweep variable"):
            load_spec(write_spec(tmp_path, bad))

    def test_too_few_steps(self, tmp_path):
        bad = GOOD_SPEC.format(out="o.csv").replace("steps = 3", "steps = 1")
        with pytest.raises(SpecError, match="steps"):
            load_spec(write_spec(tmp_path, bad))

    def test_exit_code_2_on_bad_spec(self, tmp_path, capsys):
        bad = write_spec(tmp_path, GOOD_SPEC.format(out="o.csv").replace("intensity = 0.5\n", ""))
        assert main(["run", "--spec", bad]) == 2
        assert "intensity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, extra",
        [
            ("trials = 3000", "trials = 0", []),
            ("metrics = outage", "metrics = outage, rate\nfading_draws = 0", []),
            ("seed = 42", "seed = 42", ["--trials", "-3"]),
        ],
    )
    def test_counts_below_one_exit_2(self, tmp_path, capsys, old, new, extra):
        spec = write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv").replace(old, new))
        assert main(["run", "--spec", spec, *extra]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("new, extra", [("seed = -1", []), ("seed = 42", ["--seed", "-2"])])
    def test_negative_seed_exits_2(self, tmp_path, capsys, new, extra):
        spec = write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv").replace("seed = 42", new))
        assert main(["run", "--spec", spec, *extra]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("d = 1.2", "d = -1", "d must be > 0"),
            ("model = power", "model = exp\nalpha = 0", "alpha > 0"),
            ("variable = avg_snr_db\nmin = -10", "variable = n_elements\nmin = 0", "n_elements = 0"),
            ("variable = avg_snr_db\nmin = -10", "variable = threshold\nmin = -1", "threshold = -1"),
            ("d = 1.2", "d = nan", "d must be > 0"),
            ("intensity = 0.5", "intensity = nan", "intensity must be > 0"),
            ("target_snr_db = 5\n\n[sweep]\nvariable = avg_snr_db\nmin = -10",
             "avg_snr_db = nan\ntarget_snr_db = 5\n\n[sweep]\nvariable = n_elements\nmin = 1",
             "avg_snr must be > 0"),
            ("target_snr_db = 5", "target_snr_db = nan", "target_snr must be >= 0"),
            ("target_snr_db = 5", "target_snr_db = 5\nthreshold = nan", "feedback_threshold must be > 0"),
        ],
    )
    def test_invalid_scenario_at_a_sweep_point_exits_2(self, tmp_path, capsys, old, new, match):
        spec = write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv").replace(old, new))
        with pytest.raises(SpecError, match=match):
            load_spec(spec)
        assert main(["run", "--spec", spec]) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            pytest.param("metrics = outage", "metrics = outage\nmethods = ,", "methods", id="no-method"),
            pytest.param("metrics = outage", "metrics = ,", "metrics", id="no-metric"),
            pytest.param("opt-product, min-min", "opt-product, opt-product", "policies", id="policy-twice"),
            pytest.param("metrics = outage", "metrics = rate, rate", "metrics", id="metric-twice"),
            pytest.param("opt-product, min-min", "opt-product, best", "policies", id="unknown-policy"),
            pytest.param("metrics = outage", "metrics = outage\nmethods = oracle", "methods", id="unknown-method"),
            pytest.param("metrics = outage", "metrics = outage, snr", "metrics", id="unknown-metric"),
        ],
    )
    def test_bad_run_list_exits_2(self, tmp_path, capsys, old, new, key):
        # an empty list would write a header-only CSV, a repeated name every row twice
        spec = write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv").replace(old, new))
        with pytest.raises(SpecError, match=key):
            load_spec(spec)
        assert main(["run", "--spec", spec]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "model, policies, optimum",
        [("power", "min-min, mid-point", "opt-product"), ("exp", "opt-product, min-max", "opt-sum")],
    )
    def test_analytic_only_without_the_models_optimum_exits_2(self, tmp_path, capsys, model, policies, optimum):
        # analytic rows exist for the model's optimum only: without it the CSV would be a header alone
        text = GOOD_SPEC.format(out=tmp_path / "o.csv").replace("model = power", f"model = {model}")
        text = text.replace("metrics = outage", "metrics = outage, rate\nmethods = analytic")
        spec = write_spec(tmp_path, text.replace("opt-product, min-min", policies))
        with pytest.raises(SpecError, match=optimum):
            load_spec(spec)
        assert main(["run", "--spec", spec]) == 2
        assert optimum in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
        # with the optimum, or with Monte Carlo rows, the same spec loads
        load_spec(write_spec(tmp_path, text.replace("opt-product, min-min", f"{policies}, {optimum}")))
        load_spec(write_spec(tmp_path, text.replace("opt-product, min-min", policies)
                             .replace("methods = analytic", "methods = analytic, montecarlo")))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("variable = avg_snr_db\nmin = -10\nmax = 30", "variable = threshold\nmin = 1\nmax = 5"),
            ("target_snr_db = 5", "target_snr_db = 5\nthreshold = 3"),
        ],
    )
    def test_threshold_with_the_other_models_optimum_exits_2(self, tmp_path, capsys, old, new):
        # a feedback threshold filters on the model's score: opt-sum cannot take one under the power law
        text = GOOD_SPEC.format(out=tmp_path / "o.csv").replace(old, new)
        with pytest.raises(SpecError, match="opt-product"):
            load_spec(write_spec(tmp_path, text.replace("opt-product, min-min", "opt-sum, min-min")))
        load_spec(write_spec(tmp_path, text))  # the model's own optimum takes it
        bad = write_spec(tmp_path, text.replace("opt-product, min-min", "opt-product, opt-sum"))
        assert main(["run", "--spec", bad]) == 2
        assert "opt-sum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, policies",
        [
            ("target_snr_db = 5", "target_snr_db = 5\nthreshold = nan", "min-min"),
            ("target_snr_db = 5", "target_snr_db = 5\nthreshold = -3", "min-min"),
            ("variable = avg_snr_db\nmin = -10\nmax = 30", "variable = threshold\nmin = -1\nmax = 2",
             "min-min, mid-point"),
        ],
    )
    def test_threshold_is_checked_whatever_the_policies(self, tmp_path, capsys, old, new, policies):
        # baselines read no threshold, but one that no optimum could take is refused all the same
        text = GOOD_SPEC.format(out=tmp_path / "o.csv").replace(old, new)
        spec = write_spec(tmp_path, text.replace("opt-product, min-min", policies))
        with pytest.raises(SpecError, match="feedback_threshold must be > 0"):
            load_spec(spec)
        assert main(["run", "--spec", spec]) == 2
        assert "feedback_threshold must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_baselines_ignore_a_valid_threshold(self, tmp_path):
        text = GOOD_SPEC.format(out=tmp_path / "o.csv").replace("target_snr_db = 5", "target_snr_db = 5\nthreshold = 3")
        assert load_spec(write_spec(tmp_path, text.replace("opt-product, min-min", "min-min"))).threshold == 3.0

    @pytest.mark.parametrize(
        "old, new",
        [
            pytest.param("d = 1.2\n", "d = 1.2\nd = 1.3\n", id="repeated-key"),
            pytest.param("[scenario]\n", "", id="no-section-header"),
            pytest.param("[sweep]\n", "[sweep]\na line with no separator\n", id="unparsable-line"),
        ],
    )
    def test_malformed_spec_file_exits_2(self, tmp_path, capsys, old, new):
        spec = write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv").replace(old, new))
        with pytest.raises(SpecError, match="malformed spec file"):
            load_spec(spec)
        assert main(["run", "--spec", spec]) == 2
        assert f"malformed spec file '{spec}'" in capsys.readouterr().err

    def test_percent_sign_in_a_value_is_literal(self, tmp_path):
        # no interpolation: a '%' is part of the value, not a syntax error
        out = tmp_path / "o%.csv"
        assert main(["run", "--spec", write_spec(tmp_path, GOOD_SPEC.format(out=out))]) == 0
        assert out.read_text().startswith("sweep_var,")

    def test_unset_optional_keys_take_network_config_defaults(self, tmp_path):
        text = GOOD_SPEC.format(out=tmp_path / "o.csv")
        text = text.replace("eta = 4\n", "").replace("target_snr_db = 5\n", "")
        text = text.replace("variable = avg_snr_db\nmin = -10\nmax = 30", "variable = n_elements\nmin = 2\nmax = 8")
        spec = load_spec(write_spec(tmp_path, text))
        scenario = dict(d=1.2, intensity=0.5, n_elements=8, model=PathLossModel.POWER_LAW)
        assert spec.scenario == scenario
        for value in spec.sweep_values():
            cfg, threshold = spec.config_at(value)
            assert threshold is None
            assert cfg == NetworkConfig(**dict(scenario, n_elements=int(value)))


class TestDbConversion:
    def test_zero_db_is_exactly_one(self):
        assert db_to_linear(0.0) == 1.0

    def test_round_trip(self):
        assert db_to_linear(5.0) == pytest.approx(10.0 ** 0.5, rel=1e-15)
        assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)

    def test_config_at_converts_at_boundary(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv")))
        cfg, _ = spec.config_at(0.0)
        assert cfg.avg_snr == 1.0
        assert cfg.target_snr == pytest.approx(10.0 ** 0.5)


class TestRun:
    def test_rows_and_determinism(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv")))
        rows1 = run_experiment(spec)
        rows2 = run_experiment(spec)
        assert rows1 == rows2
        assert rows1[0] == ["sweep_var", "policy", "method", "metric", "value", "std_error"]
        # analytic rows only for the optimum policy; mc rows for both
        analytic_rows = [r for r in rows1[1:] if r[2] == "analytic"]
        mc_rows = [r for r in rows1[1:] if r[2] == "montecarlo"]
        assert len(analytic_rows) == 3
        assert len(mc_rows) == 6
        assert all(r[5] == "" for r in analytic_rows)

    def test_analytic_and_mc_agree(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOOD_SPEC.format(out=tmp_path / "o.csv")))
        spec.trials = 20_000
        rows = run_experiment(spec)
        by_key = {}
        for r in rows[1:]:
            by_key.setdefault((r[0], r[1], r[3]), {})[r[2]] = r
        for (sweep, policy, metric), methods in by_key.items():
            if "analytic" not in methods:
                continue
            a = float(methods["analytic"][4])
            m = float(methods["montecarlo"][4])
            se = max(math.sqrt(a * (1 - a) / spec.trials), 1e-9)
            assert abs(a - m) <= 4 * se, (sweep, policy, metric)

    def test_csv_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        spec_path = write_spec(tmp_path, GOOD_SPEC.format(out=out1))
        assert main(["run", "--spec", spec_path]) == 0
        assert main(["run", "--spec", spec_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_independent_of_worker_count(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        spec_path = write_spec(tmp_path, GOOD_SPEC.format(out=out1))
        monkeypatch.setenv("RIS_SELECT_THREADS", "1")
        assert main(["run", "--spec", spec_path]) == 0
        monkeypatch.setenv("RIS_SELECT_THREADS", "2")
        assert main(["run", "--spec", spec_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_analytic_exp_sweep_emits_no_warning(self, tmp_path):
        text = GOOD_SPEC.format(out=tmp_path / "e.csv").replace("model = power", "model = exp")
        text = text.replace("eta = 4", "alpha = 1.037").replace("n_elements = 8", "n_elements = 16")
        text = text.replace("steps = 3", "steps = 17").replace("metrics = outage", "metrics = outage, rate")
        text = text.replace("policies = opt-product, min-min", "policies = opt-sum\nmethods = analytic")
        spec = load_spec(write_spec(tmp_path, text, "exp.ini"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_experiment(spec)
        assert len(rows) == 1 + 17 * 2

    def test_threshold_sweep(self, tmp_path):
        text = GOOD_SPEC.format(out=tmp_path / "t.csv")
        text = text.replace("variable = avg_snr_db", "variable = threshold")
        text = text.replace("min = -10", "min = 1").replace("max = 30", "max = 5")
        text = text.replace("policies = opt-product, min-min", "policies = opt-product")
        spec = load_spec(write_spec(tmp_path, text, "thr.ini"))
        rows = run_experiment(spec)
        analytic_vals = [float(r[4]) for r in rows[1:] if r[2] == "analytic"]
        assert len(analytic_vals) == 3
        # outage is non-increasing in the feedback threshold
        assert all(b <= a + 1e-12 for a, b in zip(analytic_vals, analytic_vals[1:]))

    def test_n_elements_point_runs_at_the_rounded_count_under_its_own_label(self, tmp_path):
        text = GOOD_SPEC.format(out=tmp_path / "n.csv")
        text = text.replace("variable = avg_snr_db", "variable = n_elements")
        text = text.replace("min = -10", "min = 1").replace("max = 30", "max = 4")
        text = text.replace("policies = opt-product, min-min", "policies = opt-product\nmethods = analytic")
        spec = load_spec(write_spec(tmp_path, text, "n.ini"))
        rows = run_experiment(spec)
        assert [r[0] for r in rows[1:]] == ["1", "2.5", "4"]
        cfg, _ = spec.config_at(2.5)
        assert cfg.n_elements == 2  # round half to even
        assert rows[2][4] == f"{analytic.outage_pow(cfg):.12g}"


GOLDEN_SPEC = """\
[scenario]
d = 1.2
intensity = 0.5
n_elements = {n}
model = {model}
avg_snr_db = {snr}
target_snr_db = 5

[sweep]
variable = {var}
min = {lo}
max = {hi}
steps = {steps}

[run]
policies = {policies}
methods = {methods}
metrics = {metrics}
trials = {trials}
fading_draws = 4
seed = 11
output = unused.csv
"""

# sha256 of the header and the Monte Carlo rows (comma-joined cells,
# newline-joined rows), recorded under the seed contract in which each
# geometry group of a sweep is one pass seeded by SeedSequence([seed, group])
# and every policy and point of the group reads the same realizations, with
# each trial's nodes in increasing distance from the anchors' midpoint, the
# k-th of every trial from the k-th n unit exponentials of the chunk's stream
# jumped ahead and the k-th n points of the chunk's stream that rejection
# from the bounding square keeps, and fading draws-major
# in blocks of 4096 trials, each block from a stream spawned from its
# chunk's, every unit exponential -log(1 - U) of a float32 uniform U, two
# per 64-bit generator word, each term formed in float32 and Z summed in
# float64; any change to a Monte Carlo CSV byte changes them.  numpy picks
# its float32 and float64 log kernels per CPU: these were recorded on an
# x86-64 Xeon with AVX-512 under numpy 2.4.6
GOLDEN = {
    "power-snr-all-policies": (
        dict(n=8, model="power", snr=0, var="avg_snr_db", lo=-10, hi=30, steps=3,
             policies="opt-product, min-min, min-max, mid-point", methods="analytic, montecarlo",
             metrics="outage, rate", trials=2000),
        "71cb9116db41c3dae7e337431307cbc193206ed0ab0ae975bfa639cbbf657f70",
    ),
    "exp-threshold-feedback": (
        dict(n=16, model="exp", snr=10, var="threshold", lo=3, hi=9, steps=3,
             policies="opt-sum, min-min", methods="analytic, montecarlo",
             metrics="outage, rate", trials=2000),
        "26d72741da6d05a12f286a57c2e5cdcf9f9e886ee60a5bd40b919421e789b1ed",
    ),
    "outage-only": (
        dict(n=16, model="exp", snr=0, var="intensity", lo=0.2, hi=1.0, steps=2,
             policies="opt-sum, mid-point", methods="montecarlo", metrics="outage", trials=2000),
        "3548876209e6fcd49f439e1edfd53f0c6d4a3488b812f35b6bcaae311cebde8d",
    ),
    "rate-only": (
        dict(n=4, model="power", snr=5, var="n_elements", lo=4, hi=16, steps=2,
             policies="opt-product, min-max", methods="montecarlo", metrics="rate", trials=2000),
        "7de2c699f9993c29ff33947399226164f9d16c35b07de49a7594e703e3fb25b4",
    ),
    "two-chunks": (
        dict(n=4, model="exp", snr=5, var="avg_snr_db", lo=0, hi=10, steps=2,
             policies="opt-sum, min-max", methods="montecarlo", metrics="outage, rate", trials=8193),
        "5d03f8eabff5c7c0ba36422d5f98668880b9ab7b8eb9aa22f5d9be228b144c64",
    ),
    # two full chunks and a 1-trial tail: at two workers a real pool child
    # runs the second chunk
    "three-chunks": (
        dict(n=4, model="exp", snr=5, var="avg_snr_db", lo=0, hi=10, steps=2,
             policies="opt-sum, min-max", methods="montecarlo", metrics="outage, rate",
             trials=2 * 8192 + 1),
        "f87cbbc0f495d4063e5f588f7555571f9a4bad88370ba736cf4e803f428f9937",
    ),
}


# (sweep value, metric) -> value of the analytic rows, from independent
# adaptive quadrature: 1 - F at the score cap for outage; rate_fading_quad
# (relative tolerance 1e-12) integrated against pdf_upsilon_opt in the
# score for the power law and against the Exp(1) variable lam * area for
# the exponential law
GOLDEN_ANALYTIC = {
    "power-snr-all-policies": {
        ("-10", "outage"): 0.50139513093279,
        ("-10", "rate"): 2.907195645228009,
        ("10", "outage"): 0.006085097467513179,
        ("10", "rate"): 8.755878463948344,
        ("30", "outage"): 4.8517812101245283e-08,
        ("30", "rate"): 15.37434214426129,
    },
    "exp-threshold-feedback": {
        ("3", "outage"): 0.1199626252247541,
        ("3", "rate"): 5.971522399387822,
        ("6", "outage"): 2.359814546437633e-06,
        ("6", "rate"): 6.64148888299594,
        ("9", "outage"): 2.0627412092855124e-06,
        ("9", "rate"): 6.641493158158571,
    },
}


def _digest(rows) -> str:
    return hashlib.sha256("\n".join(",".join(row) for row in rows).encode()).hexdigest()


class TestGoldenRows:
    @pytest.mark.parametrize(
        "name, workers",
        [(name, 1) for name in GOLDEN] + [("two-chunks", 2), ("three-chunks", 2)],
    )
    def test_rows_match_recorded_digest(self, tmp_path, name, workers):
        params, digest = GOLDEN[name]
        spec = load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params)))
        rows = run_experiment(spec, workers=workers)
        assert _digest([rows[0]] + [r for r in rows[1:] if r[2] == "montecarlo"]) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN_ANALYTIC))
    def test_analytic_rows_match_oracle(self, tmp_path, name):
        params, _ = GOLDEN[name]
        spec = load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params)))
        got = {(r[0], r[3]): float(r[4]) for r in run_experiment(spec)[1:] if r[2] == "analytic"}
        assert got.keys() == GOLDEN_ANALYTIC[name].keys()
        for key, want in GOLDEN_ANALYTIC[name].items():
            assert got[key] == pytest.approx(want, rel=1e-9), key

    def test_run_opens_one_pool(self, tmp_path, monkeypatch):
        sizes = []

        class CountingPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        for name, want in (("two-chunks", []), ("three-chunks", [1])):
            sizes.clear()
            params, digest = GOLDEN[name]
            spec = load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params)))
            rows = run_experiment(spec, workers=8)
            # one pass serves all four MC cells; a 1-trial tail chunk is no
            # share for a child, so two chunks and a tail fork one child
            assert sizes == want, name
            assert _digest(rows) == digest

    def test_one_process_run_draws_fading_on_threads(self, tmp_path, monkeypatch):
        mapped = []

        class CountingThreads(montecarlo._ThreadTeam):
            def map(self, fn, tasks):
                mapped.append(len(tasks))
                return super().map(fn, tasks)

        monkeypatch.setattr(montecarlo, "_ThreadTeam", CountingThreads)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        params, digest = GOLDEN["two-chunks"]
        spec = load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params)))
        rows = run_experiment(spec, workers=2)
        # one chunk and a 1-trial tail run in this process; the chunk's
        # second fading block goes to one other thread, and the tail's one
        # block is drawn with no team
        assert mapped == [1]
        assert _digest(rows) == digest


class TestRunCost:
    def test_rate_sweep_solves_tail_once(self, tmp_path, monkeypatch):
        # the product-score rule depends on neither the SNR nor N, so a
        # 17-point SNR sweep finds the 1e-14 score tail once
        calls = []
        original = analytic.critical_score

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analytic, "critical_score", counting)
        analytic._product_score_rule.cache_clear()
        params = dict(n=16, model="power", snr=0, var="avg_snr_db", lo=-10, hi=30, steps=17,
                      policies="opt-product", methods="analytic", metrics="rate", trials=1000)
        rows = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params))))
        assert len(rows) == 18
        assert len(calls) == 1

    def test_exp_rate_sweep_solves_tail_once(self, tmp_path, monkeypatch):
        # nor does the sum-score rule
        calls = []
        original = analytic.critical_score

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analytic, "critical_score", counting)
        analytic._sum_score_rule.cache_clear()
        params = dict(n=16, model="exp", snr=0, var="avg_snr_db", lo=-10, hi=30, steps=17,
                      policies="opt-sum", methods="analytic", metrics="rate", trials=1000)
        rows = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params))))
        assert len(rows) == 18
        assert len(calls) == 1

    @pytest.mark.parametrize("model, policy", [("power", "opt-product"), ("exp", "opt-sum")])
    def test_rate_sweep_builds_fading_table_once(self, tmp_path, monkeypatch, model, policy):
        # the fading average depends on t and N only, so a 17-point SNR sweep
        # at one N tabulates it once
        builds = []
        original = analytic._average_table

        def counting(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(analytic, "_average_table", counting)
        analytic._fading_table.cache_clear()
        params = dict(n=16, model=model, snr=0, var="avg_snr_db", lo=-10, hi=30, steps=17,
                      policies=policy, methods="analytic", metrics="rate", trials=1000)
        rows = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params))))
        assert len(rows) == 18
        assert len(builds) == 1

    @pytest.mark.parametrize("model, policy", [("power", "opt-product"), ("exp", "opt-sum")])
    def test_rate_sweep_reads_fading_table_once(self, tmp_path, monkeypatch, model, policy):
        # one analytic.rate_sweep call per spec, and its 17 SNRs share one
        # table read; no cell goes through the one-cell rate_pow or rate_exp
        sweeps, reads = [], []
        rate_sweep, averages = analytic.rate_sweep, analytic._fading_averages

        def recording_sweep(cells, *args):
            sweeps.append(len(cells))
            return rate_sweep(cells, *args)

        def recording_averages(group_reads):
            reads.append(len(group_reads))
            return averages(group_reads)

        def boom(*args, **kwargs):
            raise AssertionError("run reads its rates through rate_sweep")

        monkeypatch.setattr(analytic, "rate_sweep", recording_sweep)
        monkeypatch.setattr(analytic, "_fading_averages", recording_averages)
        monkeypatch.setattr(analytic, "rate_pow", boom)
        monkeypatch.setattr(analytic, "rate_exp", boom)
        params = dict(n=16, model=model, snr=0, var="avg_snr_db", lo=-10, hi=30, steps=17,
                      policies=f"{policy}, min-min", methods="analytic", metrics="outage, rate", trials=1000)
        rows = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params))))
        assert len(rows) == 35
        assert sweeps == [17]
        assert len(reads) == 1

    @pytest.mark.parametrize(
        "model, policy, var, lo, hi",
        [
            pytest.param("power", "opt-product", "avg_snr_db", -10, 30, id="power-opt-product"),
            pytest.param("exp", "opt-sum", "avg_snr_db", -10, 30, id="exp-opt-sum"),
            pytest.param("power", "opt-product", "n_elements", 1, 257, id="power-opt-product-n_elements"),
            pytest.param("exp", "opt-sum", "n_elements", 1, 257, id="exp-opt-sum-n_elements"),
            pytest.param("power", "opt-product", "threshold", 0.5, 8.5, id="power-opt-product-threshold"),
            pytest.param("exp", "opt-sum", "threshold", 1, 9, id="exp-opt-sum-threshold"),
        ],
    )
    def test_rows_do_not_depend_on_the_sweep_around_them(self, tmp_path, model, policy, var, lo, hi):
        # the 17-point sweep reads the tables for 17 points at once, its 9
        # odd points (the first, third, ..., last) for 9: the same rows,
        # whether the points differ in SNR, in element count (one table
        # each) or in threshold (one score rule each; at or below 2d none
        # under the exponential law)
        params = dict(n=16, model=model, snr=0, var=var, lo=lo, hi=hi, policies=policy,
                      methods="analytic", metrics="outage, rate", trials=1000)
        full = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params, steps=17), "full.ini")))
        odd = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params, steps=9), "odd.ini")))
        labels = [row[0] for row in full[1::2]]
        assert len(full) == 35 and len(odd) == 19
        assert full[:1] + [row for row in full[1:] if row[0] in labels[::2]] == odd

    def test_run_imports_no_scipy(self, tmp_path):
        # a fresh interpreter: a one-worker run loads numpy only (neither
        # scipy, genhyp's decimal, numpy.ma, numpy.fft, numpy.polynomial nor
        # the executor stack), and the oracles and `validate` still load
        # scipy when they are called
        specs = [
            dict(n=8, model="power", snr=0, var="avg_snr_db", lo=-10, hi=30, steps=3,
                 policies="opt-product, min-min"),
            dict(n=16, model="exp", snr=10, var="threshold", lo=3, hi=9, steps=3,
                 policies="opt-sum, min-min"),
        ]
        paths = [
            write_spec(tmp_path, GOLDEN_SPEC.format(**params, methods="analytic, montecarlo",
                                                    metrics="outage, rate", trials=200), f"s{i}.ini")
            for i, params in enumerate(specs)
        ]
        # and first an analytic-only sweep over N, which loads no numpy.random
        # (importing it and its secrets and _hashlib after numpy raised peak
        # RSS by 6.1 MB on an x86-64 Linux box)
        analytic_only = write_spec(tmp_path, GOLDEN_SPEC.format(
            n=16, model="exp", snr=0, var="n_elements", lo=1, hi=256, steps=5, policies="opt-sum",
            methods="analytic", metrics="outage, rate", trials=200), "analytic.ini")
        script = """
import sys
from ris_select import analytic, cli
from ris_select.channel import NetworkConfig, PathLossModel

rows = cli.run_experiment(cli.load_spec(sys.argv[1]))
assert len(rows) == 11 and {r[2] for r in rows[1:]} == {"analytic"}, rows
loaded = sorted(m for m in sys.modules if m in ("numpy.random", "secrets", "_hashlib"))
assert not loaded, loaded
for path in sys.argv[2:]:
    rows = cli.run_experiment(cli.load_spec(path))
    assert {r[2] for r in rows[1:]} == {"analytic", "montecarlo"}, rows
forbidden = ("scipy", "decimal", "numpy.ma", "numpy.fft", "numpy.polynomial",
             "concurrent.futures", "multiprocessing", "socket", "subprocess", "logging")
loaded = sorted(m for m in sys.modules if m in forbidden or m.startswith("scipy."))
assert not loaded, loaded
cfg = NetworkConfig(d=1.2, intensity=0.5, n_elements=16, model=PathLossModel.POWER_LAW)
assert abs(analytic.rate_fading_quad(1.0, cfg) / analytic.rate_fading_closed(1.0, cfg) - 1) < 1e-4
assert cli.main(["validate", "--trials", "1500", "--seed", "1"]) == 0
assert "scipy.integrate" in sys.modules and "scipy.stats" in sys.modules
"""
        src = str(Path(ris_select.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, analytic_only, *paths], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "13/13 checks passed" in done.stdout

    def test_one_process_run_on_two_threads_imports_no_executor(self, tmp_path):
        # a fresh interpreter with two usable CPUs: at two workers one chunk
        # and a 1-trial tail run in this process, whose fading team starts
        # a second thread with neither concurrent.futures nor logging, and
        # the rows are the one-worker rows
        params = dict(n=16, model="exp", snr=10, var="threshold", lo=3, hi=9, steps=3,
                      policies="opt-sum, min-min", methods="analytic, montecarlo",
                      metrics="outage, rate", trials=8193)
        path = write_spec(tmp_path, GOLDEN_SPEC.format(**params))
        script = """
import sys
from ris_select import cli, montecarlo

montecarlo.os.sched_getaffinity = lambda pid: {0, 1}
rounds = []
team_map = montecarlo._ThreadTeam.map
montecarlo._ThreadTeam.map = lambda self, fn, tasks: rounds.append(len(tasks)) or team_map(self, fn, tasks)
spec = cli.load_spec(sys.argv[1])
two = cli.run_experiment(spec, workers=2)
assert rounds == [1], rounds
forbidden = ("concurrent.futures", "logging", "queue", "numpy.polynomial")
loaded = sorted(m for m in sys.modules if m in forbidden)
assert not loaded, loaded
assert two == cli.run_experiment(spec, workers=1)
"""
        src = str(Path(ris_select.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, path], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


# one spec per sweep variable; only the intensity sweep moves the geometry
ORACLE = {
    "avg_snr_db": dict(n=8, model="power", snr=0, var="avg_snr_db", lo=-10, hi=20, steps=3,
                       policies="opt-product, min-min, mid-point"),
    "n_elements": dict(n=4, model="power", snr=5, var="n_elements", lo=2, hi=8, steps=3,
                       policies="opt-product, min-max"),
    "threshold": dict(n=16, model="exp", snr=10, var="threshold", lo=3, hi=9, steps=3,
                      policies="opt-sum, min-min"),
    "intensity": dict(n=4, model="exp", snr=5, var="intensity", lo=0.3, hi=0.9, steps=2,
                      policies="opt-sum, mid-point"),
}


def _mc_values(rows, metric):
    """(sweep value, policy) -> float value of the Monte Carlo rows of one metric."""
    return {(r[0], r[1]): float(r[4]) for r in rows[1:] if r[2] == "montecarlo" and r[3] == metric}


class TestSharedRealizations:
    @pytest.mark.parametrize("trials, workers", [(500, 1), (500, 2), (8193, 1), (8193, 2)])
    @pytest.mark.parametrize("name", sorted(ORACLE))
    def test_cells_equal_one_cell_estimator(self, tmp_path, name, trials, workers):
        params = dict(ORACLE[name], methods="montecarlo", metrics="outage, rate", trials=trials)
        spec = load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params)))
        rows = run_experiment(spec, workers=workers)

        # the seed contract: geometry group g draws from SeedSequence([seed, g]),
        # and each cell equals its result in a sweep of that cell alone
        points = [(value, *spec.config_at(value)) for value in spec.sweep_values()]
        groups = [[i] for i in range(len(points))] if name == "intensity" else [range(len(points))]
        want = {}
        for g, members in enumerate(groups):
            cells = {
                (i, kind): (points[i][1], _policy_obj(kind, points[i][2]))
                for i in members for kind in spec.policies
            }
            for key, cell in cells.items():
                rng = np.random.default_rng(np.random.SeedSequence([spec.seed, g]))
                [want[key]] = montecarlo.mc_sweep([cell], trials, spec.fading_draws, rng)
        expected = [rows[0]]
        for i, (value, _, _) in enumerate(points):
            for kind in spec.policies:
                for metric, est in zip(("outage", "rate"), want[i, kind]):
                    expected.append([f"{value:.12g}", kind.value, "montecarlo", metric,
                                     f"{est.mean:.12g}", f"{est.std_error:.12g}"])
        assert rows == expected

    def test_intensity_sweep_of_one_value_is_one_group(self, tmp_path):
        # points with the same intensity, d and model share one sample group,
        # so both points of this sweep read the same realizations
        params = dict(ORACLE["intensity"], lo=0.5, hi=0.5, methods="montecarlo",
                      metrics="outage, rate", trials=500)
        rows = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params))))
        first, second = rows[1:5], rows[5:]
        assert len(second) == 4
        assert first == second

    def test_snr_sweep_orders_policies_and_points(self, tmp_path):
        params = dict(n=8, model="power", snr=0, var="avg_snr_db", lo=-10, hi=30, steps=5,
                      policies="opt-product, min-min, min-max, mid-point", methods="montecarlo",
                      metrics="outage, rate", trials=3000)
        rows = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params))))
        outage, rate = _mc_values(rows, "outage"), _mc_values(rows, "rate")
        values = sorted({v for v, _ in outage}, key=float)
        baselines = ("min-min", "min-max", "mid-point")
        for v in values:
            for other in baselines:
                assert outage[v, "opt-product"] <= outage[v, other]
                assert rate[v, "opt-product"] >= rate[v, other]
        for policy in ("opt-product",) + baselines:
            for lo, hi in zip(values, values[1:]):
                assert outage[hi, policy] <= outage[lo, policy]
                assert rate[hi, policy] >= rate[lo, policy]

    def test_threshold_sweep_feedback_monotone_baseline_fixed(self, tmp_path):
        params = dict(n=16, model="exp", snr=10, var="threshold", lo=2.5, hi=6, steps=6,
                      policies="opt-sum, min-min", methods="montecarlo",
                      metrics="outage, rate", trials=3000)
        rows = run_experiment(load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params))))
        outage = _mc_values(rows, "outage")
        values = sorted({v for v, _ in outage}, key=float)
        feedback = [outage[v, "opt-sum"] for v in values]
        assert all(b <= a for a, b in zip(feedback, feedback[1:]))
        assert feedback[0] > feedback[-1]
        baseline = [r[1:] for r in rows[1:] if r[1] == PolicyKind.MIN_MIN.value]
        assert len(baseline) == 2 * len(values)
        assert baseline == baseline[:2] * len(values)


class TestSubcommands:
    def test_outage_exit_zero(self, capsys):
        assert main(["outage", "--model", "power", "--snr-db", "5", "--trials", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out and "montecarlo" in out

    def test_distance_dist_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "dd.csv"
        code = main([
            "distance-dist", "--model", "exp", "--trials", "4000", "--seed", "2",
            "--grid-points", "10", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,analytic_cdf,empirical_cdf,dkw_lo,dkw_hi"
        assert len(lines) == 11

    @pytest.mark.parametrize("model", ["power", "exp"])
    def test_distance_dist_levels_are_the_analytic_quantiles(self, monkeypatch, tmp_path, model):
        name = "cdf_upsilon_opt" if model == "power" else "cdf_lambda_opt"
        original, values = getattr(analytic, name), []

        def recording(gamma, dist):
            values.append(original(gamma, dist))
            return values[-1]

        monkeypatch.setattr(analytic, name, recording)
        argv = ["distance-dist", "--model", model, "--trials", "500", "--out", str(tmp_path / "dd.csv")]
        assert main(argv) == 0
        assert values == pytest.approx(np.linspace(0.025, 0.975, 20).tolist(), rel=0, abs=1e-12)

    def test_unset_flags_take_network_config_defaults(self, monkeypatch, capsys):
        seen = []

        def fake_outage(cfg, policy, n_trials, rng, workers=1):
            seen.append(cfg)
            return montecarlo.Estimate(mean=0.5, std_error=0.0, n_trials=n_trials)

        monkeypatch.setattr(montecarlo, "mc_outage", fake_outage)
        assert main(["outage", "--model", "exp", "--trials", "10"]) == 0
        assert seen == [NetworkConfig(d=1.2, intensity=0.5, n_elements=16, model=PathLossModel.EXP_LAW)]

    def test_feedback_requires_threshold(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["feedback", "--model", "exp", "--trials", "500"])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_feedback_reports_mean(self, capsys):
        assert main(["feedback", "--model", "exp", "--threshold", "20", "--trials", "800", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        xi = float(out.splitlines()[0].split("=")[1])
        assert xi == pytest.approx(155.9445582, rel=1e-6)

    def test_feedback_with_too_few_bins_prints_both_means(self, capsys):
        # xi ~ 0.002: no chi-square test can be formed, as when xi = 0
        assert main(["feedback", "--model", "exp", "--threshold", "2.400001", "--trials", "1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("analytic mean") and lines[1].startswith("simulated mean")
        assert lines[2].endswith("p = nan")

    def test_rate_subcommand(self, capsys):
        assert main([
            "rate", "--model", "exp", "--snr-db", "0", "--trials", "2000",
            "--fading-draws", "4", "--seed", "4",
        ]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["outage", "--trials", "0"],
            ["rate", "--fading-draws", "0"],
            ["rate", "--trials", "-2"],
            ["distance-dist", "--grid-points", "0"],
            ["feedback", "--threshold", "5", "--trials", "0"],
            ["validate", "--trials", "0"],
        ],
    )
    def test_counts_below_one_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["outage", "--seed", "-1"],
            ["rate", "--seed", "-1"],
            ["distance-dist", "--seed", "-1"],
            ["feedback", "--threshold", "5", "--seed", "-1"],
            ["validate", "--seed", "-1"],
        ],
    )
    def test_negative_seed_exits_2(self, capsys, argv):
        assert main(argv + ["--trials", "100"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    def test_seed_zero_runs(self, capsys):
        assert main(["outage", "--seed", "0", "--trials", "100"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance-dist", "--policy", "min-min"],
            ["distance-dist", "--threshold", "0.5"],
            ["distance-dist", "--fading-draws", "4"],
            ["feedback", "--threshold", "5", "--policy", "min-min"],
            ["feedback", "--threshold", "5", "--fading-draws", "4"],
            ["outage", "--fading-draws", "4"],
            ["outage", "--grid-points", "4"],
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        # a flag that would change nothing is refused, not silently ignored
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trials", "100"])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["outage", "--d", "-1"], "d must be > 0"),
            (["outage", "--n-elements", "0"], "n_elements must be a positive integer"),
            (["rate", "--threshold", "-1"], "--threshold must be > 0"),
            (["distance-dist", "--intensity", "0"], "intensity must be > 0"),
            (["feedback", "--threshold", "0"], "--threshold must be > 0"),
            (["rate", "--snr-db", "nan"], "avg_snr must be > 0 and finite"),
            (["rate", "--snr-db", "inf"], "avg_snr must be > 0 and finite"),
            (["outage", "--d", "nan"], "d must be > 0 and finite"),
            (["outage", "--intensity", "nan"], "intensity must be > 0 and finite"),
            (["outage", "--target-snr-db", "nan"], "target_snr must be >= 0"),
            # a baseline reads no threshold: the flag is refused, not dropped
            (["outage", "--policy", "min-min", "--threshold", "3"], "apply only to optimum policies, got min-min"),
            (["rate", "--policy", "mid-point", "--threshold", "3"], "apply only to optimum policies, got mid-point"),
        ],
    )
    def test_scenario_flag_out_of_range_exits_2(self, capsys, argv, match):
        assert main(argv + ["--trials", "100"]) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "outage"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        # the write comes after the whole estimate, and its OSError is an argument error
        out = tmp_path / "missing" / "x.csv"
        argv = ["run", "--spec", write_spec(tmp_path, GOOD_SPEC.format(out="o.csv"))] if command == "run" else [command]
        assert main(argv + ["--trials", "100", "--out", str(out)]) == 2
        assert f"cannot write '{out}'" in capsys.readouterr().err

    def test_fading_draws_beyond_the_budget_exit_3(self, capsys):
        draws = montecarlo._FADING_BUDGET // montecarlo._CHUNK_TRIALS + 1
        assert main(["rate", "--fading-draws", str(draws), "--trials", "10000"]) == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["outage", "rate"])
    def test_threshold_with_the_other_models_optimum_exits_2(self, capsys, command):
        argv = [command, "--model", "exp", "--threshold", "5", "--trials", "200"]
        assert main(argv + ["--policy", "opt-product"]) == 2
        assert "opt-product" in capsys.readouterr().err
        assert main(argv + ["--policy", "opt-sum"]) == 0

    def test_validate_all_checks_pass(self, capsys):
        assert main(["validate", "--trials", "1500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out
