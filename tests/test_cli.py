"""CLI: spec parsing, exit codes, CSV determinism, dB conversion."""

import hashlib
import math
import warnings

import pytest

from ris_select import montecarlo
from ris_select.cli import (
    ExperimentSpec,
    SpecError,
    db_to_linear,
    load_spec,
    main,
    run_experiment,
)

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
# newline-joined rows).  These rows are the same as when outage and rate
# were estimated in separate selection passes with a process pool per
# estimator call; any change to a Monte Carlo CSV byte changes them
GOLDEN = {
    "power-snr-all-policies": (
        dict(n=8, model="power", snr=0, var="avg_snr_db", lo=-10, hi=30, steps=3,
             policies="opt-product, min-min, min-max, mid-point", methods="analytic, montecarlo",
             metrics="outage, rate", trials=2000),
        "bfe32f14da727ac2c2be747493c1c9ed41394abdf145d0f7ec8584913c88b99f",
    ),
    "exp-threshold-feedback": (
        dict(n=16, model="exp", snr=10, var="threshold", lo=3, hi=9, steps=3,
             policies="opt-sum, min-min", methods="analytic, montecarlo",
             metrics="outage, rate", trials=2000),
        "4a6ae5430a5ad6a33fd97dd7466b8a6ed15c346b767ab8810c7f0f98ce7e4861",
    ),
    "outage-only": (
        dict(n=16, model="exp", snr=0, var="intensity", lo=0.2, hi=1.0, steps=2,
             policies="opt-sum, mid-point", methods="montecarlo", metrics="outage", trials=2000),
        "dd91dd9aee41ec9e50b56f4315c1fed3d2670e97b6db34047de396ba2422798f",
    ),
    "rate-only": (
        dict(n=4, model="power", snr=5, var="n_elements", lo=4, hi=16, steps=2,
             policies="opt-product, min-max", methods="montecarlo", metrics="rate", trials=2000),
        "efb27f7fb8f6e236bfd5da1e54fae27890e238cd4504cc5a3e9ec4123595a123",
    ),
    "two-chunks": (
        dict(n=4, model="exp", snr=5, var="avg_snr_db", lo=0, hi=10, steps=2,
             policies="opt-sum, min-max", methods="montecarlo", metrics="outage, rate", trials=8193),
        "807457fc8e40fcc2461cc689b6127224a7e91d2cfa35144b96c7a80d94d20d49",
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
        [(name, 1) for name in GOLDEN] + [("two-chunks", 2)],
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
        params, digest = GOLDEN["two-chunks"]
        spec = load_spec(write_spec(tmp_path, GOLDEN_SPEC.format(**params)))
        rows = run_experiment(spec, workers=8)
        assert sizes == [2]  # four MC cells of two chunks each share one pool
        assert _digest(rows) == digest


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

    def test_feedback_requires_threshold(self, capsys):
        assert main(["feedback", "--model", "exp", "--trials", "500"]) == 2

    def test_feedback_reports_mean(self, capsys):
        assert main(["feedback", "--model", "exp", "--threshold", "20", "--trials", "800", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        xi = float(out.splitlines()[0].split("=")[1])
        assert xi == pytest.approx(155.9445582, rel=1e-6)

    def test_rate_subcommand(self, capsys):
        assert main([
            "rate", "--model", "exp", "--snr-db", "0", "--trials", "2000",
            "--fading-draws", "4", "--seed", "4",
        ]) == 0

    def test_validate_all_checks_pass(self, capsys):
        assert main(["validate", "--trials", "1500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out
