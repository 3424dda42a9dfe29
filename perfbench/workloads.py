"""Workload definitions: the `ris-select run` INI specs each workload runs.

Every workload uses d = 1.2, intensity = 0.5, 8 fading draws and a 5 dB
outage target.  The seed given on the command line becomes the spec's
``seed`` key, which seeds every Monte Carlo stream; the scenario grid itself
is fixed so that the stored references in ``reference.json`` apply to every
seed.  The analytic method draws no random numbers, so on `analytic-grid`
each seed produces the same rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

OPTIMUM_POLICY = {"power": "opt-product", "exp": "opt-sum"}


@dataclass(frozen=True)
class Spec:
    """One INI spec: scenario values, one swept variable, run options."""

    model: str
    n_elements: int
    avg_snr_db: float
    variable: str
    lo: float
    hi: float
    steps: int
    policies: tuple[str, ...]
    methods: tuple[str, ...]
    trials: int
    metrics: tuple[str, ...] = ("outage", "rate")
    fading_draws: int = 8
    workers: int = 1

    def ini(self, seed: int, output: str) -> str:
        return "\n".join(
            [
                "[scenario]",
                "d = 1.2",
                "intensity = 0.5",
                f"n_elements = {self.n_elements}",
                f"model = {self.model}",
                "eta = 4",
                "alpha = 1.037",
                f"avg_snr_db = {self.avg_snr_db}",
                "target_snr_db = 5",
                "",
                "[sweep]",
                f"variable = {self.variable}",
                f"min = {self.lo}",
                f"max = {self.hi}",
                f"steps = {self.steps}",
                "",
                "[run]",
                f"policies = {', '.join(self.policies)}",
                f"methods = {', '.join(self.methods)}",
                f"metrics = {', '.join(self.metrics)}",
                f"trials = {self.trials}",
                f"fading_draws = {self.fading_draws}",
                f"seed = {seed}",
                f"output = {output}",
                "",
            ]
        )

    def sweep_labels(self) -> list[str]:
        """Sweep values as they appear in the CSV's first column."""
        import numpy as np

        return [f"{v:.12g}" for v in np.linspace(self.lo, self.hi, self.steps)]

    def expected_cells(self) -> list[tuple[str, str, str, str]]:
        """(sweep value, policy, method, metric) of every row the spec yields.

        Analytic rows exist only for the policy that is optimal under the
        spec's path-loss law; Monte Carlo rows exist for every policy.
        """
        cells = []
        for value in self.sweep_labels():
            for policy in self.policies:
                for metric in self.metrics:
                    if "analytic" in self.methods and policy == OPTIMUM_POLICY[self.model]:
                        cells.append((value, policy, "analytic", metric))
                    if "montecarlo" in self.methods:
                        cells.append((value, policy, "montecarlo", metric))
        return cells


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[Spec, ...] = field(default_factory=tuple)


WORKLOADS = {
    w.name: w
    for w in (
        # Two workloads, not more: on a shared 2-vCPU machine the speed of
        # the same sweep drifts by about 20% within a minute, and only long
        # runs average that out, so the few runs a comparison can afford go
        # to two long workloads.  The Monte Carlo specs share one workload
        # so that analytic-grid stays free of Monte Carlo work.
        Workload(
            "mc-sweep",
            "snr-sweep and feedback-pool specs merged (two long workloads are steadier than three "
            "short): avg-SNR sweep, 4 policies, analytic+MC, 1 worker; feedback sweep, N=64, a pool "
            "per MC cell",
            specs=(
                # geometry is identical across all points and policies
                Spec("power", 16, 0, "avg_snr_db", -10, 30, 9,
                     ("opt-product", "min-min", "min-max", "mid-point"),
                     ("analytic", "montecarlo"), trials=10_000),
                # 8193 trials are one full chunk plus one trial: every MC cell
                # still starts a process pool and allocates the full fading
                # arrays, but the chunk work runs in one child at a time, so the
                # wall time does not hinge on the second vCPU being free
                Spec("exp", 64, 10, "threshold", 3, 12, 5, ("opt-sum", "min-min"),
                     ("montecarlo",), trials=8_193, workers=2),
            ),
        ),
        Workload(
            "analytic-grid",
            "closed-form outage and rate only (power and exp SNR sweeps, N sweep): analytic, "
            "specfun and quadrature do all the work, including the known slow cells",
            specs=(
                Spec("power", 16, 0, "avg_snr_db", -10, 30, 17, ("opt-product",), ("analytic",), 20_000),
                Spec("exp", 16, 0, "avg_snr_db", -10, 30, 17, ("opt-sum",), ("analytic",), 20_000),
                Spec("power", 16, 0, "n_elements", 1, 256, 17, ("opt-product",), ("analytic",), 20_000),
            ),
        ),
    )
}


def write_specs(workload: Workload, seed: int, outdir: Path) -> tuple[list[Path], str]:
    """Write the workload's INI files into outdir; return their paths and hash.

    The hash covers the spec texts, seed included, so it identifies the
    exact inputs of a run.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths = []
    for idx, spec in enumerate(workload.specs):
        path = outdir / f"spec{idx}.ini"
        text = spec.ini(seed, str(outdir / f"spec{idx}.csv"))
        path.write_text(text)
        digest.update(spec.ini(seed, f"spec{idx}.csv").encode())
        paths.append(path)
    return paths, digest.hexdigest()
