"""Apparent-convergence protocol over a shrinking truncation threshold.

Successive estimates O_n at delta_n = r^n * delta_0 run until either the
trailing window of estimates agrees within the tolerance, the latest run
time exceeds the CPU budget, or the step limit is reached.  The report
carries the estimate range and runtime extrapolations either way, so an
unconverged problem still yields a guiding range and a cost forecast.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .circuits import Circuit
from .engine import BudgetExceeded, RowCapExceeded, evolve, expectation
from .estimator import EstimationImpossible, predict_runtime
from .sums import PauliSum

__all__ = [
    "ConvergenceConfig",
    "ConvergenceStep",
    "ConvergenceReport",
    "Classification",
    "STATUS_CONVERGED",
    "STATUS_BUDGET",
    "STATUS_STEP_LIMIT",
    "run_protocol",
    "classify",
]

STATUS_CONVERGED = "apparently_converged"
STATUS_BUDGET = "budget_exhausted"
STATUS_STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class ConvergenceConfig:
    """Protocol knobs; defaults are paper-compatible orders of magnitude."""

    delta_0: float = 0.125
    ratio: float = 0.5
    eps_tol: float = 1e-2
    ell: int = 3
    t_cpu_s: float = 600.0
    max_steps: int = 40
    cumulative_budget_s: float | None = None

    def __post_init__(self):
        if self.delta_0 <= 0:
            raise ValueError(f"delta_0 must be positive, got {self.delta_0}")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.eps_tol <= 0:
            raise ValueError(f"eps_tol must be positive, got {self.eps_tol}")
        if self.ell < 2:
            raise ValueError(f"ell must be >= 2, got {self.ell}")
        if self.t_cpu_s <= 0:
            raise ValueError(f"t_cpu_s must be positive, got {self.t_cpu_s}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    def delta_at(self, n: int) -> float:
        return (self.ratio**n) * self.delta_0

    def to_json_dict(self) -> dict:
        return {
            "delta_0": self.delta_0,
            "ratio": self.ratio,
            "eps_tol": self.eps_tol,
            "ell": self.ell,
            "t_cpu_s": self.t_cpu_s,
            "max_steps": self.max_steps,
            "cumulative_budget_s": self.cumulative_budget_s,
        }


@dataclass
class ConvergenceStep:
    n: int
    delta: float
    estimate: float
    runtime_s: float
    n_max: int


@dataclass
class ConvergenceReport:
    config: ConvergenceConfig
    steps: list[ConvergenceStep] = field(default_factory=list)
    status: str = STATUS_STEP_LIMIT
    final_estimate: float | None = None
    window: list[float] = field(default_factory=list)
    estimate_range: tuple[float, float] | None = None
    extrapolated_runtime_s: list[float] | None = None
    local_minimum_risk: bool = False
    aborted_step: dict | None = None

    def estimates(self) -> list[float]:
        return [s.estimate for s in self.steps]

    def to_json_dict(self, include_timings: bool = True) -> dict:
        """Report payload; timings are optional so the deterministic core
        can be written byte-stably (runtimes vary between executions)."""
        steps = []
        for s in self.steps:
            row = {"n": s.n, "delta": s.delta, "estimate": s.estimate, "n_max": s.n_max}
            if include_timings:
                row["runtime_s"] = s.runtime_s
            steps.append(row)
        out = {
            "config": self.config.to_json_dict(),
            "steps": steps,
            "status": self.status,
            "final_estimate": self.final_estimate,
            "window": self.window,
            "estimate_range": list(self.estimate_range) if self.estimate_range else None,
            "local_minimum_risk": self.local_minimum_risk,
        }
        if include_timings:
            out["extrapolated_runtime_s"] = self.extrapolated_runtime_s
            out["aborted_step"] = self.aborted_step
        elif self.aborted_step is not None:
            out["aborted_step"] = {
                k: v for k, v in self.aborted_step.items() if k != "runtime_s"
            }
        return out

    def timing_json_dict(self) -> dict:
        return {
            "runtimes_s": [s.runtime_s for s in self.steps],
            "extrapolated_runtime_s": self.extrapolated_runtime_s,
            "aborted_step": self.aborted_step,
        }


@dataclass
class Classification:
    """Two-regime verdict: a trusted value or a guiding range plus costs."""

    kind: str  # "converged" | "unconverged"
    value: float | None = None
    window: list[float] | None = None
    estimate_range: tuple[float, float] | None = None
    extrapolated_costs: list[float] | None = None


def _finish(report: ConvergenceReport) -> ConvergenceReport:
    ests = report.estimates()
    if ests:
        report.estimate_range = (min(ests), max(ests))
    if report.status == STATUS_CONVERGED:
        report.final_estimate = ests[-1]
        report.window = ests[-report.config.ell:]
        if len(ests) > report.config.ell:
            widened = ests[-(report.config.ell + 1):]
            report.local_minimum_risk = (max(widened) - min(widened)) > report.config.eps_tol
    # runtime extrapolation for the next two steps, whatever the status
    if len(report.steps) >= 2:
        next_n = report.steps[-1].n + 1
        targets = [report.config.delta_at(next_n), report.config.delta_at(next_n + 1)]
        try:
            pred = predict_runtime(report.steps, targets)
            report.extrapolated_runtime_s = pred.runtime_s
        except (EstimationImpossible, ValueError):
            report.extrapolated_runtime_s = None
    return report


def run_protocol(circuit: Circuit, observable: PauliSum, config: ConvergenceConfig) -> ConvergenceReport:
    """Run estimates at shrinking thresholds until convergence or budget.

    Stop rules: (a) the trailing ell estimates span at most eps_tol
    (apparently converged); (b) the most recent runtime exceeds t_cpu_s
    (budget exhausted; a single run is also cut off at the budget and
    recorded without an estimate); (c) max_steps reached.
    """
    report = ConvergenceReport(config=config)
    started = time.monotonic()
    for n in range(config.max_steps):
        delta_n = config.delta_at(n)
        step_budget = config.t_cpu_s
        if config.cumulative_budget_s is not None:
            remaining = config.cumulative_budget_s - (time.monotonic() - started)
            if remaining <= 0:
                report.status = STATUS_BUDGET
                break
            step_budget = min(step_budget, remaining)
        t0 = time.monotonic()
        try:
            final, trace = evolve(circuit, observable, delta_n, budget_s=step_budget)
        except BudgetExceeded as exc:
            report.aborted_step = {
                "n": n,
                "delta": delta_n,
                "runtime_s": time.monotonic() - t0,
                "gates_done": len(exc.trace.gates) if exc.trace else 0,
            }
            report.status = STATUS_BUDGET
            break
        except RowCapExceeded as exc:
            exc.report = _finish(report)
            raise
        runtime = time.monotonic() - t0
        report.steps.append(
            ConvergenceStep(
                n=n, delta=delta_n, estimate=expectation(final),
                runtime_s=runtime, n_max=trace.n_max,
            )
        )
        ests = report.estimates()
        if len(ests) >= config.ell:
            window = ests[-config.ell:]
            if max(window) - min(window) <= config.eps_tol:
                report.status = STATUS_CONVERGED
                break
        if runtime > config.t_cpu_s:
            report.status = STATUS_BUDGET
            break
    return _finish(report)


def classify(report: ConvergenceReport) -> Classification:
    """Bin a finished report into the converged / unconverged regimes."""
    if not report.steps and report.aborted_step is None:
        raise ValueError("report has no steps to classify")
    if report.status == STATUS_CONVERGED:
        return Classification(
            kind="converged", value=report.final_estimate, window=report.window
        )
    return Classification(
        kind="unconverged",
        estimate_range=report.estimate_range,
        extrapolated_costs=report.extrapolated_runtime_s,
    )
