"""Apparent-convergence protocol over a shrinking truncation threshold.

Successive estimates O_n at delta_n = r^n * delta_0, one probe each, run
until either the trailing window of estimates agrees within the tolerance,
none of them from a state that truncation emptied, the latest run time
exceeds the CPU budget, or the step limit is reached.
The report's verdict is derived from its steps and status: the estimate
range and runtime extrapolations hold either way, so an unconverged problem
still yields a guiding range and a cost forecast.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

from .circuits import Circuit
from .engine import BudgetExceeded
from .estimator import ProbeResult, _check_ladder, predict_runtime, probe
from .sums import PauliSum

__all__ = [
    "ConvergenceConfig",
    "ConvergenceReport",
    "STATUS_CONVERGED",
    "STATUS_BUDGET",
    "STATUS_STEP_LIMIT",
    "run_protocol",
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
        # each float limit's test fails on NaN and on inf
        _check_ladder(self.delta_0, self.ratio)
        if not 0 < self.eps_tol < math.inf:
            raise ValueError(f"eps_tol must be positive and finite, got {self.eps_tol}")
        if self.ell < 2:
            raise ValueError(f"ell must be >= 2, got {self.ell}")
        if not 0 < self.t_cpu_s < math.inf:
            raise ValueError(f"t_cpu_s must be positive and finite, got {self.t_cpu_s}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.cumulative_budget_s is not None and not math.isfinite(self.cumulative_budget_s):
            raise ValueError(
                f"cumulative_budget_s must be a finite number of seconds, "
                f"got {self.cumulative_budget_s}"
            )

    def delta_at(self, n: int) -> float:
        return (self.ratio**n) * self.delta_0


@dataclass
class ConvergenceReport:
    """What the sweep did, ``steps[n]`` at ``config.delta_at(n)``; the verdict is derived."""

    config: ConvergenceConfig
    steps: list[ProbeResult] = field(default_factory=list)
    status: str = STATUS_STEP_LIMIT
    aborted_step: dict | None = None

    def estimates(self) -> list[float]:
        return [s.expectation for s in self.steps]

    @property
    def window(self) -> list[float]:
        """The trailing ell estimates that agreed; empty unless converged."""
        return self.estimates()[-self.config.ell:] if self.status == STATUS_CONVERGED else []

    @property
    def final_estimate(self) -> float | None:
        return self.steps[-1].expectation if self.status == STATUS_CONVERGED else None

    @property
    def estimate_range(self) -> tuple[float, float] | None:
        ests = self.estimates()
        return (min(ests), max(ests)) if ests else None

    @property
    def local_minimum_risk(self) -> bool:
        """A converged window whose preceding estimate lies outside the tolerance."""
        ell = self.config.ell
        if self.status != STATUS_CONVERGED or len(self.steps) <= ell:
            return False
        widened = self.estimates()[-(ell + 1):]
        return max(widened) - min(widened) > self.config.eps_tol

    @property
    def extrapolated_runtime_s(self) -> list[float] | None:
        """Predicted runtimes of the next two steps, whatever the status."""
        if len(self.steps) < 2:
            return None
        next_n = len(self.steps)
        targets = [self.config.delta_at(next_n), self.config.delta_at(next_n + 1)]
        return predict_runtime(self.steps, targets).predicted_runtime_s

    def to_json_dict(self) -> dict:
        """The deterministic report, written byte-stably: runtimes, which vary
        between executions, are in :meth:`timing_json_dict` instead."""
        out = {
            "config": asdict(self.config),
            "steps": [
                {"n": n, "delta": s.delta, "estimate": s.expectation, "n_max": s.n_max}
                for n, s in enumerate(self.steps)
            ],
            "status": self.status,
            "final_estimate": self.final_estimate,
            "window": self.window,
            "estimate_range": list(self.estimate_range) if self.estimate_range else None,
            "local_minimum_risk": self.local_minimum_risk,
        }
        emptied = [n for n, s in enumerate(self.steps) if s.final_rows == 0]
        if emptied:  # steps whose state truncation emptied; none is in a converged window
            out["emptied_steps"] = emptied
        if self.aborted_step is not None:
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


def run_protocol(
    circuit: Circuit, observable: PauliSum, config: ConvergenceConfig, row_cap: int | None = None
) -> ConvergenceReport:
    """Probe at shrinking thresholds until convergence or budget.

    Each step is one :func:`~pauliprop.estimator.probe`.  Stop rules: (a) the
    trailing ell estimates span at most eps_tol and no step among them ended
    with an empty state (apparently converged);
    (b) the most recent runtime exceeds t_cpu_s (budget exhausted; a single
    run is also cut off at the budget and recorded as ``aborted_step``,
    without an estimate); (c) max_steps reached.  A run past ``row_cap``
    rows raises RowCapExceeded and returns no report; the cap is not part
    of the config, so it stays out of the report.
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
            step = probe(circuit, observable, delta_n, budget_s=step_budget, row_cap=row_cap)
        except BudgetExceeded as exc:
            report.aborted_step = {
                "n": n,
                "delta": delta_n,
                "runtime_s": time.monotonic() - t0,
                "gates_done": len(exc.trace.gates) if exc.trace else 0,
            }
            report.status = STATUS_BUDGET
            break
        report.steps.append(step)
        window = report.steps[-config.ell:]
        estimates = [s.expectation for s in window]
        if (len(window) == config.ell and all(s.final_rows for s in window)
                and max(estimates) - min(estimates) <= config.eps_tol):
            report.status = STATUS_CONVERGED
            break
        if step.runtime_s > config.t_cpu_s:
            report.status = STATUS_BUDGET
            break
    return report
