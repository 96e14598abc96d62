"""Memory and runtime extrapolation from coarse-threshold probe runs.

A handful of cheap evolutions at coarse thresholds pin down the log-log
slope of N_max (and runtime) against delta; ordinary least squares then
extends the line to finer thresholds.  Predictions are clamped to the
trivial bound ||O||^2/delta^2 and the 4^n worst case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .circuits import Circuit
from .engine import BudgetExceeded, evolve, expectation, trivial_bound
from .sums import PauliSum

__all__ = [
    "ProbeResult",
    "ProbeSeries",
    "RegressionFit",
    "ResourcePrediction",
    "GapEstimate",
    "probe",
    "run_probes",
    "predict_nmax",
    "predict_runtime",
    "predict_resources",
    "nmax_gap_formula",
    "trivial_bound",
]

DEFAULT_DELTA_0 = 0.005
DEFAULT_RATIO = 1.0 / math.sqrt(2.0)
DEFAULT_PROBE_COUNT = 3
DEFAULT_TAIL_POINTS = 4


@dataclass
class ProbeResult:
    """One timed evolve at one threshold: a probe, or a step of the convergence sweep."""

    delta: float
    n_max: int
    k_star: int
    norm_at_k_star: float
    runtime_s: float
    gate_count: int
    expectation: float
    final_rows: int  # 0 when truncation emptied the state


@dataclass
class ProbeSeries:
    """Completed probe runs, deltas strictly decreasing."""

    probes: list[ProbeResult]
    delta_0: float
    ratio: float
    requested_count: int
    initial_norm: float
    n_qubits: int
    budget_exhausted: bool = False

    def deltas(self) -> np.ndarray:
        return np.array([p.delta for p in self.probes])


@dataclass
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float
    points: int
    stderr: float | None  # of the slope, None below 3 points


@dataclass
class ResourcePrediction:
    """Predicted N_max and runtime at finer thresholds."""

    targets: list[float]
    predicted_n_max: list[float] | None = None
    predicted_runtime_s: list[float] | None = None
    nmax_fit: RegressionFit | None = None
    runtime_fit: RegressionFit | None = None
    low_confidence: bool = False
    notes: list[str] = field(default_factory=list)


def probe(
    circuit: Circuit, observable: PauliSum, delta: float,
    budget_s: float | None = None, row_cap: int | None = None,
) -> ProbeResult:
    """Time one evolve at ``delta``; a stop at a limit raises its Aborted."""
    t0 = time.monotonic()
    final, trace = evolve(circuit, observable, delta, budget_s=budget_s, row_cap=row_cap)
    runtime = time.monotonic() - t0
    k_star = trace.k_star
    norm_at = trace.gates[k_star - 1].norm if trace.gates else observable.raw_norm()
    return ProbeResult(
        delta=delta, n_max=trace.n_max, k_star=k_star, norm_at_k_star=norm_at,
        runtime_s=runtime, gate_count=len(trace.gates), expectation=expectation(final),
        final_rows=len(final),
    )


def _check_ladder(delta_0: float, ratio: float) -> None:
    """ValueError unless the ladder ratio^i * delta_0 starts positive and finite and shrinks.

    Both tests fail on NaN.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    if not 0 < delta_0 < math.inf:
        raise ValueError(f"delta_0 must be positive and finite, got {delta_0}")


def _probe_deltas(delta_0: float, ratio: float, count: int) -> list[float]:
    """The probe thresholds delta_i = ratio^i * delta_0 for i = 0..count-1.

    ValueError unless count >= 2 and the ladder passes :func:`_check_ladder`.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2 for a regression, got {count}")
    _check_ladder(delta_0, ratio)
    return [(ratio**i) * delta_0 for i in range(count)]


def run_probes(
    circuit: Circuit,
    observable: PauliSum,
    delta_0: float = DEFAULT_DELTA_0,
    ratio: float = DEFAULT_RATIO,
    count: int = DEFAULT_PROBE_COUNT,
    budget_s: float | None = None,
    row_cap: int | None = None,
) -> ProbeSeries:
    """Probe at delta_i = ratio^i * delta_0 for i = 0..count-1.

    A count below two, a ratio outside (0, 1) or a delta_0 that is not
    positive raises ValueError before any probe runs.  The series stops early
    when the wall budget runs out, and raises BudgetExceeded if that leaves
    fewer than two probes.  A probe past ``row_cap`` rows raises RowCapExceeded.
    """
    deltas = _probe_deltas(delta_0, ratio, count)
    series = ProbeSeries(
        probes=[], delta_0=delta_0, ratio=ratio, requested_count=count,
        initial_norm=observable.raw_norm(), n_qubits=circuit.n,
    )
    start = time.monotonic()
    for delta in deltas:
        remaining = None
        if budget_s is not None:
            remaining = budget_s - (time.monotonic() - start)
            if remaining <= 0:
                series.budget_exhausted = True
                break
        try:
            series.probes.append(
                probe(circuit, observable, delta, budget_s=remaining, row_cap=row_cap)
            )
        except BudgetExceeded:
            series.budget_exhausted = True
            break
    if len(series.probes) < 2:
        raise BudgetExceeded(f"the budget left {len(series.probes)} probe(s); a regression needs 2")
    return series


def _ols(x: np.ndarray, y: np.ndarray) -> RegressionFit:
    """Ordinary least squares of y on x."""
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate fit: identical abscissae")
    slope = float(np.sum((x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else None
    return RegressionFit(
        slope=slope, intercept=float(intercept), r_squared=r2, points=n, stderr=stderr
    )


def _check_targets(targets, finest: float) -> list[float]:
    """The target thresholds as floats: at least one, each in (0, finest)."""
    targets = [float(t) for t in targets]
    if not targets:
        raise ValueError("need at least one target delta")
    for t in targets:
        if not 0 < t < finest:
            raise ValueError(
                f"target delta {t} must be positive and below the finest probe delta {finest:g}"
            )
    return targets


def predict_nmax(series: ProbeSeries, targets) -> ResourcePrediction:
    """Least-squares fit of log N_max vs log delta, extended to the targets.

    Predictions are clamped to min(line, trivial bound, 4^n); a probe whose
    peak falls within the final 5% of gates tags the result low-confidence.
    The targets must be positive and below the finest probe delta.
    """
    if len(series.probes) < 2:
        raise ValueError("need at least 2 probes")
    targets = _check_targets(targets, min(p.delta for p in series.probes))
    x = np.log(series.deltas())
    y = np.log(np.maximum(np.array([p.n_max for p in series.probes], dtype=float), 1.0))
    fit = _ols(x, y)
    worst_case = 4.0**series.n_qubits
    notes = []
    preds = []
    for t in targets:
        raw = math.exp(fit.intercept + fit.slope * math.log(t))
        clamped = min(raw, trivial_bound(series.initial_norm, t), worst_case)
        if clamped < raw:
            notes.append(f"prediction at delta={t:g} clamped from {raw:.4g} to {clamped:.4g}")
        preds.append(clamped)
    low_conf = any(
        p.gate_count > 0 and p.k_star > 0.95 * p.gate_count for p in series.probes
    )
    if low_conf:
        notes.append("peak term count occurs in the final 5% of gates in a probe run")
    return ResourcePrediction(
        targets=targets, predicted_n_max=preds, nmax_fit=fit, low_confidence=low_conf, notes=notes
    )


def predict_runtime(runs, targets, tail_points: int = DEFAULT_TAIL_POINTS) -> ResourcePrediction:
    """Fit log runtime vs log(1/delta) on the last tail_points runs only (all when 0).

    ``runs`` are completed runs in order of decreasing delta, anything with
    ``.delta`` and ``.runtime_s``.  The tail restriction guards against the
    documented transition in the runtime exponent; a non-positive slope
    flags the series pre-asymptotic instead of erroring.
    """
    if tail_points < 0:
        raise ValueError(f"tail_points must be 0 (all runs) or positive, got {tail_points}")
    targets = [float(t) for t in targets]
    probes = runs[-tail_points:] if tail_points else runs
    if len(probes) < 2:
        raise ValueError("need at least 2 probes in the fitted tail")
    x = np.log(1.0 / np.array([p.delta for p in probes]))
    y = np.log(np.maximum(np.array([p.runtime_s for p in probes]), 1e-9))
    fit = _ols(x, y)
    notes = []
    if fit.slope <= 0:
        notes.append("runtime slope is non-positive; series looks pre-asymptotic")
    preds = [math.exp(fit.intercept + fit.slope * math.log(1.0 / t)) for t in targets]
    return ResourcePrediction(
        targets=targets, predicted_runtime_s=preds, runtime_fit=fit, notes=notes
    )


def predict_resources(
    series: ProbeSeries, targets, tail_points: int = DEFAULT_TAIL_POINTS
) -> ResourcePrediction:
    """Combined N_max and runtime prediction (one report object)."""
    n_pred = predict_nmax(series, targets)
    t_pred = predict_runtime(series.probes, targets, tail_points=tail_points)
    return replace(
        n_pred, predicted_runtime_s=t_pred.predicted_runtime_s, runtime_fit=t_pred.runtime_fit,
        notes=n_pred.notes + t_pred.notes,
    )


@dataclass
class GapEstimate:
    """Predicted log(N_max(delta_1) / N_max(delta_2))."""

    full: float
    small_delta: float


def nmax_gap_formula(
    delta_1: float, delta_2: float, m_star: float, norm_1: float, norm_2: float
) -> GapEstimate:
    """Closed-form gap between growth-curve peaks at two thresholds.

    full  = m* log(d2/d1) + 2 log(n1/n2) + log((1 - d2^(2-m*)) / (1 - d1^(2-m*)))
    small = first two terms (small-delta variant).
    """
    for name, d in (("delta_1", delta_1), ("delta_2", delta_2)):
        if not (0.0 < d < 1.0):
            raise ValueError(f"{name} must lie in (0, 1), got {d}")
    if not (0.0 < m_star < 2.0):
        raise ValueError(f"m_star must lie in (0, 2), got {m_star}")
    lead = m_star * math.log(delta_2 / delta_1) + 2.0 * math.log(norm_1 / norm_2)
    correction = math.log((1.0 - delta_2 ** (2.0 - m_star)) / (1.0 - delta_1 ** (2.0 - m_star)))
    return GapEstimate(full=lead + correction, small_delta=lead)
