import math

import pytest

from pauliprop import FixedAngle, PauliSum, Topology, kicked_ising
from pauliprop.convergence import (
    STATUS_BUDGET,
    STATUS_CONVERGED,
    STATUS_STEP_LIMIT,
    Classification,
    ConvergenceConfig,
    ConvergenceReport,
    ConvergenceStep,
    classify,
    run_protocol,
)


def _report_from_estimates(estimates, eps_tol=1e-2, ell=3, status=None):
    config = ConvergenceConfig(eps_tol=eps_tol, ell=ell, t_cpu_s=60.0)
    report = ConvergenceReport(config=config)
    for n, est in enumerate(estimates):
        report.steps.append(
            ConvergenceStep(n=n, delta=config.delta_at(n), estimate=est, runtime_s=0.1, n_max=10)
        )
    ests = list(estimates)
    if status is None:
        window = ests[-ell:]
        status = STATUS_CONVERGED if len(ests) >= ell and max(window) - min(window) <= eps_tol else STATUS_STEP_LIMIT
    report.status = status
    if status == STATUS_CONVERGED:
        report.final_estimate = ests[-1]
        report.window = ests[-ell:]
    if ests:
        report.estimate_range = (min(ests), max(ests))
    return report


class TestConfig:
    def test_delta_sequence_exactness(self):
        config = ConvergenceConfig(delta_0=0.125, ratio=0.5)
        for n in range(1, 30):
            ratio = config.delta_at(n) / config.delta_at(n - 1)
            assert abs(ratio - 0.5) < 1e-15 * 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceConfig(ratio=1.0)
        with pytest.raises(ValueError):
            ConvergenceConfig(ell=1)
        with pytest.raises(ValueError):
            ConvergenceConfig(delta_0=0.0)
        with pytest.raises(ValueError):
            ConvergenceConfig(eps_tol=-1.0)


class TestRunProtocol:
    def _clifford_problem(self):
        topo = Topology.grid(2, 3)
        circ = kicked_ising(topo, T=3, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(math.pi / 2))
        obs = PauliSum.from_terms(6, [("Z2", 1.0)])
        return circ, obs

    def _generic_problem(self, theta_x=0.45, T=4):
        topo = Topology.grid(2, 3)
        circ = kicked_ising(topo, T=T, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(theta_x))
        obs = PauliSum.from_terms(6, [("Z2", 1.0)])
        return circ, obs

    def test_clifford_converges_at_step_ell_minus_one(self):
        circ, obs = self._clifford_problem()
        config = ConvergenceConfig(ell=3, t_cpu_s=60.0)
        report = run_protocol(circ, obs, config)
        assert report.status == STATUS_CONVERGED
        assert len(report.steps) == 3
        assert report.steps[-1].n == 2
        assert len(set(report.window)) == 1  # exact at every delta

    def test_deltas_follow_schedule(self):
        circ, obs = self._generic_problem()
        config = ConvergenceConfig(delta_0=0.25, ratio=0.5, ell=3, t_cpu_s=60.0, max_steps=5)
        report = run_protocol(circ, obs, config)
        for step in report.steps:
            assert step.delta == config.delta_at(step.n)

    def test_step_limit_status(self):
        circ, obs = self._generic_problem()
        config = ConvergenceConfig(eps_tol=1e-12, ell=3, t_cpu_s=60.0, max_steps=4)
        report = run_protocol(circ, obs, config)
        assert report.status in (STATUS_STEP_LIMIT, STATUS_CONVERGED)
        assert len(report.steps) <= 4

    def test_budget_abort_records_partial(self):
        circ, obs = self._generic_problem(theta_x=0.6, T=6)
        config = ConvergenceConfig(t_cpu_s=1e-4, ell=3, max_steps=10)
        report = run_protocol(circ, obs, config)
        assert report.status == STATUS_BUDGET
        # either the first run aborted mid-flight or its wall time tripped the rule
        assert report.aborted_step is not None or report.steps

    def test_monotone_budget_extends_only(self):
        circ, obs = self._generic_problem()
        small = ConvergenceConfig(eps_tol=1e-9, ell=3, t_cpu_s=60.0, max_steps=3)
        big = ConvergenceConfig(eps_tol=1e-9, ell=3, t_cpu_s=60.0, max_steps=6)
        r_small = run_protocol(circ, obs, small)
        r_big = run_protocol(circ, obs, big)
        for a, b in zip(r_small.steps, r_big.steps):
            assert a.delta == b.delta and a.estimate == b.estimate

    def test_extrapolation_present_after_two_steps(self):
        circ, obs = self._generic_problem()
        config = ConvergenceConfig(ell=3, t_cpu_s=60.0, max_steps=4, eps_tol=1e-9)
        report = run_protocol(circ, obs, config)
        assert report.extrapolated_runtime_s is None or len(report.extrapolated_runtime_s) == 2

    def test_determinism_of_estimates(self):
        circ, obs = self._generic_problem()
        config = ConvergenceConfig(ell=3, t_cpu_s=60.0, max_steps=5, eps_tol=1e-9)
        a = run_protocol(circ, obs, config)
        b = run_protocol(circ, obs, config)
        assert [s.estimate for s in a.steps] == [s.estimate for s in b.steps]
        assert [s.n_max for s in a.steps] == [s.n_max for s in b.steps]


class TestClassify:
    def test_converged_window(self):
        report = _report_from_estimates([0.3, 0.511, 0.509, 0.510])
        verdict = classify(report)
        assert verdict.kind == "converged"
        assert verdict.value == 0.510
        assert verdict.window == [0.511, 0.509, 0.510]

    def test_oscillation_unconverged(self):
        report = _report_from_estimates([0.1, 0.2, 0.1, 0.2, 0.1])
        verdict = classify(report)
        assert verdict.kind == "unconverged"
        lo, hi = verdict.estimate_range
        assert hi - lo >= 0.1

    def test_single_step_unconverged(self):
        report = _report_from_estimates([0.42])
        verdict = classify(report)
        assert verdict.kind == "unconverged"

    def test_empty_report_rejected(self):
        config = ConvergenceConfig()
        with pytest.raises(ValueError):
            classify(ConvergenceReport(config=config))

    def test_is_dataclass_contract(self):
        assert isinstance(classify(_report_from_estimates([0.1])), Classification)


class TestReportPayload:
    def test_timing_split(self):
        report = _report_from_estimates([0.5, 0.5, 0.5])
        data = report.to_json_dict()
        assert "extrapolated_runtime_s" not in data
        assert all("runtime_s" not in step for step in data["steps"])
        timings = report.timing_json_dict()
        assert timings["runtimes_s"] == [s.runtime_s for s in report.steps]

    def test_local_minimum_risk_flag(self):
        # converged window preceded by a fluctuation larger than eps_tol
        config = ConvergenceConfig(eps_tol=1e-2, ell=3, t_cpu_s=60.0)
        report = ConvergenceReport(config=config)
        for n, est in enumerate([0.9, 0.3, 0.501, 0.499, 0.500]):
            report.steps.append(
                ConvergenceStep(n=n, delta=config.delta_at(n), estimate=est, runtime_s=0.1, n_max=5)
            )
        report.status = STATUS_CONVERGED
        from pauliprop.convergence import _finish

        _finish(report)
        assert report.local_minimum_risk
