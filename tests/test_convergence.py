import math

import pytest

from pauliprop import FixedAngle, PauliSum, Topology, kicked_ising
from pauliprop.convergence import (
    STATUS_BUDGET,
    STATUS_CONVERGED,
    STATUS_STEP_LIMIT,
    ConvergenceConfig,
    ConvergenceReport,
    run_protocol,
)
from pauliprop.estimator import ProbeResult


def _report(estimates, status, eps_tol=1e-2, ell=3, runtimes=None):
    """A report as the sweep leaves it: config, steps and status; the verdict is derived."""
    config = ConvergenceConfig(eps_tol=eps_tol, ell=ell, t_cpu_s=60.0)
    runtimes = runtimes or [0.1] * len(estimates)
    steps = [
        ProbeResult(delta=config.delta_at(n), n_max=10, k_star=1, norm_at_k_star=1.0,
                    runtime_s=rt, gate_count=1, expectation=est, final_rows=10)
        for n, (est, rt) in enumerate(zip(estimates, runtimes))
    ]
    return ConvergenceReport(config=config, steps=steps, status=status)


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
        for limit in ("delta_0", "ratio", "eps_tol", "t_cpu_s", "cumulative_budget_s"):
            with pytest.raises(ValueError, match="got nan"):
                ConvergenceConfig(**{limit: math.nan})


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
        assert len(report.steps) == 3  # steps 0, 1 and 2
        assert len(set(report.window)) == 1  # exact at every delta

    def test_deltas_follow_schedule(self):
        circ, obs = self._generic_problem()
        config = ConvergenceConfig(delta_0=0.25, ratio=0.5, ell=3, t_cpu_s=60.0, max_steps=5)
        report = run_protocol(circ, obs, config)
        for n, step in enumerate(report.steps):
            assert step.delta == config.delta_at(n)

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
            assert a.delta == b.delta and a.expectation == b.expectation

    def test_extrapolation_present_after_two_steps(self):
        circ, obs = self._generic_problem()
        config = ConvergenceConfig(ell=3, t_cpu_s=60.0, max_steps=4, eps_tol=1e-9)
        report = run_protocol(circ, obs, config)
        assert report.extrapolated_runtime_s is None or len(report.extrapolated_runtime_s) == 2

    def _open_grid_problem(self, theta_x):
        """T = 10 on the open 4x4 grid, observable Z on the centre qubit 10."""
        circ = kicked_ising(Topology.grid(4, 4), T=10, theta_zz=-math.pi / 2,
                            theta_x_spec=FixedAngle(theta_x))
        return circ, PauliSum.from_terms(16, [("Z10", 1.0)])

    @pytest.mark.parametrize("theta_x", [0.7, 1.0])
    def test_emptied_steps_never_converge(self, theta_x):
        # truncation empties the state at delta = 2^-3 ... 2^-6, whose zero
        # estimates agree within eps_tol; the exact values are +0.0671 and +0.0022
        circ, obs = self._open_grid_problem(theta_x)
        report = run_protocol(circ, obs, ConvergenceConfig(t_cpu_s=60.0, max_steps=7))
        assert report.status == STATUS_STEP_LIMIT
        emptied = [n for n, s in enumerate(report.steps) if s.final_rows == 0]
        assert emptied[:4] == [0, 1, 2, 3]
        assert report.to_json_dict()["emptied_steps"] == emptied

    @pytest.mark.parametrize("theta_x, max_steps, status", [
        (0.3, 9, STATUS_CONVERGED), (0.5, 7, STATUS_STEP_LIMIT),
    ])
    def test_no_converged_window_holds_an_emptied_step(self, theta_x, max_steps, status):
        # 0.3 converges at 2^-11 on -0.2146 (exact -0.1983) and empties no
        # step; 0.5 empties at 2^-3 only and agrees nowhere (exact -0.0618)
        circ, obs = self._open_grid_problem(theta_x)
        config = ConvergenceConfig(t_cpu_s=60.0, max_steps=max_steps)
        report = run_protocol(circ, obs, config)
        assert (report.status, len(report.steps)) == (status, max_steps)
        if report.window:
            assert all(s.final_rows for s in report.steps[-config.ell:])

    def test_determinism_of_estimates(self):
        circ, obs = self._generic_problem()
        config = ConvergenceConfig(ell=3, t_cpu_s=60.0, max_steps=5, eps_tol=1e-9)
        a = run_protocol(circ, obs, config)
        b = run_protocol(circ, obs, config)
        assert a.estimates() == b.estimates()
        assert [s.n_max for s in a.steps] == [s.n_max for s in b.steps]


class TestDerivedVerdict:
    def test_converged_window(self):
        report = _report([0.3, 0.511, 0.509, 0.510], STATUS_CONVERGED)
        assert report.final_estimate == 0.510
        assert report.window == [0.511, 0.509, 0.510]
        assert report.estimate_range == (0.3, 0.511)

    def test_oscillation_unconverged(self):
        report = _report([0.1, 0.2, 0.1, 0.2, 0.1], STATUS_STEP_LIMIT)
        assert report.estimate_range == (0.1, 0.2)
        assert report.final_estimate is None and report.window == []
        assert not report.local_minimum_risk

    def test_single_step_unconverged(self):
        report = _report([0.42], STATUS_BUDGET)
        assert report.final_estimate is None and report.window == []
        assert report.estimate_range == (0.42, 0.42)
        assert report.extrapolated_runtime_s is None

    def test_no_steps(self):
        report = ConvergenceReport(config=ConvergenceConfig(), status=STATUS_BUDGET)
        assert report.estimate_range is None and report.window == []

    def test_runtime_extrapolation_of_next_two_steps(self):
        # runtime doubling each time delta halves extrapolates to 4 s and 8 s
        report = _report([0.5, 0.4], STATUS_STEP_LIMIT, runtimes=[1.0, 2.0])
        assert report.extrapolated_runtime_s == pytest.approx([4.0, 8.0])


class TestReportPayload:
    def test_timing_split(self):
        report = _report([0.5, 0.5, 0.5], STATUS_CONVERGED)
        data = report.to_json_dict()
        assert "extrapolated_runtime_s" not in data
        assert all("runtime_s" not in step for step in data["steps"])
        timings = report.timing_json_dict()
        assert timings["runtimes_s"] == [s.runtime_s for s in report.steps]

    def test_local_minimum_risk_flag(self):
        # a converged window preceded by a fluctuation larger than eps_tol
        assert _report([0.9, 0.3, 0.501, 0.499, 0.500], STATUS_CONVERGED).local_minimum_risk
        # the widened window still agrees, or nothing precedes the window
        assert not _report([0.505, 0.501, 0.499, 0.500], STATUS_CONVERGED).local_minimum_risk
        assert not _report([0.501, 0.499, 0.500], STATUS_CONVERGED).local_minimum_risk

    def test_json_dict_literal(self):
        report = _report([0.25, 0.5, 0.5, 0.5], STATUS_CONVERGED, ell=2)
        assert report.to_json_dict() == {
            "config": {
                "delta_0": 0.125, "ratio": 0.5, "eps_tol": 1e-2, "ell": 2, "t_cpu_s": 60.0,
                "max_steps": 40, "cumulative_budget_s": None,
            },
            "steps": [
                {"n": 0, "delta": 0.125, "estimate": 0.25, "n_max": 10},
                {"n": 1, "delta": 0.0625, "estimate": 0.5, "n_max": 10},
                {"n": 2, "delta": 0.03125, "estimate": 0.5, "n_max": 10},
                {"n": 3, "delta": 0.015625, "estimate": 0.5, "n_max": 10},
            ],
            "status": "apparently_converged",
            "final_estimate": 0.5,
            "window": [0.5, 0.5],
            "estimate_range": [0.25, 0.5],
            "local_minimum_risk": False,
        }
