import math

import numpy as np
import pytest

from oracles import random_circuit_gates
from pauliprop import Circuit, FixedAngle, PauliString, PauliSum, Topology, kicked_ising
from pauliprop.estimator import (
    EstimationImpossible,
    ProbeResult,
    ProbeSeries,
    nmax_gap_formula,
    predict_nmax,
    predict_resources,
    predict_runtime,
    run_probes,
    trivial_bound,
)


def _series(deltas, n_maxes, runtimes=None, k_stars=None, gate_count=100, n_qubits=20):
    runtimes = runtimes or [1.0] * len(deltas)
    k_stars = k_stars or [gate_count // 2] * len(deltas)
    return ProbeSeries(
        probes=[
            ProbeResult(delta=d, n_max=nm, k_star=ks, norm_at_k_star=1.0,
                        runtime_s=rt, gate_count=gate_count, expectation=0.0)
            for d, nm, rt, ks in zip(deltas, n_maxes, runtimes, k_stars)
        ],
        delta_0=deltas[0], ratio=deltas[1] / deltas[0] if len(deltas) > 1 else 0.5,
        requested_count=len(deltas), initial_norm=1.0, n_qubits=n_qubits,
    )


class TestTrivialBound:
    def test_values(self):
        assert trivial_bound(1.0, 1e-3) == 1e6
        assert trivial_bound(1.0, 1.0) == 1.0

    def test_positive_delta_required(self):
        with pytest.raises(ValueError):
            trivial_bound(1.0, 0.0)


class TestPredictNmax:
    def test_exact_power_law_recovered(self):
        m = 1.37
        deltas = [0.01, 0.005, 0.0025]
        n_maxes = [2.5 * d**-m for d in deltas]
        series = _series(deltas, n_maxes)
        targets = [0.00125, 0.000625]
        pred = predict_nmax(series, targets)
        for t, got in zip(targets, pred.n_max):
            want = 2.5 * t**-m
            assert abs(got - want) / want < 1e-9
        assert pred.nmax_fit.r_squared > 1 - 1e-12

    def test_prediction_clamped_to_trivial_bound(self):
        # an absurdly steep synthetic series would cross ||O||^2/delta^2
        deltas = [0.1, 0.05]
        n_maxes = [50.0, 50.0 * 2**8]
        series = _series(deltas, n_maxes)
        pred = predict_nmax(series, [1e-3])
        assert pred.n_max[0] <= trivial_bound(1.0, 1e-3)
        assert any("clamped" in n for n in pred.notes)

    def test_clamped_to_worst_case(self):
        deltas = [0.1, 0.05]
        n_maxes = [10.0, 1000.0]
        series = _series(deltas, n_maxes, n_qubits=3)
        pred = predict_nmax(series, [1e-6])
        assert pred.n_max[0] <= 4.0**3

    def test_targets_must_be_finer(self):
        series = _series([0.01, 0.005], [10, 20])
        with pytest.raises(ValueError):
            predict_nmax(series, [0.005])

    def test_degenerate_deltas_rejected(self):
        series = _series([0.01, 0.01], [10, 20])
        with pytest.raises(ValueError):
            predict_nmax(series, [0.001])

    def test_late_peak_flagged(self):
        series = _series([0.01, 0.005], [10, 20], k_stars=[99, 50], gate_count=100)
        pred = predict_nmax(series, [0.001])
        assert pred.low_confidence


class TestPredictRuntime:
    def test_exact_recovery(self):
        a = 2.1
        deltas = [0.02, 0.01, 0.005, 0.0025]
        times = [3.0 * d**-a for d in deltas]
        series = _series(deltas, [10] * 4, runtimes=times)
        pred = predict_runtime(series.probes, [0.000625])
        want = 3.0 * 0.000625**-a
        assert abs(pred.runtime_s[0] - want) / want < 1e-9
        assert abs(pred.runtime_fit.slope - a) < 1e-9

    def test_tail_fit_ignores_pre_break_regime(self):
        # slope 0.5 early, slope 2.0 in the tail
        deltas = [0.08 * 0.5**i for i in range(8)]
        times = []
        for i, d in enumerate(deltas):
            if i < 4:
                times.append(1.0 * d**-0.5)
            else:
                scale = (1.0 * deltas[3] ** -0.5) / (deltas[3] ** -2.0)
                times.append(scale * d**-2.0)
        series = _series(deltas, [10] * 8, runtimes=times)
        pred = predict_runtime(series.probes, [1e-4], tail_points=4)
        assert abs(pred.runtime_fit.slope / math.log(2) * math.log(2) - 2.0) < 0.05 * 2.0

    def test_pre_asymptotic_flagged_not_error(self):
        deltas = [0.02, 0.01, 0.005]
        series = _series(deltas, [10] * 3, runtimes=[1.0, 0.9, 0.8])
        pred = predict_runtime(series.probes, [1e-4])
        assert any("pre-asymptotic" in n for n in pred.notes)

    def test_needs_two_tail_points(self):
        series = _series([0.01, 0.005], [5, 9])
        with pytest.raises(EstimationImpossible):
            predict_runtime(series.probes, [1e-4], tail_points=1)


class TestGapFormula:
    def test_equal_deltas_zero(self):
        gap = nmax_gap_formula(0.01, 0.01, 1.5, 0.8, 0.8)
        assert gap.full == 0.0 and gap.small_delta == 0.0

    def test_small_delta_variant_is_mstar_log_inv_ratio(self):
        # delta_1 is the finer threshold: gap = log(N(d1)/N(d2)) = m* log(1/r)
        r = 1 / math.sqrt(2)
        m_star = 1.4
        gap = nmax_gap_formula(1e-4 * r, 1e-4, m_star, 0.9, 0.9)
        assert abs(gap.small_delta - m_star * math.log(1.0 / r)) < 1e-12
        # at small delta the correction term is sub-leading
        assert abs(gap.full - gap.small_delta) < 2e-3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nmax_gap_formula(0.01, 0.005, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            nmax_gap_formula(0.0, 0.005, 1.5, 1.0, 1.0)

    def test_residual_against_measured_pair(self, rng):
        # qualitative: formula and measured gap are compared, residual reported
        n = 6
        gates = random_circuit_gates(rng, n, 60, clifford_fraction=0.2)
        circ = Circuit(n=n, gates=tuple((PauliString.from_label(l, n), t) for l, t in gates))
        obs = PauliSum.from_terms(n, [("Z0", 1.0)])
        series = run_probes(circ, obs, delta_0=0.02, ratio=0.5, count=2)
        p1, p2 = series.probes
        if p1.n_max > 0 and p2.n_max > 0:
            measured = math.log(p2.n_max / p1.n_max)
            gap = nmax_gap_formula(p2.delta, p1.delta, 1.2, p2.norm_at_k_star, p1.norm_at_k_star)
            assert math.isfinite(gap.full - measured)


class TestRunProbes:
    def _small_problem(self):
        topo = Topology.grid(2, 3)
        circ = kicked_ising(topo, T=4, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(0.45))
        obs = PauliSum.from_terms(6, [("Z2", 1.0)])
        return circ, obs

    def test_series_shape(self):
        circ, obs = self._small_problem()
        series = run_probes(circ, obs, delta_0=0.05, ratio=1 / math.sqrt(2), count=4)
        assert len(series.probes) == 4
        deltas = series.deltas()
        assert all(deltas[i] > deltas[i + 1] for i in range(3))
        for p in series.probes:
            assert p.n_max <= trivial_bound(1.0, p.delta)

    def test_count_one_impossible(self):
        circ, obs = self._small_problem()
        with pytest.raises(EstimationImpossible):
            run_probes(circ, obs, count=1)

    def test_budget_stops_early(self):
        circ, obs = self._small_problem()
        with pytest.raises(EstimationImpossible):
            run_probes(circ, obs, count=5, budget_s=0.0)

    def test_combined_prediction_report(self):
        circ, obs = self._small_problem()
        series = run_probes(circ, obs, delta_0=0.05, ratio=0.5, count=4)
        pred = predict_resources(series, [1e-3, 5e-4])
        payload = pred.to_json_dict()
        assert payload["predicted_n_max"] is not None
        assert payload["predicted_runtime_s"] is not None
        assert len(payload["predicted_n_max"]) == 2
        assert all(v > 0 for v in payload["predicted_n_max"])
