import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import power_law_samples, random_circuit_gates
from pauliprop import Circuit, PauliString, PauliSum, evolve
from pauliprop.analysis import (
    CoefficientHistogram,
    PowerLawModel,
    QuadratureError,
    SingularityError,
    _intersect_rays,
    _quad_pieces,
    convolution_density,
    detect_eta_spikes,
    fit_m_mle,
    fit_m_regression,
    histogram,
    moment_estimate,
    predict_term_count_step,
    s_theta,
    s_theta_sweep,
)


class TestPowerLawModel:
    def test_normalization_grid(self):
        for m in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            for delta in (1e-8, 1e-5, 1e-2):
                model = PowerLawModel(m=m, delta=delta)
                # |2 * integral_delta^inf rho - 1|
                assert abs(2.0 * model.A * model.delta ** (-model.m) / model.m - 1.0) < 1e-10

    def test_density_zero_inside_chasm(self):
        model = PowerLawModel(m=1.5, delta=1e-3)
        assert model.density(5e-4) == 0.0
        assert model.density(-5e-4) == 0.0
        assert model.density(2e-3) > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PowerLawModel(m=0.0, delta=1e-3)
        with pytest.raises(ValueError):
            PowerLawModel(m=1.0, delta=0.0)
        for m, delta in ((math.inf, 1e-3), (math.nan, 1e-3), (1.5, math.inf), (1.5, math.nan)):
            with pytest.raises(ValueError, match="must be positive and finite"):
                PowerLawModel(m=m, delta=delta)

    def test_tail_mass_matches_quadrature(self):
        model = PowerLawModel(m=1.5, delta=1e-4)
        for a in (1e-4, 5e-4, 1e-2):
            num, _ = quad(model.density, a, np.inf)
            assert abs(2 * num - (model.delta / a) ** model.m) < 1e-9  # Pr(|c| >= a)

    def test_signed_cdf_limits_chasm_and_quadrature(self):
        model = PowerLawModel(m=1.5, delta=1e-4)
        assert model.signed_cdf(-1e12) < 1e-15
        assert 1.0 - model.signed_cdf(1e12) < 1e-15
        for y in (-1e-4, -5e-5, 0.0, 5e-5, 1e-4):  # no mass inside the chasm
            assert model.signed_cdf(y) == 0.5
        for y in (-1e-2, -3e-4, 3e-4, 1e-2):
            below, _ = quad(model.density, -np.inf, min(y, -model.delta))
            above = quad(model.density, model.delta, y)[0] if y > model.delta else 0.0
            assert abs(model.signed_cdf(y) - (below + above)) < 1e-9


class TestHistogram:
    def test_two_bins(self):
        h = histogram([-1.0, 1.0], bins=2)
        assert h.counts.tolist() == [1, 1]

    def test_identical_values_single_bin(self):
        h = histogram([0.7] * 1000, bins=8)
        assert h.counts.sum() == 1000
        assert (h.counts > 0).sum() == 1

    def test_boundary_rule_half_open(self):
        # edges [0,1,2]; the value 1.0 belongs to the second bin
        h = histogram([0.0, 1.0, 2.0], bins=2)
        assert h.counts.tolist() == [1, 2]

    def test_synthetic_power_law_slope(self, rng):
        m, delta = 1.5, 1e-4
        samples = power_law_samples(m, delta, 1_000_000, rng)
        h = histogram(samples[samples < 100 * delta], bins=400, absolute=True, delta_floor=delta)
        centers = 0.5 * (h.edges[:-1] + h.edges[1:])
        dens = h.densities
        keep = dens > 0
        slope = np.polyfit(np.log(centers[keep]), np.log(dens[keep]), 1)[0]
        assert abs(slope - (-(m + 1))) < 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([], bins=4)
        with pytest.raises(ValueError):
            histogram([1.0], bins=1)

    def test_counts_sum_and_csv(self, tmp_path, rng):
        vals = rng.normal(size=500)
        h = histogram(vals, bins=32)
        assert h.counts.sum() == h.total == 500
        path = tmp_path / "hist.csv"
        h.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "edge_lo,edge_hi,count,density"
        assert len(lines) == 33


class TestFitRegression:
    def test_recovers_synthetic_exponent(self, rng):
        m, delta = 1.7, 1e-4
        samples = power_law_samples(m, delta, 2_000_000, rng)
        fit = fit_m_regression(samples, delta, l=1.0)
        assert abs(fit.m - m) / m < 0.05
        assert fit.r_squared > 0.9
        assert not fit.low_sample_warning

    def test_notch_causes_underestimate(self, rng):
        # thin out [delta, 2 delta] to mimic the merge wiggle
        m, delta = 1.7, 1e-4
        samples = power_law_samples(m, delta, 2_000_000, rng)
        in_notch = (samples >= delta) & (samples < 2 * delta)
        drop = in_notch & (rng.random(samples.size) < 0.35)
        notched = samples[~drop]
        m_l1 = fit_m_regression(notched, delta, l=1.0).m
        m_l2 = fit_m_regression(notched, delta, l=2.0).m
        assert m_l1 < m_l2

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fit_m_regression(np.full(5000, 3e-4), 1e-4, l=1.0)

    @pytest.mark.parametrize("delta, l, message", [
        (1e-4, math.nan, "l must be finite"), (1e-4, math.inf, "l must be finite"),
        (math.nan, 1.0, "delta must be positive and finite"),
        (math.inf, 1.0, "delta must be positive and finite"),
        (0.0, 1.0, "delta must be positive and finite"),
    ])
    def test_parameter_that_is_not_finite_rejected(self, rng, delta, l, message):
        samples = power_law_samples(1.5, 1e-4, 5000, rng)
        with pytest.raises(ValueError, match=message):
            fit_m_regression(samples, delta, l=l)

    def test_two_bins_leave_no_stderr(self):
        delta = 1e-2
        centers = np.linspace(delta, 20.0 * delta, 144)
        fit = fit_m_regression(np.repeat(centers[[0, 10]], [5, 2]), delta, l=1.0)
        assert fit.bins == 2
        assert fit.stderr is None

    def test_low_sample_warning(self, rng):
        samples = power_law_samples(1.5, 1e-4, 400, rng)
        fit = fit_m_regression(samples, 1e-4, l=1.0)
        assert fit.low_sample_warning


class TestFitMle:
    def test_exact_on_e_times_xmin(self):
        x_min = 2e-3
        samples = np.full(1000, math.e * x_min)
        assert abs(fit_m_mle(samples, x_min).m - 1.0) < 1e-12

    def test_recovers_synthetic(self, rng):
        for m, delta in ((1.2, 1e-4), (1.5, 1e-4), (2.0, 1e-3)):
            samples = power_law_samples(m, delta, 1_000_000, rng)
            m_hat = fit_m_mle(samples, delta).m
            assert abs(m_hat - m) / m < 0.02

    def test_notched_xmin_variants(self, rng):
        m, delta = 1.6, 1e-4
        samples = power_law_samples(m, delta, 1_000_000, rng)
        in_notch = (samples >= delta) & (samples < 2 * delta)
        notched = samples[~(in_notch & (rng.random(samples.size) < 0.5))]
        assert fit_m_mle(notched, 3 * delta).m > fit_m_mle(notched, delta).m

    def test_below_xmin_excluded_not_error(self):
        samples = np.array([0.5e-3, 2e-3, 4e-3])
        m_hat = fit_m_mle(samples, 1e-3).m
        assert math.isfinite(m_hat)

    def test_no_qualifying_samples(self):
        with pytest.raises(ValueError):
            fit_m_mle(np.array([1e-5]), 1e-3)

    @pytest.mark.parametrize("x_min", [0.0, -1e-3])
    def test_nonpositive_xmin_rejected(self, x_min):
        # every sample would qualify and log(|c| / x_min) is not a finite sum
        with pytest.raises(ValueError, match="x_min must be positive"):
            fit_m_mle(np.array([1e-3, 2e-3]), x_min)


class TestMomentEstimate:
    def test_l2_identity_exact(self):
        for m in (1.2, 1.5, 1.8):
            model = PowerLawModel(m=m, delta=1e-4)
            assert moment_estimate(model, 2.0, 0.8372) == 0.8372

    @pytest.mark.parametrize("l", [1.0, 4.0])
    @pytest.mark.parametrize("m", [1.2, 1.5, 1.8])
    def test_matches_quadrature_oracle(self, l, m):
        delta = 1e-4
        norm_sq = 1.0
        model = PowerLawModel(m=m, delta=delta)
        # oracle: N_k * 2 int_delta^1 t^l rho(t) dt with N_k from the
        # second-moment estimate
        n_k = (2 - m) / m * norm_sq / (delta**m * (1 - delta ** (2 - m)))
        integral, err = quad(lambda t: t**l * model.density(t), delta, 1.0, epsrel=1e-12, limit=400)
        oracle = n_k * 2 * integral
        got = moment_estimate(model, l, norm_sq)
        assert abs(got - oracle) / oracle < 1e-6

    def test_singularities(self):
        model = PowerLawModel(m=1.5, delta=1e-4)
        with pytest.raises(SingularityError):
            moment_estimate(model, 1.5, 1.0)
        with pytest.raises(SingularityError):
            moment_estimate(PowerLawModel(m=2.0 - 1e-12, delta=1e-4), 1.0, 1.0)


class TestConvolution:
    def test_small_theta_pointwise_limit(self):
        model = PowerLawModel(m=1.7, delta=1e-3)
        for t_mult in (2.5, 4.0, 8.0):
            t = t_mult * model.delta
            got = convolution_density(model, 1e-3, t)
            assert abs(got - model.density(t)) / model.density(t) < 1e-3

    def test_even_in_t(self):
        model = PowerLawModel(m=1.7, delta=1e-3)
        a = convolution_density(model, 0.5, 3.3e-3)
        b = convolution_density(model, 0.5, -3.3e-3)
        assert abs(a - b) < 1e-9 * max(1.0, a)

    def test_normalization(self):
        model = PowerLawModel(m=1.7, delta=1e-3)
        theta = 0.45
        d = model.delta
        total = 0.0
        pieces = [(-d, 0.0), (0.0, d)]
        for lo_mult, hi_mult in [(1, 2), (2, 8), (8, 64), (64, 1024)]:
            pieces.append((lo_mult * d, hi_mult * d))
            pieces.append((-hi_mult * d, -lo_mult * d))
        for a, b in pieces:
            v, _ = quad(lambda t: convolution_density(model, theta, t), a, b, epsabs=1e-10, limit=200)
            total += v
        # analytic bound on the remaining tail mass: between rho tail and
        # its one-big-jump asymptote
        tail = (d / (1024 * d)) ** model.m  # Pr(|c| >= 1024 d)
        lo, hi = tail, 1.11 * tail
        assert total + lo < 1.0 + 1e-6
        assert total + hi > 1.0 - 1e-4

    def test_theta_range_validated(self):
        model = PowerLawModel(m=1.7, delta=1e-3)
        with pytest.raises(ValueError):
            convolution_density(model, 0.0, 1e-3)
        with pytest.raises(ValueError):
            convolution_density(model, math.pi / 2, 1e-3)

    def test_monte_carlo_cross_check(self, rng):
        model = PowerLawModel(m=1.7, delta=1e-3)
        theta = 0.6
        n = 4_000_000
        x = power_law_samples(model.m, model.delta, n, rng, signed=True)
        y = power_law_samples(model.m, model.delta, n, rng, signed=True)
        v = math.cos(theta) * x + math.sin(theta) * y
        d = model.delta
        for t_mult in (4.0, 10.0):
            t = t_mult * d
            w = 0.15 * t
            mc = np.count_nonzero((np.abs(v) > t - w) & (np.abs(v) < t + w)) / n / (2 * w) / 2
            ref, _ = quad(lambda tt: convolution_density(model, theta, tt), t - w, t + w)
            ref /= 2 * w
            assert abs(mc - ref) / ref < 0.05

    def test_far_tail_ratio_reaches_limit(self):
        # Pr(|cX + sY| > t) ~ (c^m + s^m) Pr(|X| > t) for iid regularly
        # varying X, Y, so rho*/rho -> cos^m + sin^m far out; the gap left at
        # 2^10 delta is below 0.03%
        for m in (1.2, 1.7, 1.9):
            model = PowerLawModel(m=m, delta=1e-3)
            for theta in (0.01, 0.1, 0.6, math.pi / 4, 1.5):
                limit = math.cos(theta) ** m + math.sin(theta) ** m
                for k in (10, 12, 14, 16):
                    t = 2**k * model.delta
                    ratio = convolution_density(model, theta, t) / model.density(t)
                    assert abs(ratio / limit - 1.0) < 0.01, (m, theta, k, ratio, limit)

    def test_unresolved_quadrature_raises(self):
        # the unsplit far-tail integrand at the plain absolute tolerance: quad
        # stops before it resolves the peak where the co-factor hits the cutoff
        model = PowerLawModel(m=1.7, delta=1e-3)
        theta, d = 0.1, model.delta
        t = 4096 * d
        a, b = math.cos(theta), math.sin(theta)
        pieces = _intersect_rays(-d, d, (t - d * a) / b, (t + d * a) / b)

        def integrand(v):
            return model.density(v) * model.density((t - v * b) / a) / a

        with pytest.raises(QuadratureError, match="did not converge"):
            _quad_pieces(integrand, pieces, 1e-9)


class TestSTheta:
    def test_symmetry_about_quarter_pi(self):
        model = PowerLawModel(m=1.7, delta=1e-3)
        for off in (0.1, 0.3, 0.6):
            a = s_theta(model, math.pi / 4 - off)
            b = s_theta(model, math.pi / 4 + off)
            assert abs(a - b) < 1e-8

    def test_small_theta_vanishes(self):
        model = PowerLawModel(m=1.7, delta=1e-3)
        assert s_theta(model, 1e-3) < 1e-2

    def test_monotone_in_m_at_quarter_pi(self):
        values = [
            s_theta(PowerLawModel(m=m, delta=1e-3), math.pi / 4) for m in (1.2, 1.5, 1.8)
        ]
        assert values[0] < values[1] < values[2]

    def test_bounded_and_r_complement(self):
        model = PowerLawModel(m=1.7, delta=1e-3)
        s = s_theta(model, 0.4)
        assert 0.0 <= s <= 1.0
        assert s_theta_sweep(model, [0.4])[0]["r"] == 1.0 - s

    def test_monte_carlo_cross_check(self, rng):
        model = PowerLawModel(m=1.5, delta=1e-3)
        theta = 0.5
        n = 4_000_000
        x = power_law_samples(model.m, model.delta, n, rng, signed=True)
        y = power_law_samples(model.m, model.delta, n, rng, signed=True)
        v = math.cos(theta) * x + math.sin(theta) * y
        mc = np.count_nonzero(np.abs(v) < model.delta) / n
        assert abs(mc - s_theta(model, theta)) < 5e-4  # ~2 sigma of MC noise

    def test_sweep_rows(self):
        model = PowerLawModel(m=1.7, delta=1e-3)
        rows = s_theta_sweep(model, [0.3, math.pi / 4, math.pi / 2 - 0.3])
        assert abs(rows[0]["s"] - rows[2]["s"]) < 1e-8
        assert all(abs(r["s"] + r["r"] - 1.0) < 1e-12 for r in rows)


class TestTermCountRecurrence:
    def test_all_commuting_fixed_point(self):
        model = PowerLawModel(m=1.5, delta=1e-3)
        assert predict_term_count_step(1000.0, 0.0, 0.0, 0.7, model) == 1000.0

    def test_quarter_pi_m2_algebraic_identity(self):
        model = PowerLawModel(m=2.0, delta=1e-3)
        got = predict_term_count_step(1000.0, 0.6, 0.0, math.pi / 4, model)
        assert abs(got - 1000.0) < 1e-9

    def test_zero_angle_identity(self):
        model = PowerLawModel(m=1.5, delta=1e-3)
        assert predict_term_count_step(500.0, 0.8, 0.2, 0.0, model) == 500.0

    @pytest.mark.parametrize("theta", [0.4, math.pi / 4, 1.2, math.pi - 0.4])
    def test_merge_term(self, theta):
        # eta > 0: merged rows survive at r = 1 - s(theta), theta folded into [0, pi/2]
        model = PowerLawModel(m=1.7, delta=1e-3)
        n, phi, eta = 1000.0, 0.6, 0.25
        th = min(theta, math.pi - theta)
        expected = n * (
            1.0 - phi
            + (phi - eta) * (math.cos(th) ** model.m + math.sin(th) ** model.m)
            + eta * (1.0 - s_theta(model, th))
        )
        got = predict_term_count_step(n, phi, eta, theta, model)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_invalid_fractions(self):
        model = PowerLawModel(m=1.5, delta=1e-3)
        with pytest.raises(ValueError):
            predict_term_count_step(10.0, 0.2, 0.5, 0.3, model)

    def test_trace_replay_qualitative(self, rng):
        # feed measured (phi, eta, theta) through the recurrence and compare
        # growth-curve shapes; reported as RMS log error with no threshold
        n = 6
        gates = random_circuit_gates(rng, n, 60, clifford_fraction=0.0)
        circ = Circuit(n=n, gates=tuple((PauliString.from_label(l, n), t) for l, t in gates))
        obs = PauliSum.from_terms(n, [("Z0", 1.0)])
        delta = 5e-3
        _, trace = evolve(circ, obs, delta)
        model = PowerLawModel(m=1.5, delta=delta)
        predicted = [float(trace.gates[0].n_before)]
        measured = []
        for g in trace.gates:
            predicted.append(
                predict_term_count_step(predicted[-1], g.phi, g.eta, g.theta, model)
            )
            measured.append(g.n_after)
        logs = [
            (math.log(p) - math.log(m)) ** 2
            for p, m in zip(predicted[1:], measured)
            if p > 0 and m > 0
        ]
        rms_log_error = math.sqrt(sum(logs) / len(logs))
        assert math.isfinite(rms_log_error)


class TestEtaSpikes:
    def _gates(self, etas, thetas=None):
        from pauliprop.engine import GateStats

        gates = []
        for k, eta in enumerate(etas, start=1):
            theta = 0.3 if thetas is None else thetas[k - 1]
            gates.append(
                GateStats(k=k, theta=theta, phi=max(eta, 0.5), eta=eta, n_before=10,
                          n_after=10, truncated=0, norm=1.0, elapsed_ns=1)
            )
        return gates

    def test_spikes_sorted_and_thresholded(self):
        gates = self._gates([0.0, 0.25, 0.1, 0.4, 0.2])
        spikes = detect_eta_spikes(gates, threshold=0.2)
        assert [k for k, _, _ in spikes] == [2, 4, 5]
        assert all(eta >= 0.2 for _, eta, _ in spikes)

    def test_threshold_above_one_empty(self):
        gates = self._gates([0.5, 0.9, 1.0])
        assert detect_eta_spikes(gates, threshold=1.01) == []

    def test_unmeasured_eta_skipped(self):
        gates = self._gates([0.25, 0.0, 0.4])
        gates[1].eta = None  # a whole number of quarter turns
        assert [k for k, _, _ in detect_eta_spikes(gates, threshold=0.0)] == [1, 3]

    def test_clifford_single_row_trace_empty(self):
        from pauliprop import FixedAngle, Topology, kicked_ising

        topo = Topology.grid(2, 2)
        circ = kicked_ising(topo, T=2, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(math.pi / 2))
        obs = PauliSum.from_terms(4, [("Z0", 1.0)])
        _, trace = evolve(circ, obs, 0.0)
        assert detect_eta_spikes(trace.gates, threshold=0.2) == []

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            detect_eta_spikes([], 0.2)

    def test_nan_threshold_rejected(self):
        # eta >= nan is never true, so a NaN threshold would find no spike
        with pytest.raises(ValueError, match="threshold must be a number"):
            detect_eta_spikes(self._gates([0.5, 0.9]), math.nan)

