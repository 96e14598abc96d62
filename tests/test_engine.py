import dataclasses
import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    dense_heisenberg,
    dense_heisenberg_expectation,
    pauli_matrix,
    random_circuit_gates,
    random_pauli_label,
    reference_partition,
    statevector_expectation,
    sum_as_dense,
)
from pauliprop import (
    BudgetExceeded,
    Circuit,
    FixedAngle,
    InvariantViolation,
    PauliString,
    PauliSum,
    RowCapExceeded,
    Topology,
    TraceLog,
    apply_rotation,
    evolve,
    expectation,
    kicked_ising,
)
from pauliprop import engine, frame, kernels
from pauliprop.engine import GateStats
from pauliprop.sums import pairwise_dot


def _circuit(n, label_theta_pairs):
    return Circuit(
        n=n,
        gates=tuple((PauliString.from_label(lbl, n), th) for lbl, th in label_theta_pairs),
    )


class _Keeper:
    """An on_gate hook that keeps the states at the given gates, and a copy
    at each new running maximum of n_after: strictly more rows, so the first
    gate at N_max keeps the peak."""

    def __init__(self, at=()):
        self.at, self.snapshots, self._peak = set(at), {}, None

    def __call__(self, stats, state):
        if stats.k in self.at:
            self.snapshots[stats.k] = state.pauli_sum()
        if self._peak is None or stats.n_after > self._peak[0].n_after:
            self._peak = (stats, state.copy())

    def peak(self):
        """The peak's gate index and state."""
        stats, state = self._peak
        return stats.k, state.pauli_sum()


class TestApplyRotation:
    def test_quarter_turn_plus_residual(self):
        s = PauliSum.from_terms(1, [("Z", 1.0)])
        out, stats = apply_rotation(s, PauliString.from_label("X"), math.pi / 3, 0.0)
        want = {"Z0": math.cos(math.pi / 3), "Y0": math.sin(math.pi / 3)}
        got = dict(zip(out.labels(), out.coeffs.tolist()))
        assert set(got) == set(want)
        for k in want:
            assert abs(got[k] - want[k]) < 1e-15
        dense = dense_heisenberg([("X", math.pi / 3)], [("Z", 1.0)], 1)
        assert np.allclose(sum_as_dense(out), dense, atol=1e-14)

    def test_theta_zero_records_phi(self):
        s = PauliSum.from_terms(2, [("Z0", 1.0), ("Z1", 0.5)])
        out, stats = apply_rotation(s, PauliString.from_label("X0", 2), 0.0, 0.0)
        assert stats.phi == 0.5
        assert stats.truncated == 0
        assert sorted(zip(out.labels(), out.coeffs.tolist())) == sorted(
            zip(s.labels(), s.coeffs.tolist())
        )

    def test_clifford_no_branching(self):
        s = PauliSum.from_terms(1, [("Z", 1.0)])
        out, stats = apply_rotation(s, PauliString.from_label("X"), math.pi / 2, 0.0)
        assert len(out) == 1
        assert abs(abs(out.coeffs[0]) - 1.0) < 1e-15
        dense = dense_heisenberg([("X", math.pi / 2)], [("Z", 1.0)], 1)
        assert np.allclose(sum_as_dense(out), dense, atol=1e-14)

    @pytest.mark.parametrize("theta", [0.3, -0.7, math.pi / 2, -math.pi / 2, math.pi, 2.2, -3.9])
    def test_matches_dense_conjugation(self, theta, rng):
        labels = ["ZXI", "YIZ", "XXY", "IZZ"]
        s = PauliSum.from_terms(3, [(l, c) for l, c in zip(labels, [0.5, -0.25, 0.125, 1.0])])
        sigma_label = "XZY"
        out, _ = apply_rotation(s, PauliString.from_label(sigma_label), theta, 0.0)
        dense = dense_heisenberg(
            [(sigma_label, theta)], list(zip(labels, [0.5, -0.25, 0.125, 1.0])), 3
        )
        assert np.allclose(sum_as_dense(out), dense, atol=1e-12)

    def test_merge_pair_planar_rotation(self):
        s = PauliSum.from_terms(1, [("Z", 0.8), ("Y", 0.6)])
        theta = 0.4
        out, stats = apply_rotation(s, PauliString.from_label("X"), theta, 0.0)
        assert stats.eta == 1.0 and stats.phi == 1.0
        dense = dense_heisenberg([("X", theta)], [("Z", 0.8), ("Y", 0.6)], 1)
        assert np.allclose(sum_as_dense(out), dense, atol=1e-14)
        assert abs(out.raw_norm() - 1.0) < 1e-14

    def test_truncation_counted(self):
        s = PauliSum.from_terms(1, [("Z", 1.0)])
        out, stats = apply_rotation(s, PauliString.from_label("X"), 0.1, 0.2)
        # sin(0.1) ~ 0.0998 < 0.2 is cut
        assert stats.truncated == 1
        assert len(out) == 1

    def test_negated_generator_flips_angle(self):
        plain = PauliString.from_label("X")
        negated = PauliString(n=1, z=plain.z, x=plain.x, alpha=2)
        s = PauliSum.from_terms(1, [("Z", 1.0)])
        a, _ = apply_rotation(s, plain, -0.4, 0.0)
        b, _ = apply_rotation(s, negated, 0.4, 0.0)
        assert sorted(zip(a.labels(), a.coeffs.tolist())) == sorted(
            zip(b.labels(), b.coeffs.tolist())
        )

    @pytest.mark.parametrize(
        "seed, theta", enumerate([0.3, -0.37, math.pi / 2, -math.pi / 2, math.pi, 2.2, -3.9])
    )
    def test_truncated_gate_matches_dense_decomposition(self, seed, theta):
        delta = 0.05
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(4, 6))
        sigma = random_pauli_label(rng, n)
        for _ in range(100):
            labels = sorted({random_pauli_label(rng, n) for _ in range(4**n // 4)})
            # log-uniform in (delta, 1]: rows mid-evolution already passed the
            # threshold, and a Clifford angle truncates nothing
            mags = delta ** rng.random(len(labels))
            terms = list(zip(labels, (mags * rng.choice([-1.0, 1.0], size=len(labels))).tolist()))
            dense = dense_heisenberg([(sigma, theta)], terms, n)
            want = {}
            for letters in itertools.product("IXYZ", repeat=n):
                label = "".join(letters)
                c = np.trace(pauli_matrix(label) @ dense) / 2**n
                assert abs(c.imag) < 1e-12
                want[label] = c.real
            if min(abs(abs(c) - delta) for c in want.values()) > 1e-9:
                break
        else:
            pytest.fail("no draw keeps every coefficient 1e-9 away from delta")
        want = {label: c for label, c in want.items() if abs(c) >= delta}

        out, stats = apply_rotation(
            PauliSum.from_terms(n, terms), PauliString.from_label(sigma), theta, delta
        )
        got = {p.to_label(): c for p, c in out.terms()}
        assert stats.phi > 0.0
        assert set(got) == set(want)
        for label, c in want.items():
            assert abs(got[label] - c) < 1e-12

    def test_boundary_value_survives_at_gate(self):
        # the branch of Z0 about X0 carries exactly +-sin(0.3): kept at that
        # delta, dropped and counted one ulp above it
        s = PauliSum.from_terms(1, [("Z0", 1.0)])
        delta = math.sin(0.3)
        for d, kept in ((delta, True), (np.nextafter(delta, 1.0), False)):
            out, stats = apply_rotation(s, PauliString.from_label("X0", 1), 0.3, d)
            assert (PauliString.from_label("Y0", 1) in dict(out.terms())) == kept
            assert stats.truncated == (0 if kept else 1)

    def test_boundary_value_survives_at_entry(self):
        # the observable is thresholded once before gate 1; the commuting row
        # X1 then passes the gate unchanged
        delta = 3.5e-4
        for c, kept in ((delta, True), (np.nextafter(delta, 0.0), False)):
            s = PauliSum.from_terms(2, [("Z0", 1.0), ("X1", c)])
            out, stats = apply_rotation(s, PauliString.from_label("X0", 2), 0.3, delta)
            assert (PauliString.from_label("X1", 2) in dict(out.terms())) == kept
            assert stats.n_before == (2 if kept else 1)
            assert stats.truncated == 0

    @pytest.mark.parametrize("gate", ["Z0", "X0"], ids=["idle", "quarter"])
    def test_sub_delta_observable_keeps_trivial_bound(self, gate):
        # 56 rows of 0.01 have norm 0.075, so the bound at delta = 0.05 is 2.24;
        # Z0 commutes with every row, X0 anti-commutes with 21 of them
        labels = ["*".join(f"Z{q}" for q in qs) for qs in itertools.combinations(range(8), 3)]
        s = PauliSum.from_terms(8, [(label, 0.01) for label in labels])
        assert len(s) == 56
        out, stats = apply_rotation(s, PauliString.from_label(gate, 8), -math.pi / 2, 0.05)
        assert len(out) == 0
        assert stats.n_before == 0 and stats.n_after == 0

    @pytest.mark.parametrize(
        "theta", [0.3, math.pi / 2 + 0.3, math.pi + 0.3], ids=["residual", "quarter", "half"]
    )
    def test_row_cap_raises_with_partial_state(self, theta):
        # the partial state is the state before the gate that hit the cap
        s = PauliSum.from_terms(3, [("Z0", 1.0), ("Z1", 0.5)])
        with pytest.raises(RowCapExceeded) as err:
            apply_rotation(s, PauliString.from_label("X0*X1", 3), theta, 0.05, row_cap=2)
        assert err.value.trace.gates == []
        assert err.value.partial.labels() == s.labels()
        assert err.value.partial.coeffs.tolist() == s.coeffs.tolist()

    @pytest.mark.parametrize("label, theta", [
        ("Z0", 0.3), ("X0", math.pi), ("X0", math.pi / 2), ("X0", 0.3),
    ], ids=["idle", "half", "quarter", "residual"])
    def test_row_cap_checked_on_entry(self, label, theta):
        # an observable over the cap stops before its first gate, whatever the gate
        s = PauliSum.from_terms(3, [("Z0", 1.0), ("Z1", 0.5), ("Z2", 0.25)])
        with pytest.raises(RowCapExceeded) as err:
            apply_rotation(s, PauliString.from_label(label, 3), theta, 0.0, row_cap=2)
        assert err.value.trace.gates == [] and err.value.trace.aborted == "row_cap"
        assert err.value.partial.labels() == s.labels()
        assert err.value.partial.coeffs.tolist() == s.coeffs.tolist()

    def test_non_hermitian_generator_rejected(self):
        plain = PauliString.from_label("X")
        crooked = PauliString(n=1, z=plain.z, x=plain.x, alpha=1)
        s = PauliSum.from_terms(1, [("Z", 1.0)])
        with pytest.raises(Exception):
            apply_rotation(s, crooked, 0.4, 0.0)


# residuals r of angles k * pi/2 + r: none, the smallest subnormal, generic
# values and the +-pi/4 ties between two quarter turns
_split_residuals = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, math.pi / 4, -math.pi / 4]
) | st.floats(-math.pi / 4, math.pi / 4)


class TestSplit:
    """_split's identities, which evolve relies on: only a whole number of
    quarter turns leaves no residual to rotate by, and a framed generator's
    sign multiplies the residual's sin instead of the angle."""

    @staticmethod
    def _check_negation(angle):
        q, r = engine._split(angle)
        q_n, r_n = engine._split(-angle)
        assert q_n == -q
        if r != 0.0:
            assert r_n.hex() == (-r).hex()
        else:
            assert r_n == 0.0
        return q, r

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-40, 40), _split_residuals)
    def test_quarter_turns_plus_residual(self, k, r):
        angle = k * engine._HALF_PI + r
        q, residual = self._check_negation(angle)
        # |r| <= pi/4 up to the last bit of the angle, rounded at the ties
        assert abs(residual) <= math.pi / 4 + math.ulp(angle)
        # the residual is exactly 0.0 for a whole number of quarter turns, and only then
        assert (residual == 0.0) == (angle == k * engine._HALF_PI)
        if residual == 0.0:
            assert q == k

    @settings(max_examples=400, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_angle(self, angle):
        q, r = self._check_negation(angle)
        assert abs(r) <= math.pi / 4 + math.ulp(angle)
        assert (r == 0.0) == (angle == q * engine._HALF_PI)


class TestEvolve:
    def test_empty_circuit(self):
        s = PauliSum.from_terms(2, [("Z0", 1.0)])
        final, trace = evolve(Circuit(n=2, gates=()), s, 1e-3)
        assert len(trace.gates) == 0
        assert expectation(final) == 1.0

    @pytest.mark.parametrize("trial", range(8))
    def test_delta_zero_matches_oracles(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 7))
        gates = random_circuit_gates(rng, n, int(rng.integers(5, 40)))
        obs_label = "Z" + "I" * (n - 1)
        circ = _circuit(n, gates)
        final, trace = evolve(circ, PauliSum.from_terms(n, [(obs_label, 1.0)]), 0.0)
        got = expectation(final)
        assert abs(got - statevector_expectation(gates, [(obs_label, 1.0)], n)) < 1e-10
        assert abs(got - dense_heisenberg_expectation(gates, [(obs_label, 1.0)], n)) < 1e-10

    def test_multi_term_observable_linearity(self, rng):
        n = 3
        gates = random_circuit_gates(rng, n, 15)
        terms = [("ZII", 0.5), ("IXY", -0.25), ("ZZZ", 1.5)]
        final, _ = evolve(_circuit(n, gates), PauliSum.from_terms(n, terms), 0.0)
        assert abs(expectation(final) - statevector_expectation(gates, terms, n)) < 1e-10

    def test_norm_unitary_at_delta_zero(self, rng):
        n = 4
        gates = random_circuit_gates(rng, n, 30, clifford_fraction=0.2)
        obs = PauliSum.from_terms(n, [("ZIII", 1.0)])
        _, trace = evolve(_circuit(n, gates), obs, 0.0)
        prev = trace.initial_norm
        for g in trace.gates:
            assert abs(g.norm - prev) < 1e-12
            prev = g.norm

    def test_norm_monotone_with_truncation(self, rng):
        n = 5
        gates = random_circuit_gates(rng, n, 40, clifford_fraction=0.1)
        obs = PauliSum.from_terms(n, [("ZZIII", 1.0)])
        _, trace = evolve(_circuit(n, gates), obs, 0.05)
        prev = trace.initial_norm
        for g in trace.gates:
            assert g.norm <= prev + 1e-12
            prev = g.norm

    def test_clifford_invariance_single_row(self):
        topo = Topology.grid(2, 3)
        circ = kicked_ising(topo, T=4, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(math.pi / 2))
        obs = PauliSum.from_terms(6, [("Z2", 1.0)])
        _, trace = evolve(circ, obs, 0.0)
        assert all(g.n_after == 1 for g in trace.gates)

    def test_clifford_expectation_matches_statevector(self):
        topo = Topology.grid(2, 2)
        circ = kicked_ising(topo, T=3, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(math.pi / 2))
        obs = PauliSum.from_terms(4, [("Z2", 1.0)])
        final, _ = evolve(circ, obs, 0.0)
        gates = [(g.to_label(), th) for g, th in circ.gates]
        want = statevector_expectation(gates, [("IIZI", 1.0)], 4)
        got = expectation(final)
        assert abs(got - want) < 1e-12
        assert got in (-1.0, 0.0, 1.0)

    def test_phi_eta_match_reference(self, rng):
        n = 4
        terms = [
            ("".join(rng.choice(list("IXYZ")) for _ in range(n)), float(rng.normal()) or 0.1)
            for _ in range(30)
        ]
        s = PauliSum.from_terms(n, terms)
        sigma = PauliString.from_label("XIZY")
        circ = Circuit(n=n, gates=((sigma, 0.5),))
        _, trace = evolve(circ, s, 0.0)
        _, _, phi_ref, eta_ref = reference_partition(s, sigma)
        assert trace.gates[0].phi == phi_ref
        assert trace.gates[0].eta == eta_ref

    def test_gate_stats_invariants(self, rng):
        n = 5
        gates = random_circuit_gates(rng, n, 50)
        obs = PauliSum.from_terms(n, [("ZZIII", 0.7), ("IIXYZ", 0.3)])
        _, trace = evolve(_circuit(n, gates), obs, 1e-4)
        for g in trace.gates:
            assert 0.0 <= g.phi <= 1.0
            assert g.eta is None or 0.0 <= g.eta <= g.phi
            assert g.n_after <= g.n_before + int(round(g.phi * g.n_before))

    def test_determinism_bitwise(self, rng):
        n = 5
        gates = random_circuit_gates(rng, n, 40)
        obs = PauliSum.from_terms(n, [("ZIIII", 1.0)])
        a, trace_a = evolve(_circuit(n, gates), obs, 1e-3)
        b, trace_b = evolve(_circuit(n, gates), obs, 1e-3)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert [g.n_after for g in trace_a.gates] == [g.n_after for g in trace_b.gates]

    def test_budget_abort_carries_partial_trace(self):
        topo = Topology.grid(3, 3)
        circ = kicked_ising(topo, T=3, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(0.4))
        obs = PauliSum.from_terms(9, [("Z4", 1.0)])
        with pytest.raises(BudgetExceeded) as err:
            evolve(circ, obs, 0.0, budget_s=0.0)
        assert err.value.trace is not None
        assert err.value.trace.aborted == "budget"
        assert err.value.partial is not None

    def test_row_cap_abort_carries_partial_trace(self):
        topo = Topology.grid(3, 3)
        circ = kicked_ising(topo, T=4, theta_zz=-0.7, theta_x_spec=FixedAngle(0.4))
        obs = PauliSum.from_terms(9, [("Z4", 1.0)])
        with pytest.raises(RowCapExceeded) as err:
            evolve(circ, obs, 0.0, row_cap=16)
        assert err.value.trace is not None
        assert err.value.trace.aborted == "row_cap"
        assert len(err.value.trace.gates) > 0

    def test_snapshots_at_requested_gates(self, rng):
        n = 4
        gates = random_circuit_gates(rng, n, 12, clifford_fraction=0.0)
        obs = PauliSum.from_terms(n, [("ZIII", 1.0)])
        keep = _Keeper((3, 7))
        final, trace = evolve(_circuit(n, gates), obs, 0.0, on_gate=keep)
        assert set(keep.snapshots) == {3, 7}
        assert keep.snapshots[3].n == n

    def test_step_snapshots_and_peak(self):
        topo = Topology.grid(2, 2)
        circ = kicked_ising(topo, T=3, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(0.3))
        obs = PauliSum.from_terms(4, [("Z0", 1.0)])
        per_step = circ.metadata["gates_per_step"]
        steps = (per_step, 2 * per_step, 3 * per_step)
        keep = _Keeper(steps)
        final, trace = evolve(circ, obs, 0.0, on_gate=keep)
        assert set(keep.snapshots) == set(steps)
        k_peak, snap = keep.peak()
        assert len(snap) == trace.n_max
        assert k_peak == trace.k_star

    @pytest.mark.parametrize("stop", ["row_cap", "budget"])
    def test_hook_sees_every_recorded_gate(self, stop, monkeypatch):
        topo = Topology.grid(3, 3)
        circ = kicked_ising(topo, T=4, theta_zz=-0.7, theta_x_spec=FixedAngle(0.4))
        obs = PauliSum.from_terms(9, [("Z4", 1.0)])
        seen = []
        if stop == "budget":  # a clock that advances 1 s a reading
            ticks = itertools.count()
            monkeypatch.setattr(engine, "time", mock.Mock(
                monotonic=lambda: float(next(ticks)), perf_counter_ns=lambda: 0))
        limits = {"row_cap": 16} if stop == "row_cap" else {"budget_s": 20.5}
        with pytest.raises((RowCapExceeded, BudgetExceeded)) as err:
            evolve(circ, obs, 0.0, on_gate=lambda stats, state: seen.append(stats), **limits)
        assert err.value.trace.aborted == stop
        assert len(seen) > 0
        assert seen == err.value.trace.gates

    def test_copied_state_is_read_once(self):
        obs = PauliSum.from_terms(2, [("Z0", 1.0)])
        copies = []
        evolve(_circuit(2, [("X0", 0.3), ("Y0*Y1", 0.2)]), obs, 0.0,
               on_gate=lambda stats, state: copies.append(state.copy()))
        assert len(copies[0].pauli_sum()) == 2
        with pytest.raises(RuntimeError):
            copies[0].pauli_sum()


def _golden_circuit():
    """6 qubits, 4 steps; angles in all four quarter classes, exact +-pi/2 and pi included."""
    kicks = (0.3, math.pi / 2 + 0.2, math.pi - 0.25, -math.pi / 2 - 0.35,
             math.pi / 2, -math.pi / 2, math.pi, -0.6)
    gates = []
    for step in range(4):
        for q in range(5):
            gates.append((f"Z{q}*Z{q + 1}", 0.7 + step if (q + step) % 3 == 0 else -math.pi / 2))
        for q in range(6):
            gates.append((f"X{q}", kicks[(q + step) % len(kicks)]))
        gates.append(("Y0*X3*Z5", 2.2 + step))
    return _circuit(6, gates)


def _golden_observable():
    return PauliSum.from_terms(6, [("Z2", 1.0), ("X0*Z1", 0.5), ("Y4", -0.25)])


GOLDEN_SUMMARY = (435, 48, "0.09492838905354659")
GOLDEN_STATE_SHA256 = "8c9e1de96a63e48837bbddab61c3b496e1e9c5373f3922e9e913e42d1009bc82"
# every trace column but the norm, unchanged since the engine that moved rows
# for quarter turns but for eta, None at the 19 quarter turns and 3 half turns
GOLDEN_TRACE_COLUMNS_SHA256 = "404bbc74921e6d0d3c11a794fea1ba2b3b5a5eaab7ecaf2d932cd1f55bdcc033"
GOLDEN_TRACE_SHA256 = "119298e5f1e493fa4f00fb2ef8cb5dea4e98bed9339c6b7bd925dc06b83556e1"


# (label, q, residual): the angle q*pi/2 + residual, an exact multiple of pi/2 when residual is 0
_residuals = st.one_of(st.just(0.0), st.floats(-math.pi / 4, math.pi / 4))


@st.composite
def _rotation_problems(draw):
    n = draw(st.integers(1, 5))
    label = st.text("IXYZ", min_size=n, max_size=n)
    gates = draw(st.lists(st.tuples(label, st.integers(-4, 4), _residuals), min_size=1, max_size=12))
    terms = draw(st.dictionaries(label, st.floats(0.05, 1.0) | st.floats(-1.0, -0.05),
                                 min_size=1, max_size=6))
    return n, gates, sorted(terms.items())


class TestSingleRotationPath:
    def test_golden_bits(self):
        # recorded from the engine that applied quarter turns as row
        # relabellings; folding them into one rotation, and absorbing them
        # into a Clifford frame, must change no coefficient bit, row or trace
        # value but the norm.  The full trace digest was re-recorded twice:
        # when the norm moved from a BLAS dot to numpy's pairwise sum, and
        # when it came to be summed in the frame's row order (6 of the 48
        # norms moved by 1-2 ulp).  Both trace digests were re-recorded when
        # absorbed quarter turns stopped measuring eta; every other value,
        # the norms included, stayed bit for bit.  They were re-recorded again
        # when the frame came to take every quarter turn and _gate only the
        # residual: eta became None at the 3 half turns (gates 23, 34 and 45),
        # and 8 of the 48 norms moved by 1 ulp
        final, trace = evolve(_golden_circuit(), _golden_observable(), 2.0**-8)
        state = hashlib.sha256(
            final.bits.astype("<u8").tobytes() + final.coeffs.astype("<f8").tobytes()
        ).hexdigest()
        columns = [(g.k, g.phi, g.eta, g.n_before, g.n_after, g.truncated) for g in trace.gates]
        rows = [(*row, g.norm) for row, g in zip(columns, trace.gates)]
        assert (trace.n_max, trace.k_star, repr(expectation(final))) == GOLDEN_SUMMARY
        assert state == GOLDEN_STATE_SHA256
        assert hashlib.sha256(repr(columns).encode()).hexdigest() == GOLDEN_TRACE_COLUMNS_SHA256
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == GOLDEN_TRACE_SHA256

    @settings(max_examples=60, deadline=None)
    @given(_rotation_problems())
    def test_matches_dense_oracle_at_delta_zero(self, problem):
        n, gates, terms = problem
        angles = [(label, q * (math.pi / 2) + r) for label, q, r in gates]
        final, _ = evolve(_circuit(n, angles), PauliSum.from_terms(n, terms), 0.0)
        assert np.allclose(sum_as_dense(final), dense_heisenberg(angles, terms, n), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(_rotation_problems())
    def test_quarter_turns_truncate_nothing(self, problem):
        n, gates, terms = problem
        angles = [(label, q * (math.pi / 2) + r) for label, q, r in gates]
        _, trace = evolve(_circuit(n, angles), PauliSum.from_terms(n, terms), 0.07)
        for (_label, _q, r), g in zip(gates, trace.gates):
            if r == 0.0:
                assert g.truncated == 0 and g.n_after == g.n_before


def _reference_evolve(circuit, observable, delta, row_cap=engine.DEFAULT_ROW_CAP):
    """evolve without the light cone or the frame: engine._gate on every gate.

    A gate's quarter turns are _gate calls at (cos, sin) = (0, +-1), then its
    residual one at (cos r, sin r); a whole turn without a residual is one
    call at (1, 0), for phi.  A quarter turn drops only the +-0 rows it
    vacates, so it runs under the default cap and truncates nothing; the row
    cap is checked at the residual.

    Returns the state after each gate (index 0 is the entry state) in the
    PauliSum layout, the trace rows without elapsed_ns, with the norm
    recomputed after every gate, and whether the row cap stopped it: on
    entry or at the gate after the last row.  The gate works on keyed rows,
    so the words are byte-swapped on the way in and back on the way out, as
    evolve does.
    """
    bits, coeffs, _ = engine._threshold(observable.bits.byteswap(), observable.coeffs.copy(), delta)
    states, rows = [(bits.byteswap(), coeffs.copy())], []
    if len(coeffs) > row_cap:  # the cap holds from entry, as in evolve
        return states, rows, True
    for k, (sigma, theta) in enumerate(circuit.gates, start=1):
        n_before = len(coeffs)
        prep = engine._prepare_generator(sigma, circuit.n)
        q, r = engine._split(prep.orientation * theta)
        turns = [[] if r else [(1.0, 0.0)], [(0.0, 1.0)], [(0.0, 1.0)] * 2, [(0.0, -1.0)]][q % 4]
        for cos_t, sin_t in turns:
            bits, coeffs, phi, eta, _, _ = engine._gate(
                bits, coeffs, prep.words, prep.canon, cos_t, sin_t, delta, engine.DEFAULT_ROW_CAP
            )
        truncated = 0
        if r:
            bits, coeffs, phi, eta, truncated, capped = engine._gate(
                bits, coeffs, prep.words, prep.canon, math.cos(r), math.sin(r), delta, row_cap
            )
            if capped:
                return states, rows, True
        norm = math.sqrt(pairwise_dot(coeffs, coeffs))
        rows.append((k, theta, phi, eta, n_before, len(coeffs), truncated, norm))
        states.append((bits.byteswap(), coeffs.copy()))
    return states, rows, False


# A norm is summed pairwise in the frame's row order, the reference's in the
# true state's.  numpy's pairwise sum of at most 4^6 terms rounds at most 24
# times on the way to any term, so the two sums of squares differ by at most
# 48 eps relative, and the square root halves that: 24 eps, under 64 ulp
NORM_ULPS = 64


def _assert_trace_matches(trace, ref_rows):
    """Every column but elapsed_ns bit for bit, except the norm: within NORM_ULPS.

    eta is compared wherever the engine measured it; a whole number of quarter
    turns records None, and the reference, which runs _gate there too, a number.
    """
    fields = [f.name for f in dataclasses.fields(GateStats)
              if f.name not in ("norm", "elapsed_ns")]
    at = fields.index("eta")
    assert len(trace.gates) == len(ref_rows)
    assert repr([tuple(getattr(g, name) for name in fields) for g in trace.gates]) == \
        repr([row[:at] + (None,) + row[at + 1:-1] if g.eta is None else row[:-1]
              for g, row in zip(trace.gates, ref_rows)])
    for g, row in zip(trace.gates, ref_rows):
        assert abs(g.norm - row[-1]) <= NORM_ULPS * math.ulp(row[-1]), g.k


def _assert_state(s, want):
    bits, coeffs = want
    assert s.bits.tobytes() == bits.tobytes()
    assert s.coeffs.tobytes() == coeffs.tobytes()


def _evolve_recording_scans(circuit, observable, delta):
    """evolve, plus the 1-based indices of the gates that scanned the state.

    Every scan, an absorbed gate's count included, runs kernels.anti_mask.
    """
    real_trace_log, real_anti_mask = engine.TraceLog, kernels.anti_mask
    traces, scanned = [], set()

    def trace_log(*args, **kwargs):
        traces.append(real_trace_log(*args, **kwargs))
        return traces[-1]

    def anti_mask(*args):
        scanned.add(len(traces[-1].gates) + 1)
        return real_anti_mask(*args)

    with mock.patch.object(engine, "TraceLog", trace_log), \
            mock.patch.object(kernels, "anti_mask", anti_mask):
        final, trace = evolve(circuit, observable, delta)
    return final, trace, scanned


@st.composite
def _cone_problems(draw):
    """Up to 6 qubits; identity-heavy labels so that many gates miss the cone."""
    n = draw(st.integers(1, 6))
    label = st.text(st.sampled_from("IIIXYZ"), min_size=n, max_size=n)
    gates = draw(st.lists(st.tuples(label, st.integers(-4, 4), _residuals), max_size=16))
    terms = draw(st.dictionaries(label, st.floats(0.05, 1.0) | st.floats(-1.0, -0.05),
                                 min_size=1, max_size=6))
    delta = draw(st.sampled_from([0.0, 0.05]))
    return n, gates, sorted(terms.items()), delta


class TestLightCone:
    @settings(max_examples=150, deadline=None)
    @given(_cone_problems())
    def test_matches_gate_on_every_gate(self, problem):
        n, gates, terms, delta = problem
        circuit = _circuit(n, [(label, q * (math.pi / 2) + r) for label, q, r in gates])
        observable = PauliSum.from_terms(n, terms)
        states, ref_rows, _ = _reference_evolve(circuit, observable, delta)
        final, trace, scanned = _evolve_recording_scans(circuit, observable, delta)

        _assert_state(final, states[-1])
        _assert_trace_matches(trace, ref_rows)
        for k, _theta, phi, *_ in ref_rows:
            if k not in scanned:
                assert phi == 0.0

    def test_idle_gate_outside_cone_is_not_scanned(self):
        obs = PauliSum.from_terms(3, [("Z0", 1.0)])
        circuit = _circuit(3, [("X2", 0.3), ("X0", 0.3), ("X2", 0.3), ("Z1", 0.4)])
        with mock.patch.object(kernels, "anti_mask", wraps=kernels.anti_mask) as scan:
            _, trace = evolve(circuit, obs, 0.0)
        assert scan.call_count == 1
        assert [g.phi for g in trace.gates] == [0.0, 1.0, 0.0, 0.0]
        norms = [g.norm for g in trace.gates]
        assert norms == [1.0, norms[1], norms[1], norms[1]]


def _scan_reference(bits, words):
    """The whole-state partner search: every query against every row."""
    anti_idx = np.flatnonzero(kernels.anti_mask(bits, words))
    anti_bits = bits[anti_idx]
    pos = kernels.find_rows(bits, anti_bits ^ words) if len(anti_idx) else None
    return anti_idx, anti_bits, pos


@st.composite
def _scan_problems(draw):
    """A keyed, canonically sorted state holding some rows together with their
    partners row ^ sigma, and the keyed generator sigma."""
    w = draw(st.integers(1, 3))
    width = 2 * w
    # small words as well as full-range ones, so that rows share leading words
    word = st.integers(0, 3) | st.sampled_from([2**63, 2**64 - 1, 256]) | st.integers(0, 2**64 - 1)
    sigma = np.array(draw(st.lists(word, min_size=width, max_size=width)), dtype=np.uint64)
    rows = draw(st.lists(st.tuples(st.lists(word, min_size=width, max_size=width), st.booleans()),
                         max_size=30))
    native = [np.array(r, dtype=np.uint64) for r, _ in rows]
    native += [np.array(r, dtype=np.uint64) ^ sigma for r, paired in rows if paired]
    bits = np.unique(np.array(native, dtype=np.uint64).reshape(-1, width), axis=0).byteswap()
    return np.ascontiguousarray(bits[kernels.sort_order(bits)]), sigma.byteswap()


def _labelled_state(n, labels, sigma):
    """Keyed, canonically sorted rows of the labels, and the keyed generator."""
    bits = np.array([PauliString.from_label(label, n).nu_words() for label in labels]).byteswap()
    sigma_words = PauliString.from_label(sigma, n).nu_words().byteswap()
    return np.ascontiguousarray(bits[kernels.sort_order(bits)]), sigma_words


# The search splits the anti rows by the lowest bit of the generator's first
# nonzero keyed word: x0 for X0 and for X0*X1, z1 for X0*Z1*Y2 and for Y1,
# x66 for X66.
_SCAN_CASES = {
    # Z0 and Y0 pair, Z0*Z1 does not, Z1 and X0 commute
    "single-bit": (3, ["Z0", "Y0", "Z0*Z1", "Z1", "X0"], "X0", 2),
    # three anti rows hold x0 and one does not, so the side without it is searched
    "larger-side-holds-the-bit": (3, ["Z0", "Y0", "Y0*X2", "Y0*X1"], "X0*X1", 2),
    "all-paired": (3, ["Z0", "Y0*Z1*Y2", "Z2", "X0*Z1*X2", "X1", "X0*Y1*Y2", "Z1"], "X0*Z1*Y2", 6),
    "none-paired": (3, ["Z1", "Z0*X1", "Z1*Z2", "Z0"], "Y1", 0),
    # the generator's only nonzero word is the second word of its x half
    "second-word": (70, ["Z66", "Y66", "Z66*X3", "Z0"], "X66", 2),
}


class TestScan:
    @settings(max_examples=200, deadline=None)
    @given(_scan_problems())
    def test_partner_slots_match_whole_state_search(self, problem):
        bits, words = problem
        anti_idx, anti_bits, pos = engine._scan(bits, words)
        ref_idx, ref_bits, ref_pos = _scan_reference(bits, words)
        assert np.array_equal(anti_idx, ref_idx)
        assert anti_bits.tobytes() == ref_bits.tobytes()
        if ref_pos is None:
            assert pos is None
        else:
            assert pos.dtype == np.int64 and pos.tolist() == ref_pos.tolist()

    @pytest.mark.parametrize("case", list(_SCAN_CASES.values()), ids=list(_SCAN_CASES))
    def test_split_search_writes_both_slots_of_each_pair(self, case):
        n_qubits, labels, sigma, n_paired = case
        bits, words = _labelled_state(n_qubits, labels, sigma)
        anti_idx, anti_bits, pos = engine._scan(bits, words)
        ref_idx, ref_bits, ref_pos = _scan_reference(bits, words)
        assert np.array_equal(anti_idx, ref_idx)
        assert anti_bits.tobytes() == ref_bits.tobytes()
        assert pos.tolist() == ref_pos.tolist()
        assert int(np.count_nonzero(pos >= 0)) == n_paired


class TestTake:
    @pytest.mark.parametrize("n_rows", [0, 1, 9])
    @pytest.mark.parametrize("width", [2, 4])
    def test_matches_fancy_indexing(self, n_rows, width, rng):
        bits = rng.integers(0, 2**64, size=(n_rows, width), dtype=np.uint64)
        mask = rng.random(n_rows) < 0.5
        slots = rng.integers(0, max(n_rows, 1), size=6 if n_rows else 0)
        for index in (mask, np.flatnonzero(mask), slots, np.zeros(n_rows, bool),
                      np.ones(n_rows, bool), np.empty(0, np.intp)):
            got, want = engine._take(bits, index), bits[index]
            assert got.dtype == np.uint64 and got.flags.c_contiguous
            assert got.shape == want.shape == (len(want), width)
            assert got.tobytes() == want.tobytes()


def _merge_arrays(bits, coeffs, new_bits, new_coeffs, pos):
    """Insert a sorted new block at the given searchsorted positions."""
    n, m = len(coeffs), len(new_coeffs)
    out_bits = np.empty((n + m, bits.shape[1]), np.uint64)
    out_coeffs = np.empty(n + m, np.float64)
    out_rows = engine._rows(out_bits)
    new_at = pos + np.arange(m)
    old_mask = np.ones(n + m, bool)
    old_mask[new_at] = False
    out_rows[new_at] = engine._rows(new_bits)
    out_coeffs[new_at] = new_coeffs
    out_rows[old_mask] = engine._rows(bits)
    out_coeffs[old_mask] = coeffs
    return out_bits, out_coeffs


def _splice_reference(bits, coeffs, new_bits, new_coeffs, delta):
    """The splice in two copies: the threshold over the whole state, then the merge."""
    bits, coeffs, dropped = engine._threshold(bits, coeffs, delta)
    if len(new_coeffs):
        bits, coeffs = _merge_arrays(
            bits, coeffs, new_bits, new_coeffs, kernels.lower_bound(bits, new_bits)
        )
    return bits, coeffs, dropped


def _sorted_block(entries):
    """Keyed rows of (key, role, coefficient) entries in canonical order, their
    coefficients and roles."""
    bits = np.array([[key, 0] for key, _, _ in entries], np.uint64).reshape(-1, 2).byteswap()
    order = kernels.sort_order(bits)
    coeffs = np.array([c for _, _, c in entries], np.float64)[order]
    return np.ascontiguousarray(bits[order]), coeffs, [entries[i][1] for i in order]


@st.composite
def _splice_problems(draw):
    """Unique rows, each kept, anti or new, with the coefficient a gate left
    it: kept and new rows pass the threshold, anti rows may fail it.  A new
    row is the branch of an anti row, so there are no more new rows than
    anti rows."""
    delta = draw(st.sampled_from([0.0, 0.25]))
    passing = st.floats(0.25, 2.0) | st.floats(-2.0, -0.25)
    after_gate = passing | st.sampled_from([0.0, -0.0, 0.125, -0.125])
    entries = []
    for key in draw(st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=24)):
        role = draw(st.sampled_from(["kept", "anti", "new"]))
        entries.append((key, role, draw(after_gate if role == "anti" else passing)))
    roles = [role for _, role, _ in entries]
    assume(roles.count("new") <= roles.count("anti"))
    return entries, delta


class TestSplice:
    @settings(max_examples=300, deadline=None)
    @given(_splice_problems())
    # drops at the first and the last slot
    @example(([(1, "anti", 0.125), (3, "kept", 1.0), (4, "new", 0.5), (5, "anti", 0.5),
               (7, "anti", -0.125)], 0.25))
    # new rows before the first row and after the last
    @example(([(0, "new", 0.5), (1, "new", -0.75), (2, "kept", 1.0), (3, "anti", 0.125),
               (4, "kept", 1.0), (9, "new", 0.25)], 0.25))
    @example(([(1, "anti", 0.5), (2, "new", 1.0), (3, "kept", 1.0)], 0.25))  # no drops
    @example(([(1, "kept", 1.0), (2, "anti", 0.0), (3, "anti", -0.25)], 0.25))  # no new rows
    @example(([(1, "kept", 1.0), (2, "anti", -0.5)], 0.25))  # no row moves
    # every row dropped, with and without new rows
    @example(([(1, "anti", 0.0), (2, "anti", 0.125), (3, "anti", -0.125)], 0.25))
    @example(([(1, "anti", -0.0), (2, "new", 1.0), (3, "anti", 0.125)], 0.25))
    # delta = 0 drops both zeros and keeps the rest
    @example(([(1, "anti", -0.0), (2, "anti", 0.0), (3, "kept", 1.0), (4, "anti", 1e-300),
               (5, "new", -0.5)], 0.0))
    def test_matches_threshold_then_merge(self, problem):
        entries, delta = problem
        bits, coeffs, roles = _sorted_block([e for e in entries if e[1] != "new"])
        new_bits, new_coeffs, _ = _sorted_block([e for e in entries if e[1] == "new"])
        anti = np.flatnonzero(np.array([role == "anti" for role in roles], bool))
        want_bits, want_coeffs, want_dropped = _splice_reference(
            bits.copy(), coeffs.copy(), new_bits, new_coeffs, delta
        )
        got_bits, got_coeffs, dropped = engine._splice(bits, coeffs, anti, delta, new_bits, new_coeffs)
        assert dropped == want_dropped
        assert got_bits.dtype == np.uint64 and got_bits.flags.c_contiguous
        assert got_bits.shape == (len(got_coeffs), 2)
        assert got_bits.tobytes() == want_bits.tobytes()
        assert got_coeffs.tobytes() == want_coeffs.tobytes()
        if not (dropped or len(new_coeffs)):
            assert got_bits is bits and got_coeffs is coeffs


@st.composite
def _frame_problems(draw):
    """Up to 6 qubits: exact quarter and half turns among other angles, some
    generators negated, a row cap and a wall budget in gates."""
    n = draw(st.integers(1, 6))
    label = st.text(st.sampled_from("IIXYZ"), min_size=n, max_size=n)
    gates = draw(st.lists(st.tuples(label, st.booleans(), st.integers(-4, 4), _residuals),
                          min_size=1, max_size=16))
    terms = draw(st.dictionaries(label, st.floats(0.05, 1.0) | st.floats(-1.0, -0.05),
                                 min_size=1, max_size=6))
    delta = draw(st.sampled_from([0.0, 0.05]))
    row_cap = draw(st.integers(1, 48))
    budget = draw(st.floats(0.5, len(gates) + 0.5))
    map_rows = draw(st.sampled_from([3, frame._MAP_ROWS]))
    return n, gates, sorted(terms.items()), delta, row_cap, budget, map_rows


def _signed_circuit(n, gates):
    out = []
    for label, negated, q, r in gates:
        p = PauliString.from_label(label)
        sigma = PauliString(n=n, z=p.z, x=p.x, alpha=p.alpha + 2 * negated)
        out.append((sigma, q * (math.pi / 2) + r))
    return Circuit(n=n, gates=tuple(out))


class TestCliffordFrame:
    @settings(max_examples=150, deadline=None)
    @given(_frame_problems())
    def test_every_way_out_matches_unframed_gates(self, problem):
        n, gates, terms, delta, row_cap, budget, map_rows = problem
        with mock.patch.object(frame, "_MAP_ROWS", map_rows):
            self._check_every_way_out(n, gates, terms, delta, row_cap, budget)

    @staticmethod
    def _check_every_way_out(n, gates, terms, delta, row_cap, budget):
        circuit = _signed_circuit(n, gates)
        observable = PauliSum.from_terms(n, terms)
        states, ref_rows, _ = _reference_evolve(circuit, observable, delta)

        every = range(1, len(gates) + 1)
        keep = _Keeper(every)
        final, trace = evolve(circuit, observable, delta, on_gate=keep)
        _assert_state(final, states[-1])
        _assert_trace_matches(trace, ref_rows)
        assert set(keep.snapshots) == set(every)
        for k, snap in keep.snapshots.items():
            _assert_state(snap, states[k])
        k_peak, peak = keep.peak()
        assert k_peak == trace.k_star
        _assert_state(peak, states[k_peak])

        capped_states, capped_rows, capped = _reference_evolve(circuit, observable, delta, row_cap)
        if capped:
            with pytest.raises(RowCapExceeded) as err:
                evolve(circuit, observable, delta, row_cap=row_cap)
            _assert_trace_matches(err.value.trace, capped_rows)
            _assert_state(err.value.partial, capped_states[-1])
        else:
            evolve(circuit, observable, delta, row_cap=row_cap)

        # a clock that advances 1 s a reading (gate k reads k) stops at the
        # first gate past the budget
        ticks = itertools.count()
        clock = mock.Mock(monotonic=lambda: float(next(ticks)), perf_counter_ns=lambda: 0)
        with mock.patch.object(engine, "time", clock):
            if budget < len(gates):
                with pytest.raises(BudgetExceeded) as err:
                    evolve(circuit, observable, delta, budget_s=budget)
                done = len(err.value.trace.gates)
                assert done == math.floor(budget)
                _assert_state(err.value.partial, states[done])
            else:
                evolve(circuit, observable, delta, budget_s=budget)

    @settings(max_examples=100, deadline=None)
    @given(_frame_problems())
    def test_gate_rotates_by_a_residual_only(self, problem):
        # every whole quarter turn goes into the frame: _gate rotates by a
        # residual |r| <= pi/4, never by an exact multiple of pi/2
        n, gates, terms, delta, *_ = problem
        with mock.patch.object(engine, "_gate", wraps=engine._gate) as gate:
            evolve(_signed_circuit(n, gates), PauliSum.from_terms(n, terms), delta)
        for call in gate.call_args_list:
            cos_t, sin_t = call.args[4:6]
            assert cos_t > 0.0 and sin_t != 0.0

    def test_quarter_turns_move_no_row(self):
        obs = PauliSum.from_terms(4, [("Z1", 1.0), ("X0*Z3", 0.5)])
        circuit = _circuit(4, [("Z0*Z1", -math.pi / 2), ("X1", math.pi / 2),
                               ("Y2*Z3", 3 * math.pi / 2), ("Z1*Z2", -math.pi / 2),
                               ("X3", -math.pi / 2)])
        with mock.patch.object(engine, "_gate") as gate:
            final, trace = evolve(circuit, obs, 0.0)
        gate.assert_not_called()
        assert sum(g.eta is None for g in trace.gates) == sum(g.phi > 0.0 for g in trace.gates) > 0
        states, ref_rows, _ = _reference_evolve(circuit, obs, 0.0)
        _assert_state(final, states[-1])
        _assert_trace_matches(trace, ref_rows)

    @pytest.mark.parametrize("case", ["kicked-ising-grid", "golden"])
    def test_absorbed_gate_counts_once_and_searches_no_partner(self, case):
        # a quarter turn swaps each pair and a half turn keeps it, so a gate
        # with no residual needs phi alone: one anti_mask count, no partner
        # search, and eta recorded as None; the golden circuit has 3 half turns
        if case == "golden":
            circuit, obs, delta = _golden_circuit(), _golden_observable(), 2.0**-8
        else:
            circuit, delta = kicked_ising(Topology.grid(3, 3), T=5, theta_zz=-math.pi / 2,
                                          theta_x_spec=FixedAngle(0.3)), 1e-3
            obs = PauliSum.from_terms(9, [("Z4", 1.0)])
        counts = []  # (anti_mask, find_rows) calls so far, at the end of each gate
        with mock.patch.object(kernels, "anti_mask", wraps=kernels.anti_mask) as anti, \
                mock.patch.object(kernels, "find_rows", wraps=kernels.find_rows) as find:
            _, trace = evolve(circuit, obs, delta, on_gate=lambda stats, state: counts.append(
                (anti.call_count, find.call_count)))
        absorbed = 0
        for g, (_sigma, theta), before, after in zip(trace.gates, circuit.gates,
                                                    [(0, 0)] + counts, counts):
            if engine._split(theta)[1] == 0.0 and g.phi > 0.0:
                absorbed += 1
                assert (after[0] - before[0], after[1] - before[1]) == (1, 0), g.k
                assert g.eta is None, g.k
            else:
                assert g.eta is not None, g.k
        assert sum(g.eta is None for g in trace.gates) == absorbed > 0

    def test_no_frame_before_the_first_absorb(self):
        # residual angles and a whole turn: nothing to absorb, so no frame is
        # made, even with snapshots and a peak snapshot to unframe
        obs = PauliSum.from_terms(3, [("Z1", 1.0)])
        circuit = _circuit(3, [("X1", 0.3), ("Z1*Z2", 0.4), ("Y0*Y1", -0.7),
                               ("X2", 2 * math.pi)])
        keep = _Keeper((2,))
        with mock.patch.object(frame, "Frame") as made:
            final, trace = evolve(circuit, obs, 0.0, on_gate=keep)
            k_peak, peak = keep.peak()
        made.assert_not_called()
        assert trace.gates[-1].phi > 0.0
        states, ref_rows, _ = _reference_evolve(circuit, obs, 0.0)
        _assert_state(final, states[-1])
        _assert_state(keep.snapshots[2], states[2])
        _assert_state(peak, states[k_peak])

    @pytest.mark.parametrize("n", [70, 130])  # 2 and 3 words per half
    def test_round_trip(self, n, monkeypatch):
        """Φ(Φ⁻¹(P)) = P for a frame of random quarter and half turns on every word."""
        monkeypatch.setattr(frame, "_MAP_ROWS", 16)  # several blocks
        rng = np.random.default_rng(n)
        clifford = frame.Frame(n)

        def random_string(weight):
            qubits = rng.choice(n, size=weight, replace=False)
            label = "*".join(f"{rng.choice(list('XYZ'))}{q}" for q in qubits)
            p = PauliString.from_label(label, n)
            return PauliString(n=n, z=p.z, x=p.x, alpha=p.alpha + 2 * int(rng.integers(2)))

        for _ in range(400):
            prep = engine._prepare_generator(random_string(int(rng.integers(1, 4))), n)
            clifford.absorb(prep, int(rng.integers(1, 4)))
        preps = [engine._prepare_generator(random_string(int(rng.integers(1, n))), n)
                 for _ in range(60)]
        framed = [clifford.framed(prep) for prep in preps]  # (words, canon, sign)
        assert sum(f[0].tobytes() != p.words.tobytes() for f, p in zip(framed, preps)) > 50
        bits, coeffs = clifford.unframe(np.array([f[0] for f in framed]),
                                        np.array([f[2] * p.orientation
                                                  for f, p in zip(framed, preps)]))
        order = kernels.sort_order(np.array([p.words for p in preps]))
        assert bits.tobytes() == np.array([preps[i].words for i in order]).tobytes()
        assert coeffs.tolist() == [preps[i].orientation for i in order]


def _layout_circuit(n):
    """Non-Clifford rotations and quarter turns on qubits in every word of the row."""
    qubits = sorted({0, 1, n // 2, n - 2, n - 1} | ({62, 63, 64, 65} if n > 64 else set()))
    gates = []
    for step in range(2):
        gates += [(f"Z{a}*Z{b}", -math.pi / 2) for a, b in zip(qubits, qubits[1:])]
        gates += [(f"X{q}", 0.3 + 0.1 * step) for q in qubits]
        gates += [(f"Y{q}", 0.7) for q in qubits[::2]]
    observable = PauliSum.from_terms(n, [(f"Z{q}", 1.0 / (1 + i)) for i, q in enumerate(qubits)])
    return _circuit(n, gates), observable


def _assert_pauli_sum_layout(s):
    """s holds native rows in canonical order, the PauliSum invariant.

    Rows left keyed also set padding bits past qubit n (every n here leaves
    its last word part empty), which terms() rejects.
    """
    assert np.array_equal(kernels.sort_order(s.bits.byteswap()), np.arange(len(s)))
    back = PauliSum.from_terms(s.n, s.terms())
    assert back.bits.tobytes() == s.bits.tobytes()
    assert back.coeffs.tobytes() == s.coeffs.tobytes()


class TestLayoutBoundary:
    """Every state that leaves evolve is back in the PauliSum layout."""

    @pytest.mark.parametrize("n", [6, 70, 130])  # 1, 2 and 3 words per half
    def test_every_way_out(self, n, monkeypatch):
        circuit, observable = _layout_circuit(n)
        delta = 1e-3

        def prefix(k):
            return evolve(Circuit(n=n, gates=circuit.gates[:k]), observable, delta)[0]

        snap_at = len(circuit.gates) // 2
        keep = _Keeper((snap_at,))
        final, trace = evolve(circuit, observable, delta, on_gate=keep)
        peak_k, peak = keep.peak()
        states = {"final": final, "snapshot": keep.snapshots[snap_at], "peak": peak}

        with pytest.raises(RowCapExceeded) as capped:
            evolve(circuit, observable, delta, row_cap=trace.n_max - 1)
        states["row_cap"] = capped.value.partial

        # a clock that advances 1 s a reading runs out of a 20.5 s budget mid-circuit
        ticks = itertools.count()
        monkeypatch.setattr(engine, "time", mock.Mock(
            monotonic=lambda: float(next(ticks)), perf_counter_ns=lambda: 0))
        with pytest.raises(BudgetExceeded) as budget:
            evolve(circuit, observable, delta, budget_s=20.5)
        monkeypatch.undo()
        states["budget"] = budget.value.partial

        for name, s in states.items():
            assert len(s) > 1, name
            _assert_pauli_sum_layout(s)
        for s, k in [(states["snapshot"], snap_at), (peak, peak_k),
                     (states["row_cap"], len(capped.value.trace.gates)),
                     (states["budget"], len(budget.value.trace.gates))]:
            want = prefix(k)
            assert s.bits.tobytes() == want.bits.tobytes()
            assert s.coeffs.tobytes() == want.coeffs.tobytes()


class TestTraceLog:
    def test_n_max_and_k_star(self):
        trace = TraceLog(n=2, delta=0.1, initial_norm=1.0)
        for k, n_after in enumerate([1, 4, 9, 9, 3], start=1):
            trace.gates.append(
                GateStats(k=k, theta=0.1, phi=0.0, eta=0.0, n_before=1, n_after=n_after,
                          truncated=0, norm=1.0, elapsed_ns=10)
            )
        assert trace.n_max == 9
        assert trace.k_star == 3

    def test_finalize_trivial_bound_violation(self):
        trace = TraceLog(n=2, delta=0.5, initial_norm=1.0)
        trace.gates.append(
            GateStats(k=1, theta=0.1, phi=0.0, eta=0.0, n_before=1, n_after=100,
                      truncated=0, norm=1.0, elapsed_ns=10)
        )
        with pytest.raises(InvariantViolation):
            trace.finalize()

    def test_csv_round_trip(self, tmp_path):
        # quarter and half turns, with eta None, among rotated gates
        _, trace = evolve(_golden_circuit(), _golden_observable(), 2.0**-8)
        assert any(g.eta is None for g in trace.gates)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = engine.read_trace(path)
        assert back == trace.gates


class TestExpectation:
    def test_z_row(self):
        assert expectation(PauliSum.from_terms(127, [("Z62", 0.75)])) == 0.75

    def test_x_row(self):
        assert expectation(PauliSum.from_terms(2, [("X0", 0.3)])) == 0.0

    def test_mixed(self):
        s = PauliSum.from_terms(3, [("Z0", 0.5), ("Z0*Z2", 0.25), ("X1", 9.0)])
        assert expectation(s) == 0.75
