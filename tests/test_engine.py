import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from pauliprop.engine import GateStats


def _circuit(n, label_theta_pairs):
    return Circuit(
        n=n,
        gates=tuple((PauliString.from_label(lbl, n), th) for lbl, th in label_theta_pairs),
    )


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
            assert (PauliString.from_label("Y0", 1) in out) == kept
            assert stats.truncated == (0 if kept else 1)

    def test_boundary_value_survives_at_entry(self):
        # the observable is thresholded once before gate 1; the commuting row
        # X1 then passes the gate unchanged
        delta = 3.5e-4
        for c, kept in ((delta, True), (np.nextafter(delta, 0.0), False)):
            s = PauliSum.from_terms(2, [("Z0", 1.0), ("X1", c)])
            out, stats = apply_rotation(s, PauliString.from_label("X0", 2), 0.3, delta)
            assert (PauliString.from_label("X1", 2) in out) == kept
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

    def test_non_hermitian_generator_rejected(self):
        plain = PauliString.from_label("X")
        crooked = PauliString(n=1, z=plain.z, x=plain.x, alpha=1)
        s = PauliSum.from_terms(1, [("Z", 1.0)])
        with pytest.raises(Exception):
            apply_rotation(s, crooked, 0.4, 0.0)


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
            assert abs(g.norm_after - prev) < 1e-12
            prev = g.norm_after

    def test_norm_monotone_with_truncation(self, rng):
        n = 5
        gates = random_circuit_gates(rng, n, 40, clifford_fraction=0.1)
        obs = PauliSum.from_terms(n, [("ZZIII", 1.0)])
        _, trace = evolve(_circuit(n, gates), obs, 0.05)
        prev = trace.initial_norm
        for g in trace.gates:
            assert g.norm_after <= prev + 1e-12
            prev = g.norm_after

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
            assert 0.0 <= g.eta <= g.phi <= 1.0
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
        final, trace = evolve(_circuit(n, gates), obs, 0.0, snapshot_gates=(3, 7))
        assert set(trace.snapshots) == {3, 7}
        assert trace.snapshots[3].n == n

    def test_step_snapshots_and_peak(self):
        topo = Topology.grid(2, 2)
        circ = kicked_ising(topo, T=3, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(0.3))
        obs = PauliSum.from_terms(4, [("Z0", 1.0)])
        per_step = circ.metadata["gates_per_step"]
        final, trace = evolve(circ, obs, 0.0, snapshot_steps=True, track_peak_snapshot=True)
        assert set(trace.snapshots) == {per_step, 2 * per_step, 3 * per_step}
        k_peak, snap = trace.peak_snapshot
        assert len(snap) == trace.n_max


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


GOLDEN_SUMMARY = (435, 48, "0.09492838905354659")
GOLDEN_STATE_SHA256 = "8c9e1de96a63e48837bbddab61c3b496e1e9c5373f3922e9e913e42d1009bc82"
GOLDEN_TRACE_SHA256 = "5da75820d9dc38a252cac9389352200b5517223cfdd05c0473f13bd025bc7bb9"


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
        # relabellings; folding them into one rotation must change no
        # coefficient bit, row or trace value
        obs = PauliSum.from_terms(6, [("Z2", 1.0), ("X0*Z1", 0.5), ("Y4", -0.25)])
        final, trace = evolve(_golden_circuit(), obs, 2.0**-8)
        state = hashlib.sha256(
            final.bits.astype("<u8").tobytes() + final.coeffs.astype("<f8").tobytes()
        ).hexdigest()
        rows = [(g.k, g.phi, g.eta, g.n_before, g.n_after, g.truncated, g.norm_after)
                for g in trace.gates]
        assert (trace.n_max, trace.k_star, repr(expectation(final))) == GOLDEN_SUMMARY
        assert state == GOLDEN_STATE_SHA256
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


class TestTraceLog:
    def test_n_max_and_k_star(self):
        trace = TraceLog(n=2, delta=0.1, initial_norm=1.0)
        for k, n_after in enumerate([1, 4, 9, 9, 3], start=1):
            trace.gates.append(
                GateStats(k=k, theta=0.1, phi=0.0, eta=0.0, n_before=1, n_after=n_after,
                          truncated=0, norm_after=1.0, elapsed_ns=10)
            )
        assert trace.n_max == 9
        assert trace.k_star == 3

    def test_finalize_trivial_bound_violation(self):
        trace = TraceLog(n=2, delta=0.5, initial_norm=1.0)
        trace.gates.append(
            GateStats(k=1, theta=0.1, phi=0.0, eta=0.0, n_before=1, n_after=100,
                      truncated=0, norm_after=1.0, elapsed_ns=10)
        )
        with pytest.raises(InvariantViolation):
            trace.finalize()

    def test_csv_round_trip(self, tmp_path, rng):
        n = 3
        gates = random_circuit_gates(rng, n, 10)
        obs = PauliSum.from_terms(n, [("ZII", 1.0)])
        _, trace = evolve(_circuit(n, gates), obs, 1e-3)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = TraceLog.from_csv(path)
        assert [g.n_after for g in back.gates] == [g.n_after for g in trace.gates]
        assert [g.theta for g in back.gates] == [g.theta for g in trace.gates]
        assert [g.norm_after for g in back.gates] == [g.norm_after for g in trace.gates]


class TestExpectation:
    def test_z_row(self):
        assert expectation(PauliSum.from_terms(127, [("Z62", 0.75)])) == 0.75

    def test_x_row(self):
        assert expectation(PauliSum.from_terms(2, [("X0", 0.3)])) == 0.0

    def test_mixed(self):
        s = PauliSum.from_terms(3, [("Z0", 0.5), ("Z0*Z2", 0.25), ("X1", 9.0)])
        assert expectation(s) == 0.75
