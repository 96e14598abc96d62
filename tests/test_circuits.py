import json
import math
from dataclasses import replace

import numpy as np
import pytest

from pauliprop import (
    Circuit,
    CircuitError,
    FixedAngle,
    PauliString,
    PauliSum,
    Topology,
    UniformRandomAngle,
    builtin_topology,
    evolve,
    kicked_ising,
    load_topology,
    tfim_trotter_grid,
)
from pauliprop.rng import Xoshiro256StarStar, _splitmix64


class TestRng:
    def test_splitmix64_reference_vector(self):
        # published test vector for seed 0
        s, z0 = _splitmix64(0)
        s, z1 = _splitmix64(s)
        s, z2 = _splitmix64(s)
        assert (z0, z1, z2) == (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

    def test_xoshiro_regression(self):
        # frozen outputs pin cross-platform reproducibility
        g = Xoshiro256StarStar(0)
        assert [g.next_u64() for _ in range(3)] == [
            0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0,
        ]

    def test_uniform_range_and_determinism(self):
        a = Xoshiro256StarStar(7)
        b = Xoshiro256StarStar(7)
        va = [a.uniform(-0.5, 0.5) for _ in range(100)]
        vb = [b.uniform(-0.5, 0.5) for _ in range(100)]
        assert va == vb
        assert all(-0.5 <= v < 0.5 for v in va)


class TestTopology:
    def test_builtin_heavy_hex(self):
        topo = builtin_topology("ibm_heavy_hex_127")
        assert topo.n == 127
        assert len(topo.edges) == 144
        assert all(i < j for i, j in topo.edges)
        assert list(topo.edges) == sorted(topo.edges)

    def test_builtin_grid_names(self):
        topo = builtin_topology("grid_11x11")
        assert topo.n == 121
        assert len(topo.edges) == 220
        with pytest.raises(CircuitError):
            builtin_topology("nonsense")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("0 1\n1 2\n")
        topo = load_topology(path)
        assert topo.n == 3 and topo.edges == ((0, 1), (1, 2))

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(CircuitError):
            load_topology(path)

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(CircuitError):
            load_topology(path)

    def test_load_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("0 9\n")
        with pytest.raises(CircuitError):
            load_topology(path, n=4)

    def test_grid_edges(self):
        topo = Topology.grid(2, 3)
        assert topo.n == 6
        assert len(topo.edges) == 2 * 2 + 3  # horizontal 2 rows x 2 + vertical 3


class TestKickedIsing:
    def test_gate_count_heavy_hex_t20(self):
        topo = builtin_topology("ibm_heavy_hex_127")
        circ = kicked_ising(topo, T=20, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(0.3))
        assert len(circ) == 5420
        assert len(circ) == 20 * (144 + 127)

    def test_single_edge_layout(self):
        topo = Topology.from_edges([(0, 1)])
        circ = kicked_ising(topo, T=1, theta_zz=-1.0, theta_x_spec=FixedAngle(0.0))
        labels = [g.to_sparse_label() for g, _ in circ.gates]
        thetas = [th for _, th in circ.gates]
        assert labels == ["Z0*Z1", "X0", "X1"]
        assert thetas == [-1.0, 0.0, 0.0]

    def test_zz_layer_in_canonical_edge_order(self):
        topo = Topology.from_edges([(2, 3), (0, 1), (1, 2)])
        circ = kicked_ising(topo, T=1, theta_zz=0.5, theta_x_spec=FixedAngle(0.1))
        zz_labels = [g.to_sparse_label() for g, _ in circ.gates[:3]]
        assert zz_labels == ["Z0*Z1", "Z1*Z2", "Z2*Z3"]

    def test_random_angles_reproducible(self):
        topo = Topology.grid(2, 2)
        spec = UniformRandomAngle(low=-math.pi / 4, high=math.pi / 4, seed=7)
        a = kicked_ising(topo, T=3, theta_zz=-math.pi / 2, theta_x_spec=spec)
        b = kicked_ising(topo, T=3, theta_zz=-math.pi / 2, theta_x_spec=spec)
        assert [th for _, th in a.gates] == [th for _, th in b.gates]
        assert a.metadata["theta_x"]["seed"] == 7

    def test_random_angles_within_bounds(self):
        topo = Topology.grid(2, 2)
        spec = UniformRandomAngle(low=-0.25, high=0.25, seed=3)
        circ = kicked_ising(topo, T=5, theta_zz=-math.pi / 2, theta_x_spec=spec)
        x_thetas = [th for g, th in circ.gates if g.weight() == 1]
        assert all(-0.25 <= th < 0.25 for th in x_thetas)
        assert len(set(x_thetas)) > 1

    def test_t_validation(self):
        topo = Topology.grid(2, 2)
        with pytest.raises(CircuitError):
            kicked_ising(topo, T=0, theta_zz=0.1, theta_x_spec=FixedAngle(0.1))

    def test_bare_angle_rejected(self):
        with pytest.raises(CircuitError, match="FixedAngle"):
            kicked_ising(Topology.grid(2, 2), T=1, theta_zz=0.1, theta_x_spec=0.3)


class TestTfimGrid:
    def test_paper_parameters(self):
        circ = tfim_trotter_grid(rows=11, cols=11, h=3.044382, t_total=0.92, dt=0.04)
        assert circ.metadata["steps"] == 23
        assert circ.metadata["edges"] == 220
        assert len(circ) == 23 * (220 + 121)
        # default convention: theta_zz = 2*dt*J with J=-1, theta_x = 2*dt*h
        zz_theta = circ.gates[0][1]
        x_theta = circ.gates[220][1]
        assert abs(zz_theta - (-0.08)) < 1e-15
        assert abs(x_theta - 2 * 0.04 * 3.044382) < 1e-15

    def test_minimal_grid(self):
        circ = tfim_trotter_grid(rows=1, cols=2, h=1.0, t_total=0.1, dt=0.1)
        labels = [g.to_sparse_label() for g, _ in circ.gates]
        assert labels == ["Z0*Z1", "X0", "X1"]

    def test_dt_equals_t(self):
        circ = tfim_trotter_grid(rows=2, cols=2, h=1.0, t_total=0.25, dt=0.25)
        assert circ.metadata["steps"] == 1

    def test_non_integer_steps_rejected(self):
        with pytest.raises(CircuitError):
            tfim_trotter_grid(rows=2, cols=2, h=1.0, t_total=1.0, dt=0.3)


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        topo = Topology.grid(2, 3)
        spec = UniformRandomAngle(low=-0.5, high=0.5, seed=11)
        circ = kicked_ising(topo, T=2, theta_zz=-math.pi / 2, theta_x_spec=spec)
        path = tmp_path / "circ.json"
        circ.save(path)
        back = Circuit.load(path)
        assert back.n == circ.n
        assert back.metadata == circ.metadata
        assert len(back.gates) == len(circ.gates)
        for (g1, t1), (g2, t2) in zip(circ.gates, back.gates):
            assert g1 == g2 and t1 == t2

    def test_load_shares_one_generator_per_label(self, tmp_path):
        topo = Topology.grid(2, 3)
        circ = kicked_ising(topo, T=3, theta_zz=-math.pi / 2, theta_x_spec=FixedAngle(0.45))
        path = tmp_path / "circ.json"
        circ.save(path)
        back = Circuit.load(path)
        labels = {g.to_sparse_label() for g, _ in back.gates}
        assert len({id(g) for g, _ in back.gates}) == len(labels) == len(topo.edges) + topo.n
        obs = PauliSum.from_terms(6, [("Z2", 1.0)])
        built_final, built_trace = evolve(circ, obs, 1e-3)
        back_final, back_trace = evolve(back, obs, 1e-3)
        assert np.array_equal(back_final.bits, built_final.bits)
        assert np.array_equal(back_final.coeffs, built_final.coeffs)
        untimed = [replace(g, elapsed_ns=0) for g in built_trace.gates]
        assert [replace(g, elapsed_ns=0) for g in back_trace.gates] == untimed

    def test_save_is_byte_stable(self, tmp_path):
        topo = Topology.grid(2, 2)
        circ = kicked_ising(topo, T=2, theta_zz=-1.5707963, theta_x_spec=FixedAngle(0.3))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        circ.save(p1)
        circ.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "n": 2, "gates": []}))
        with pytest.raises(CircuitError):
            Circuit.load(path)

    def test_generator_size_validated(self):
        with pytest.raises(CircuitError):
            Circuit(n=3, gates=((PauliString.from_label("X0", 2), 0.1),))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        gates = ((PauliString.from_label("X0", 3), 0.1), (PauliString.from_label("Z1*Z2", 3), theta))
        with pytest.raises(CircuitError, match=r"gate 2 \(Z1\*Z2\)"):
            Circuit(n=3, gates=gates)
