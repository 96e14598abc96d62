import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pauli_matrix
from pauliprop import (
    InvariantViolation,
    PauliError,
    PauliString,
    canonical_real_coefficient,
    commutes,
    expectation_on_zero,
    multiply_by_generator,
)

labels_st = st.text(alphabet="IXYZ", min_size=1, max_size=9)


class TestLabels:
    def test_dense_round_trip(self):
        for label in ["I", "X", "IZY", "XYZIXYZI", "Z" * 70]:
            assert PauliString.from_label(label).to_label() == label

    @given(labels_st)
    @settings(max_examples=60)
    def test_round_trip_property(self, label):
        assert PauliString.from_label(label).to_label() == label

    def test_sparse_forms(self):
        p = PauliString.from_label("Z62", 127)
        assert p.to_sparse_label() == "Z62"
        assert p.weight() == 1
        q = PauliString.from_label("X3*Z7", 9)
        assert q.to_label() == "IIIXIIIZI"
        assert PauliString.from_label("I", 4).to_sparse_label() == "I"

    def test_sparse_round_trip_large(self):
        p = PauliString.from_label("Y0*X64*Z126", 127)
        assert PauliString.from_label(p.to_sparse_label(), 127) == p

    def test_bad_labels(self):
        with pytest.raises(PauliError):
            PauliString.from_label("Q3", 5)
        with pytest.raises(PauliError):
            PauliString.from_label("Z9", 5)
        with pytest.raises(PauliError):
            PauliString.from_label("Z1*Z1", 5)
        with pytest.raises(PauliError):
            PauliString.from_label("")
        with pytest.raises(PauliError):
            PauliString.from_label("Z3")  # sparse without n

    def test_padding_validated(self):
        with pytest.raises(PauliError):
            PauliString(n=3, z=0b11111, x=0)

    @pytest.mark.parametrize("z, x", [(-1, 0), (0, -4)])
    def test_negative_half_rejected(self, z, x):
        with pytest.raises(PauliError):
            PauliString(n=3, z=z, x=x)

    def test_y_carries_canonical_phase(self):
        # Y = (-i) Z X on its qubit
        p = PauliString.from_label("Y")
        assert p.alpha == 1 and p.z == 1 and p.x == 1


class TestCommutes:
    def test_identical_paulis_commute(self):
        x0 = PauliString.from_label("X0", 3)
        assert commutes(x0, x0)

    def test_single_qubit_anticommute(self):
        assert not commutes(PauliString.from_label("X0", 1), PauliString.from_label("Z0", 1))

    def test_zz_vs_xx_commute(self):
        # derived: dense 4x4 commutator
        zz = PauliString.from_label("ZZ")
        xx = PauliString.from_label("XX")
        assert commutes(zz, xx)
        a, b = pauli_matrix("ZZ"), pauli_matrix("XX")
        assert np.allclose(a @ b - b @ a, 0)

    def test_size_mismatch(self):
        with pytest.raises(PauliError):
            commutes(PauliString.from_label("X0", 2), PauliString.from_label("X0", 3))

    @given(labels_st.filter(lambda s: len(s) <= 6), st.data())
    @settings(max_examples=80)
    def test_matches_dense_and_symmetric(self, label, data):
        other = data.draw(st.text(alphabet="IXYZ", min_size=len(label), max_size=len(label)))
        p, q = PauliString.from_label(label), PauliString.from_label(other)
        assert commutes(p, q) == commutes(q, p)
        a, b = pauli_matrix(label), pauli_matrix(other)
        dense_commutes = np.allclose(a @ b, b @ a)
        assert commutes(p, q) == dense_commutes


def _as_dense(p: PauliString) -> np.ndarray:
    """(-i)^alpha Z^z X^x per qubit, straight from the definition."""
    out = np.array([[1.0 + 0j]])
    for q in range(p.n):
        zb = (p.z >> q) & 1
        xb = (p.x >> q) & 1
        m = np.eye(2, dtype=complex)
        if zb:
            m = m @ pauli_matrix("Z")
        if xb:
            m = m @ pauli_matrix("X")
        out = np.kron(out, m)
    return (-1j) ** p.alpha * out


class TestMultiply:
    def test_z_times_x_is_phase_times_y(self):
        z = PauliString.from_label("Z")
        x = PauliString.from_label("X")
        prod = multiply_by_generator(x, z)  # Z * X
        assert (prod.z, prod.x) == (1, 1)
        assert np.allclose(_as_dense(prod), pauli_matrix("Z") @ pauli_matrix("X"))

    def test_identity_leaves_alpha(self):
        p = PauliString.from_label("XYZI")
        ident = PauliString(n=4)
        assert multiply_by_generator(p, ident) == p

    def test_self_product_is_plus_identity(self, rng):
        for _ in range(3):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(4))
            p = PauliString.from_label(label)
            sq = multiply_by_generator(p, p)
            assert not sq.z and not sq.x
            assert np.allclose(_as_dense(sq), np.eye(16))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_product(self, data):
        n = data.draw(st.integers(1, 5))
        lbl = st.text(alphabet="IXYZ", min_size=n, max_size=n)
        a = PauliString.from_label(data.draw(lbl))
        b = PauliString.from_label(data.draw(lbl))
        prod = multiply_by_generator(b, a)  # a * b
        assert np.allclose(_as_dense(prod), _as_dense(a) @ _as_dense(b))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_associativity_vs_dense(self, data):
        n = data.draw(st.integers(1, 5))
        lbl = st.text(alphabet="IXYZ", min_size=n, max_size=n)
        a, b, c = (PauliString.from_label(data.draw(lbl)) for _ in range(3))
        prod = multiply_by_generator(multiply_by_generator(c, b), a)  # a * (b * c)
        assert np.allclose(_as_dense(prod), _as_dense(a) @ _as_dense(b) @ _as_dense(c))


class TestExpectationOnZero:
    def test_z_type_on_127(self):
        assert expectation_on_zero(PauliString.from_label("Z62", 127)) == 1.0

    def test_off_diagonal(self):
        assert expectation_on_zero(PauliString.from_label("X0", 1)) == 0.0

    def test_phase_two_gives_minus_one(self):
        p = PauliString.from_label("Z0*Z1", 2)
        p = PauliString(n=2, z=p.z, x=p.x, alpha=2)
        assert expectation_on_zero(p) == -1.0

    def test_odd_phase_on_z_type_is_corruption(self):
        p = PauliString(n=2, z=0b11, x=0, alpha=1)
        with pytest.raises(InvariantViolation):
            expectation_on_zero(p)

    @given(labels_st.filter(lambda s: len(s) <= 8))
    @settings(max_examples=60)
    def test_matches_dense_diagonal(self, label):
        p = PauliString.from_label(label)
        dense = _as_dense(p)[0, 0]
        assert abs(expectation_on_zero(p) - dense.real) < 1e-14
        assert abs(dense.imag) < 1e-14


class TestCanonicalRealCoefficient:
    def test_plain(self):
        p = PauliString.from_label("Z0*Z1", 3)
        assert canonical_real_coefficient(0.5, p) == 0.5

    def test_phase_two_flips_sign(self):
        p0 = PauliString.from_label("Z0*Z1", 3)
        p = PauliString(n=3, z=p0.z, x=p0.x, alpha=2)
        assert canonical_real_coefficient(0.5, p) == -0.5

    def test_imaginary_residue_detected(self):
        p = PauliString.from_label("Z0", 2)
        with pytest.raises(InvariantViolation):
            canonical_real_coefficient(0.5j, p)

    @given(labels_st.filter(lambda s: len(s) <= 6))
    @settings(max_examples=40)
    def test_value_is_plain_string_coefficient(self, label):
        # c * P must equal canonical_real_coefficient(c, P) * plain_string
        p = PauliString.from_label(label)
        for alpha_shift in (0, 2):
            shifted = PauliString(n=p.n, z=p.z, x=p.x, alpha=(p.alpha + alpha_shift) % 4)
            c = 0.7
            real_c = canonical_real_coefficient(c, shifted)
            assert np.allclose(c * _as_dense(shifted), real_c * pauli_matrix(label))
