import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliprop import PauliString, PauliSum, RowCapExceeded


def _sum_from(n, pairs):
    return PauliSum.from_terms(n, pairs)


class TestInsertOrAccumulate:
    def test_insert_into_empty(self):
        s = _sum_from(3, [("Z0", 1.0)])
        assert len(s) == 1
        assert s.coefficient_of(PauliString.from_label("Z0", 3)) == 1.0

    def test_exact_cancellation_removes_row(self):
        s = _sum_from(3, [("Z0", 1.0)])
        s.insert_or_accumulate(PauliString.from_label("Z0", 3), -1.0)
        assert len(s) == 0

    def test_distinct_rows_append(self):
        s = _sum_from(3, [("Z0", 1.0), ("Y1", 0.3)])
        assert len(s) == 2

    def test_accumulates_on_same_nu(self):
        s = _sum_from(2, [("Z0", 1.0), ("Z0", 0.25)])
        assert len(s) == 1
        assert s.coefficient_of(PauliString.from_label("Z0", 2)) == 1.25

    def test_phase_folded_to_canonical_real(self):
        # alpha=2 represents the negated plain string
        p0 = PauliString.from_label("Z0", 2)
        p_neg = PauliString(n=2, z=p0.z, x=p0.x, alpha=2)
        s = PauliSum(2)
        s.insert_or_accumulate(p_neg, 1.0)
        assert s.coefficient_of(p0) == -1.0

    def test_size_mismatch(self):
        s = PauliSum(2)
        with pytest.raises(Exception):
            s.insert_or_accumulate(PauliString.from_label("Z0", 3), 1.0)

    def test_row_cap(self):
        s = PauliSum(4, row_cap=2)
        s.insert_or_accumulate(PauliString.from_label("Z0", 4), 1.0)
        s.insert_or_accumulate(PauliString.from_label("Z1", 4), 1.0)
        with pytest.raises(RowCapExceeded):
            s.insert_or_accumulate(PauliString.from_label("Z2", 4), 1.0)


class TestTruncate:
    def test_removes_below_threshold(self):
        s = _sum_from(3, [("Z0", 1.0), ("Y1", 1e-6)])
        removed = s.truncate(1e-5)
        assert removed == 1 and len(s) == 1

    def test_delta_zero_is_identity(self):
        s = _sum_from(3, [("Z0", 1.0), ("Y1", 1e-12)])
        assert s.truncate(0.0) == 0 and len(s) == 2

    def test_boundary_value_survives(self):
        delta = 3.5e-4
        s = _sum_from(2, [("Z0", delta)])
        assert s.truncate(delta) == 0 and len(s) == 1

    def test_idempotent(self):
        s = _sum_from(4, [("Z0", 0.5), ("X1", 0.2), ("Y2", 1e-3), ("Z3", 0.09)])
        s.truncate(0.1)
        before = sorted(zip(s.labels(), s.coeffs.tolist()))
        assert s.truncate(0.1) == 0
        assert sorted(zip(s.labels(), s.coeffs.tolist())) == before

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            _sum_from(2, [("Z0", 1.0)]).truncate(-1.0)

    @given(st.lists(st.floats(-2, 2).filter(lambda v: v != 0.0), min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_row_count_respects_trivial_bound(self, coeffs):
        s = PauliSum(6)
        for i, c in enumerate(coeffs):
            s.insert_or_accumulate(PauliString.from_label(f"Z{i % 6}*X{(i + 1) % 6}" if i % 2 else f"Z{i % 6}", 6), c)
        delta = 0.3
        s.truncate(delta)
        assert len(s) <= s.raw_norm() ** 2 / delta**2 + 1e-9


class TestNorm:
    def test_single_row(self):
        assert _sum_from(2, [("Z0", 1.0)]).raw_norm() == 1.0

    def test_empty(self):
        assert PauliSum(2).raw_norm() == 0.0

    def test_three_four_five(self):
        s = _sum_from(3, [("Z0", 0.6), ("Y1", 0.8)])
        assert abs(s.raw_norm() - 1.0) < 1e-15

    def test_matches_naive_loop(self, rng):
        s = PauliSum(5)
        for i in range(20):
            s.insert_or_accumulate(
                PauliString.from_label(f"Z{i % 5}*X{(i + 2) % 5}", 5), float(rng.normal())
            )
        naive = sum(c * c for _, c in s.terms())
        assert abs(s.raw_norm() ** 2 - naive) < 1e-12 * max(1.0, naive)


class TestStructure:
    def test_index_is_bijection(self):
        s = _sum_from(4, [("Z0", 1.0), ("X1", 0.5), ("Y2*Z3", 0.25)])
        assert len(s.index) == len(s)
        for key, slot in s.index.items():
            assert s.bits[slot].tobytes() == key

    def test_no_zero_coefficients_stored(self):
        s = _sum_from(3, [("Z0", 1.0)])
        s.insert_or_accumulate(PauliString.from_label("X1", 3), 0.0)
        assert len(s) == 1

    def test_sort_canonical_orders_rows(self):
        s = _sum_from(4, [("X3", 0.2), ("Z0", 1.0), ("Y2", 0.5)])
        s.sort_canonical()
        keys = [s.bits[i].tobytes() for i in range(len(s))]
        assert keys == sorted(keys)

    def test_contains_and_string_at(self):
        s = _sum_from(4, [("Y2*Z3", 0.25)])
        p = PauliString.from_label("Y2*Z3", 4)
        assert p in s
        assert s.string_at(0) == p


class TestSnapshots:
    def test_csv_round_trip(self, tmp_path):
        s = _sum_from(5, [("Z0", 1.0), ("X1*Y3", -0.125), ("Z2*Z4", 0.7071067811865476)])
        path = tmp_path / "snap.csv"
        s.to_csv(path)
        back = PauliSum.from_csv(path, 5)
        assert sorted(zip(back.labels(), back.coeffs.tolist())) == sorted(
            zip(s.labels(), s.coeffs.tolist())
        )

    def test_npz_round_trip(self, tmp_path):
        s = _sum_from(127, [("Z62", 0.75), ("X0*Z126", -0.25)])
        path = tmp_path / "snap.npz"
        s.to_npz(path, gate_index=17, delta=1e-4)
        back = PauliSum.from_npz(path)
        assert back.n == 127
        assert np.array_equal(back.bits, s.bits)
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nZ0,1.0\n")
        with pytest.raises(ValueError):
            PauliSum.from_csv(path, 3)
